"""Batch front end: exit codes, determinism, and table contracts."""

import json
import warnings

import numpy as np
import pytest

from csoslab import cli, contract
from csoslab.elliptic import AccuracyError, DegenerateConfigError, PoleError


@pytest.fixture()
def thermo_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau_im = 0.45\nr = 1\nL = 3\ns0 = physical\nN = 4\n"
                   "xi = homogeneous\n")
    return str(cfg)


@pytest.fixture()
def point_path(tmp_path):
    doc = {"vertices": [[1, 1]], "heights": [0]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def bond_path(tmp_path):
    doc = {"vertices": [[1, 1], [2, 1]], "heights": [0, 1]}
    path = tmp_path / "bond.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestIdentities:
    @pytest.mark.parametrize("suite", sorted(contract.SUITES))
    def test_suite_passes(self, suite, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["identities", suite, "--draws", "25",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] and doc["tolerance"] == contract.TOL[suite]
        # one row per residual name, and no row without a residual
        assert sorted(doc["residuals"]) == sorted(contract.TOL[suite])
        assert set(contract.TOL) == set(contract.SUITES) | {"acceptance"}
        assert all(contract.within(v, doc["tolerance"][k])
                   for k, v in doc["residuals"].items())

    def test_residual_above_its_row_fails(self, tmp_path, monkeypatch,
                                          capsys):
        # above the jacobi row, below the 1e-10 that once bounded the suite
        monkeypatch.setattr(contract, "jacobi_residual",
                            lambda *args: 5e-11)
        out = tmp_path / "report.json"
        argv = ["identities", "elliptic", "--draws", "5", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "FAIL: jacobi" in capsys.readouterr().err
        assert not json.loads(out.read_text())["pass"]
        # --tolerance overrides every row
        assert cli.main(argv + ["--tolerance", "1e-10"]) == 0

    def test_exact_row_survives_the_override(self):
        rows = contract.rows("appendixD", 1.0)
        assert rows["parity_zero_L4"] == 0.0
        assert rows["nu_vs_closed_L3"] == 1.0
        assert not contract.within(1e-300, rows["parity_zero_L4"])

    def test_appendixD_suite(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["identities", "appendixD", "--draws", "10",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert any(k.startswith("nu_vs_closed") for k in doc["residuals"])

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["identities", "elliptic", "--draws", "10", "--seed", "3",
                  "--out", str(out1)])
        cli.main(["identities", "elliptic", "--draws", "10", "--seed", "3",
                  "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("draws", ["0", "-3"])
    @pytest.mark.parametrize("suite", sorted(contract.SUITES))
    def test_draws_below_one_exit_config(self, suite, draws, tmp_path,
                                         capsys):
        # a suite of no draws would report residuals of 0 and pass
        out = tmp_path / "report.json"
        code = cli.main(["identities", suite, "--draws", draws,
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"draws must be positive, got {draws}" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_unknown_suite_exit_config(self):
        assert cli.main(["identities", "nonsense"]) == cli.EXIT_CONFIG

    def test_failing_tolerance_exit_numerical(self, tmp_path):
        code = cli.main(["identities", "elliptic", "--draws", "5",
                         "--tolerance", "1e-30",
                         "--out", str(tmp_path / "r.json")])
        assert code == cli.EXIT_NUMERICAL

    def test_zero_tolerance_is_an_override(self, tmp_path):
        # a given 0 is a tolerance, not "unset": every row becomes exact
        out = tmp_path / "r.json"
        code = cli.main(["identities", "elliptic", "--draws", "5",
                         "--tolerance", "0", "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert set(json.loads(out.read_text())["tolerance"].values()) == {0.0}


class TestLhpTables:
    def test_thermo_point_table_rows_sum_to_one(self, thermo_config,
                                                point_path, tmp_path):
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", "thermo", "--config", thermo_config,
                         "--path", point_path, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        for eps in (0, 1):
            for t in (0, 1):
                rows = [r for r in doc["records"]
                        if r["eps"] == eps and r["t"] == t]
                assert len(rows) == 3
                tot = sum(r["value_re"] + 1j * r["value_im"] for r in rows)
                assert abs(tot - 1.0) < 1e-9

    def test_parity_forbidden_row_exact_zero(self, tmp_path, point_path):
        cfg = tmp_path / "even.cfg"
        cfg.write_text("tau_im = 0.625\nr = 1\nL = 4\ns0_re = 0.37\n"
                       "s0_im = 0.21\nN = 4\nxi = homogeneous\n")
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", "thermo", "--config", str(cfg),
                         "--path", point_path, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        forbidden = [r for r in doc["records"]
                     if (r["eps"] + r["t"] - r["heights"][0]) % 2 != 0]
        assert forbidden
        assert all(r["value_re"] == 0.0 and r["value_im"] == 0.0
                   for r in forbidden)

    def test_csv_output(self, thermo_config, point_path, tmp_path):
        out = tmp_path / "table.csv"
        code = cli.main(["lhp", "--mode", "thermo", "--config", thermo_config,
                         "--path", point_path, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("eps,")
        assert len(lines) == 1 + 2 * 2 * 3

    def test_finite_mode(self, thermo_config, point_path, tmp_path):
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", "finite", "--config", thermo_config,
                         "--path", point_path, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        rows = [r for r in doc["records"] if r["eps"] == 0 and r["t"] == 0]
        tot = sum(r["value_re"] for r in rows)
        assert abs(tot - 1.0) < 1e-8
        # deviation column against the thermodynamic value is populated
        assert all(r["deviation_from_thermo"] is not None
                   for r in doc["records"])
        assert max(r["deviation_from_thermo"] for r in doc["records"]) < 1e-2

    def test_finite_mode_reports_skipped_thermo(self, thermo_config,
                                                point_path, tmp_path,
                                                monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateConfigError("degenerate pair")

        monkeypatch.setattr(cli.thermo, "lhp_table", degenerate)
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", "finite", "--config", thermo_config,
                         "--path", point_path, "--out", str(out)])
        assert code == cli.EXIT_OK
        records = json.loads(out.read_text())["records"]
        assert all(r["deviation_from_thermo"] is None
                   and r["thermo_skipped"] == "degenerate pair"
                   for r in records)

    def test_finite_table_builds_one_pair_table_per_shift(
            self, thermo_config, tmp_path, monkeypatch):
        # L = 3, r = 1: one K x K pair table, K = 2(L - r) = 4, for each of
        # the L height shifts, shared by all K flat labels; each table is
        # one kernel for all its right states: L = 3 kernels
        calls = []
        kernel = cli.matel._table_kernel

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(cli.matel, "_table_kernel", counted)
        path = tmp_path / "bond12.json"
        path.write_text(json.dumps({"vertices": [[1, 1], [2, 1]],
                                    "heights": [1, 2]}))
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", "finite", "--config", thermo_config,
                         "--path", str(path), "--resolution", "64",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        assert len(json.loads(out.read_text())["records"]) == 3 * 4
        assert len(calls) == 3

    @pytest.mark.parametrize("mode", ["lhp", "converge"])
    def test_thermo_failure_not_swallowed(self, thermo_config, point_path,
                                          tmp_path, monkeypatch, mode):
        # only degenerate configurations skip the thermodynamic value; a
        # numerical failure, a pole of the integrand among them, ends the
        # run with exit 1 and writes nothing
        for error in (AccuracyError("quadrature did not converge"),
                      PoleError("contour pole")):
            def fail(*args, **kwargs):
                raise error

            monkeypatch.setattr(cli.thermo, ("lhp_table" if mode == "lhp"
                                             else "multipoint_lhp"), fail)
            out = tmp_path / "report.json"
            argv = (["lhp", "--mode", "finite"] if mode == "lhp"
                    else ["converge", "--n-list", "4"])
            code = cli.main(argv + ["--config", thermo_config, "--path",
                                    point_path, "--out", str(out)])
            assert code == cli.EXIT_NUMERICAL
            assert not out.exists()

    def test_table_tolerance_failure(self, thermo_config, bond_path,
                                     tmp_path, capsys):
        # the first record above the tolerance ends the run with exit 1 and
        # its one-record message; nothing is written
        cfg = cli.parse_config(thermo_config)
        params = cli.build_params(cfg)
        config = cli.build_lattice(cfg, params)
        path = cli.load_path(bond_path)
        with pytest.raises(AccuracyError) as one:
            cli.thermo.multipoint_lhp(path, 0, 0, config, params,
                                      resolution=8, tolerance=1e-5)
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", "thermo", "--config", thermo_config,
                         "--path", bond_path, "--resolution", "8",
                         "--tolerance", "1e-5", "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert not out.exists()
        assert capsys.readouterr().err == f"numerical failure: {one.value}\n"

    def test_finite_mode_honours_tolerance(self, thermo_config, bond_path,
                                           tmp_path):
        # the thermodynamic reference of a finite table is held to the same
        # tolerance as a thermo table: exit 1 and nothing written
        for mode in ("thermo", "finite"):
            out = tmp_path / f"{mode}.json"
            code = cli.main(["lhp", "--mode", mode, "--config", thermo_config,
                             "--path", bond_path, "--resolution", "8",
                             "--tolerance", "1e-30", "--out", str(out)])
            assert code == cli.EXIT_NUMERICAL, mode
            assert not out.exists()

    @pytest.mark.parametrize("mode", ["finite", "thermo"])
    @pytest.mark.parametrize("vertices", [
        [[1, 1], [0, 1]],      # up from row 1: would read xi_0
        [[5, 1], [6, 1]],      # down from row N + 1: would read xi_{N+1}
        [[1, 0], [1, 1]],      # from column 0: would read w_0
        [[1, 1], [1, 2]]])     # no column inhomogeneity w_1 on this lattice
    def test_path_off_the_lattice_exit_2(self, thermo_config, tmp_path, mode,
                                         vertices):
        path = tmp_path / "off.json"
        path.write_text(json.dumps({"vertices": vertices, "heights": [1, 2]}))
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", mode, "--config", thermo_config,
                         "--path", str(path), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["finite", "thermo"])
    @pytest.mark.parametrize("doc", [
        # s0 + 0.5 is not a height: the table would hold values off the circle;
        # the other documents are refused as configuration errors, not as
        # numerical failures
        {"vertices": [[1, 1], [2, 1]], "heights": [0.5, 1.5]},
        {"vertices": [[1, 1], [2, 1]], "heights": ["0", "1"]},
        {"vertices": [["2", 1], [3, 1]], "heights": [0, 1]},
        {"vertices": [[1, 1], [2, 1]], "heights": [True, False]},
        {"vertices": [1, 2], "heights": [0, 1]},
        {"vertices": [[1, 1]], "heights": 0},
        [[1, 1], [2, 1]]])
    def test_malformed_path_exit_2(self, thermo_config, tmp_path, mode, doc):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", mode, "--config", thermo_config,
                         "--path", str(path), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_coinciding_path_arguments_refused(self, thermo_config,
                                               tmp_path, capsys):
        # an m = 2 path on a homogeneous column has z_1 = z_2, and a path
        # down one row and back up the unit pair {xi, xi - 1}: the integrand
        # is singular at both, so each is a configuration error that names
        # the pair, and nothing is written
        for verts, heights, reason in (
                ([[1, 1], [2, 1], [3, 1]], [0, 1, 2], "z_1 and z_2 collide"),
                ([[1, 1], [2, 1], [1, 1]], [0, 1, 0], "degenerate pair")):
            path = tmp_path / "two.json"
            path.write_text(json.dumps({"vertices": verts,
                                        "heights": heights}))
            out = tmp_path / "table.json"
            code = cli.main(["lhp", "--mode", "thermo", "--config",
                             thermo_config, "--path", str(path),
                             "--tolerance", "1e-8", "--out", str(out)])
            assert code == cli.EXIT_CONFIG
            assert reason in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_values_not_emitted(self, tmp_path):
        from csoslab.elliptic import AccuracyError
        out = tmp_path / "r.json"
        with pytest.raises(AccuracyError):
            cli._emit({"value": float("nan")}, str(out))
        with pytest.raises(AccuracyError):
            cli._emit_csv([[0, float("inf")]], ["a", "b"], str(out))
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["lhp"], ["lhp", "--mode", "finite"],
                                      ["converge", "--n-list", "4"]])
    def test_odd_resolution_exit_2(self, thermo_config, bond_path, tmp_path,
                                   argv):
        # the quadrature estimate needs the even-indexed half grid
        out = tmp_path / "report.json"
        code = cli.main(argv + ["--config", thermo_config, "--path",
                                bond_path, "--resolution", "127",
                                "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["lhp"], ["lhp", "--mode", "finite"],
                                      ["converge", "--n-list", "4"]])
    def test_zero_resolution_exit_2(self, thermo_config, bond_path, tmp_path,
                                    capsys, argv):
        # a given 0 is refused, not read as "unset" and run at the default
        out = tmp_path / "report.json"
        code = cli.main(argv + ["--config", thermo_config, "--path",
                                bond_path, "--resolution", "0",
                                "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "resolution must be even and positive, got 0" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_exit_2(self, tmp_path, point_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a config\n")
        assert cli.main(["lhp", "--config", str(bad),
                         "--path", point_path]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key", ["xii", "s0_shift"])
    def test_unknown_config_key_exit_2(self, tmp_path, point_path, capsys,
                                       key):
        # a typo must not fall back silently to a default
        bad = tmp_path / "typo.cfg"
        bad.write_text(f"tau_im = 0.45\nr = 1\nL = 3\ns0 = physical\n"
                       f"N = 4\n{key} = 0.5+0.01j,0.5,0.5,0.5\n")
        out = tmp_path / "report.json"
        assert cli.main(["lhp", "--config", str(bad), "--path", point_path,
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("s0, extra", [("0.41", ""),
                                           ("0.41", "s0_im = 0.13\n"),
                                           ("physical", "s0_re = 0.3\n")])
    def test_s0_other_than_physical_exit_2(self, tmp_path, bond_path, capsys,
                                           s0, extra):
        # no s0 value is dropped: a number under s0 ran as s0_re + i s0_im
        # (0.13i here, or their default 0), and 'physical' overrode them
        bad = tmp_path / "s0.cfg"
        bad.write_text(f"tau_im = 0.8\nr = 1\nL = 3\ns0 = {s0}\n{extra}"
                       "N = 4\n")
        out = tmp_path / "conv.json"
        assert cli.main(["converge", "--config", str(bad), "--path",
                         bond_path, "--n-list", "4", "--out",
                         str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "s0_re" in err and "s0_im" in err
        assert not out.exists()


class TestConverge:
    def test_monotone_report(self, thermo_config, bond_path, tmp_path):
        out = tmp_path / "conv.json"
        code = cli.main(["converge", "--config", thermo_config,
                         "--path", bond_path, "--n-list", "4,6",
                         "--resolution", "128", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 2
        assert doc["monotone"] is True

    def test_report_unchanged_by_phase_transposes(self, thermo_config,
                                                  bond_path, tmp_path,
                                                  monkeypatch):
        # the Newton residual reads theta1(eta~ - d) as the transpose of
        # theta1(eta~ + d): the report is byte for byte that of both halves
        argv = ["converge", "--config", thermo_config, "--path", bond_path,
                "--n-list", "8,16", "--resolution", "32", "--out"]
        assert cli.main(argv + [str(tmp_path / "one.json")]) == 0
        ratio = cli.bethe._log_ratio_odd
        monkeypatch.setattr(cli.bethe, "_log_ratio_odd",
                            lambda terms, tau_t, antisymmetric=():
                            ratio(terms, tau_t))
        assert cli.main(argv + [str(tmp_path / "both.json")]) == 0
        assert ((tmp_path / "one.json").read_bytes()
                == (tmp_path / "both.json").read_bytes())

    def test_even_L_monotone(self, bond_path, tmp_path):
        # L = 4, r = 1: the flat route takes the dense fallback for the
        # twist partners; deviations 6.4e-3, 2.2e-3, 8.1e-4 at N = 4, 6, 8
        cfg = tmp_path / "even.cfg"
        cfg.write_text("tau_im = 0.45\nr = 1\nL = 4\ns0 = physical\nN = 4\n"
                       "xi = homogeneous\n")
        out = tmp_path / "conv.json"
        code = cli.main(["converge", "--config", str(cfg),
                         "--path", bond_path, "--n-list", "4,6,8",
                         "--resolution", "128", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["monotone"] is True

    @pytest.mark.parametrize("eps, t", [(2, 0), (0, 7), (0, -1)])
    def test_label_outside_the_family_exit_2(self, bond_path, tmp_path,
                                             monkeypatch, capsys, eps, t):
        # L = 3, r = 1 has the flat labels eps in {0, 1}, t in {0, 1}; any
        # other label is refused before a Bethe or a thermodynamic solve
        def solved(*args, **kwargs):
            raise AssertionError("solved before the label was checked")

        monkeypatch.setattr(cli.bethe, "all_ground_states", solved)
        monkeypatch.setattr(cli.thermo, "multipoint_lhp", solved)
        cfg = tmp_path / "label.cfg"
        cfg.write_text("tau_im = 0.45\nr = 1\nL = 3\ns0 = physical\nN = 8\n"
                       f"xi = homogeneous\neps = {eps}\nt = {t}\n")
        out = tmp_path / "conv.json"
        code = cli.main(["converge", "--config", str(cfg),
                         "--path", bond_path, "--n-list", "8",
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "flat label" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_list", ["0", "-4"])
    def test_non_positive_n_exit_2(self, thermo_config, bond_path, tmp_path,
                                   capsys, n_list):
        # refused by the lattice geometry before any solve: no numpy
        # warning on an empty column, and the reason names N
        out = tmp_path / "conv.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["converge", "--config", thermo_config,
                             "--path", bond_path, f"--n-list={n_list}",
                             "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert (f"N must be a positive even number, got {n_list}"
                in capsys.readouterr().err)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_single_n_no_claim(self, thermo_config, bond_path, tmp_path):
        out = tmp_path / "conv.json"
        code = cli.main(["converge", "--config", thermo_config,
                         "--path", bond_path, "--n-list", "4",
                         "--resolution", "128", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["monotone"] is None

    def test_degenerate_pair_skips_thermo(self, thermo_config, tmp_path):
        # down and back up one row: the path arguments xi_1 and xi_1 - 1 are
        # a {xi~, xi~ - eta~} pair the multiple integral refuses, while the
        # finite side falls back to the dense route
        doc = {"vertices": [[1, 1], [2, 1], [1, 1]], "heights": [0, 1, 0]}
        path = tmp_path / "back.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "conv.json"
        code = cli.main(["converge", "--config", thermo_config,
                         "--path", str(path), "--n-list", "4,6",
                         "--resolution", "128", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "{xi~, xi~ - eta~}" in doc["thermo_skipped"]
        assert doc["thermo_value"] is None and doc["monotone"] is None
        assert [r["N"] for r in doc["rows"]] == [4, 6]
        for row in doc["rows"]:
            assert row["deviation"] is None
            assert np.isfinite(complex(row["value_re"], row["value_im"]))
