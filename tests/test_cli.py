"""Batch front end: exit codes, determinism, and table contracts."""

import json

import numpy as np
import pytest

from csoslab import cli
from csoslab.elliptic import AccuracyError, PoleError


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
    def test_elliptic_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["identities", "elliptic", "--draws", "25",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] and doc["max_residual"] < 1e-10

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

    def test_unknown_suite_exit_config(self):
        assert cli.main(["identities", "nonsense"]) == cli.EXIT_CONFIG

    def test_failing_tolerance_exit_numerical(self, tmp_path):
        code = cli.main(["identities", "elliptic", "--draws", "5",
                         "--tolerance", "1e-30",
                         "--out", str(tmp_path / "r.json")])
        assert code == cli.EXIT_NUMERICAL


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
        def pole(*args, **kwargs):
            raise PoleError("contour pole")

        monkeypatch.setattr(cli.thermo, "multipoint_lhp", pole)
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", "finite", "--config", thermo_config,
                         "--path", point_path, "--out", str(out)])
        assert code == cli.EXIT_OK
        records = json.loads(out.read_text())["records"]
        assert all(r["deviation_from_thermo"] is None
                   and r["thermo_skipped"] == "contour pole" for r in records)

    @pytest.mark.parametrize("mode", ["lhp", "converge"])
    def test_thermo_failure_not_swallowed(self, thermo_config, point_path,
                                          tmp_path, monkeypatch, mode):
        # only degenerate configurations skip the thermodynamic value; a
        # numerical failure ends the run with exit 1 and writes nothing
        def fail(*args, **kwargs):
            raise AccuracyError("quadrature did not converge")

        monkeypatch.setattr(cli.thermo, "multipoint_lhp", fail)
        out = tmp_path / "report.json"
        argv = (["lhp", "--mode", "finite"] if mode == "lhp"
                else ["converge", "--n-list", "4"])
        code = cli.main(argv + ["--config", thermo_config, "--path",
                                point_path, "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert not out.exists()

    def test_coinciding_path_arguments_refused(self, thermo_config,
                                               tmp_path):
        # an m = 2 path on a homogeneous column has z_1 = z_2: the integrand
        # is singular there, so the table must fail instead of holding NaN
        doc = {"vertices": [[1, 1], [2, 1], [3, 1]], "heights": [0, 1, 2]}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "table.json"
        code = cli.main(["lhp", "--mode", "thermo", "--config", thermo_config,
                         "--path", str(path), "--tolerance", "1e-8",
                         "--out", str(out)])
        assert code != cli.EXIT_OK
        assert not out.exists() or "NaN" not in out.read_text()

    def test_non_finite_values_not_emitted(self, tmp_path):
        from csoslab.elliptic import AccuracyError
        out = tmp_path / "r.json"
        with pytest.raises(AccuracyError):
            cli._emit({"value": float("nan")}, str(out))
        with pytest.raises(AccuracyError):
            cli._emit_csv([[0, float("inf")]], ["a", "b"], str(out))
        assert not out.exists()

    def test_malformed_config_exit_2(self, tmp_path, point_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a config\n")
        assert cli.main(["lhp", "--config", str(bad),
                         "--path", point_path]) == cli.EXIT_CONFIG


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

    def test_single_n_no_claim(self, thermo_config, bond_path, tmp_path):
        out = tmp_path / "conv.json"
        code = cli.main(["converge", "--config", thermo_config,
                         "--path", bond_path, "--n-list", "4",
                         "--resolution", "128", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["monotone"] is None
