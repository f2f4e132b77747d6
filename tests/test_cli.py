"""End-to-end tests for the benchmark command line."""
import csv
import dataclasses
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from laneps import cli
from laneps.basis import BasisConfig, RootFindingError, standard_nodeset
from laneps.cli import main
from laneps.config import load_config
from laneps.registry import RegistryError, all_examples
from laneps.solver import NonlinearSolveError

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "src" / "laneps" / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExample:
    def test_report_contents(self, capsys):
        code, out, err = run(capsys, "example", "1", "--n", "5", "--alpha", "0.1")
        assert code == 0 and err == ""
        assert "kind=linear" in out
        assert "mae = " in out and "ae_b = " in out
        assert "kappa_inf = " in out
        assert "newton_iters" not in out  # linear solve has no iteration count

    def test_nonlinear_report_swaps_diagnostics(self, capsys):
        code, out, _ = run(capsys, "example", "2", "--n", "6", "--alpha", "0.8")
        assert code == 0
        assert "newton_iters = " in out
        assert "kappa_inf" not in out

    def test_runs_are_bit_identical(self, capsys):
        _, first, _ = run(capsys, "example", "1", "--n", "5", "--alpha", "0.1")
        _, second, _ = run(capsys, "example", "1", "--n", "5", "--alpha", "0.1")
        assert first == second

    def test_csv_round_trip(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, _, _ = run(capsys, "example", "1", "--n", "5", "--alpha", "0.1",
                         "--csv", str(path))
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw  # LF line endings
        rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
        assert len(rows) == 50
        recomputed = max(float(r["abs_error"]) for r in rows)
        assert recomputed == float(rows[0]["mae"])  # .17g round-trips exactly
        assert rows[-1]["x"] == "1" and rows[-1]["rel_is_abs"] == "1"
        assert all(r["newton_iters"] == "" for r in rows)

    def test_invalid_basis_parameter_fails_cleanly(self, capsys):
        code, _, err = run(capsys, "example", "1", "--n", "5", "--alpha", "-0.6")
        assert code == 1
        assert "error:" in err

    def test_nonconvergence_exits_nonzero_without_warning(self, capsys):
        # A one-node scheme for example 4 has no solution; trial steps
        # overflow exp on the way, and no RuntimeWarning may leak.
        code, out, err = run(capsys, "example", "4", "--n", "1", "--alpha", "0")
        assert code == 1 and out == ""
        assert "error: line search stalled" in err

    def test_degree_below_one_is_an_error(self, capsys):
        code, out, err = run(capsys, "example", "1", "--n", "0", "--alpha", "0.5")
        assert code == 1 and out == ""
        assert "n must be at least 1" in err
        code, _, _ = run(capsys, "nodes", "--n", "0", "--alpha", "0.5", "--b", "1")
        assert code == 0  # a one-node rule is still a valid quadrature dump

    def test_negative_degree_gets_the_same_message(self, capsys):
        code, out, err = run(capsys, "example", "1", "--n", "-1", "--alpha", "0.5")
        assert code == 1 and out == ""
        assert err == "error: n must be at least 1, got -1\n"


class TestRuleBeyondDoubles:
    @pytest.mark.parametrize("command", ["example", "nodes"])
    @pytest.mark.parametrize("alpha", ["1000", "1e50", "1e150"])
    def test_is_a_typed_error(self, capsys, command, alpha):
        """A rule that doubles cannot hold exits 1 with an error line, not a traceback."""
        head = ["example", "2"] if command == "example" else ["nodes", "--b", "1"]
        n = "300" if alpha == "1000" else "8"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *head, "--n", n, "--alpha", alpha)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestNodes:
    def test_dump_shape_and_endpoint(self, capsys):
        code, out, _ = run(capsys, "nodes", "--n", "4", "--alpha", "0.5", "--b", "1.5")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "index,node,weight"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 1.5
        assert all(float(line.split(",")[2]) > 0.0 for line in lines[1:])

    @pytest.mark.parametrize("b", ["nan", "inf"])
    def test_non_finite_length_is_an_error(self, capsys, b):
        code, out, err = run(capsys, "nodes", "--n", "2", "--alpha", "0.5", "--b", b)
        assert code == 1
        assert out == ""
        assert "b must be finite" in err

    @pytest.mark.parametrize("b", [1.0, 1.5, 2.0])
    def test_dump_is_the_standard_rule_mapped_onto_b(self, capsys, b):
        """Nodes (b/2)(x + 1) and weights (b/2)^(2 alpha) w of the standard rule, bit for bit."""
        ns = standard_nodeset(BasisConfig(0.7, 6))
        nodes, weights = self._dump(capsys, 6, 0.7, b)
        assert nodes[0] == b and np.all(nodes[1:] > 0.0)
        assert np.array_equal(nodes, (b / 2.0) * (ns.nodes + 1.0))
        assert np.array_equal(weights, (b / 2.0) ** (2.0 * 0.7) * ns.weights)

    def test_b_two_is_a_pure_translation(self, capsys):
        ns = standard_nodeset(BasisConfig(1.1, 8))
        nodes, weights = self._dump(capsys, 8, 1.1, 2.0)
        assert np.array_equal(nodes, ns.nodes + 1.0)
        assert np.array_equal(weights, ns.weights)

    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_length_that_is_not_positive_is_an_error(self, capsys, b):
        code, out, err = run(capsys, "nodes", "--n", "2", "--alpha", "0.5", "--b", repr(b))
        assert code == 1
        assert out == ""
        assert err == f"error: interval length must be positive, got {b}\n"

    @pytest.mark.parametrize("b", ["1e300", "1e-300"])
    def test_weights_beyond_the_double_range_are_an_error(self, capsys, b):
        """(b/2)^(2 alpha) w overflows at b = 1e300 and underflows to 0 at b = 1e-300."""
        code, out, err = run(capsys, "nodes", "--n", "4", "--alpha", "20", "--b", b)
        assert code == 1
        assert out == ""
        assert err == f"error: the weights on [0, {float(b)!r}] leave the double range\n"

    @staticmethod
    def _dump(capsys, n, alpha, b):
        code, out, _ = run(capsys, "nodes", "--n", str(n), "--alpha", repr(alpha), "--b", repr(b))
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        return (np.array([float(row["node"]) for row in rows]),
                np.array([float(row["weight"]) for row in rows]))

    def test_dump_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "nodes", "--n", "12", "--alpha", "-0.4", "--b", "2")
        _, second, _ = run(capsys, "nodes", "--n", "12", "--alpha", "-0.4", "--b", "2")
        assert first == second


class TestSweep:
    def test_grid_rows_sorted_and_complete(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "1", "--n", "8,4,8",
                           "--alpha-range", "-0.4:0.2:0.2", "--csv", str(path))
        assert code == 0
        assert "8 rows" in out  # the repeated degree is swept once
        rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
        keys = [(int(r["n"]), float(r["alpha"])) for r in rows]
        assert keys == sorted(set(keys))
        assert {r["status"] for r in rows} == {"ok"}
        assert all(float(r["mae"]) < 1e-3 for r in rows)
        assert all(float(r["runtime_ms"]) >= 0.0 for r in rows)
        assert all(r["newton_iters"] == "" for r in rows)  # linear problem

    def test_nonlinear_grid_reports_iterations_not_condition(self, capsys, tmp_path):
        path = tmp_path / "sweep2.csv"
        code, _, _ = run(capsys, "sweep", "2", "--n", "4",
                         "--alpha-range", "0.8:0.1:0.9", "--csv", str(path))
        assert code == 0
        rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
        assert all(r["kappa_inf"] == "" for r in rows)
        assert all(int(r["newton_iters"]) >= 1 for r in rows)

    def test_default_grid(self, capsys, tmp_path):
        path = tmp_path / "default.csv"
        code, out, _ = run(capsys, "sweep", "1", "--csv", str(path))
        assert code == 0 and "150 rows" in out
        rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
        assert {int(r["n"]) for r in rows} == {4, 8, 16, 32, 64, 128}
        alphas = sorted({float(r["alpha"]) for r in rows})
        assert len(alphas) == 25 and alphas[0] == -0.4 and alphas[-1] == 2.0
        assert {r["status"] for r in rows} == {"ok"}

    def test_malformed_range_is_an_error(self, capsys, tmp_path):
        # too few fields, an empty range (start > stop), a non-finite step, a
        # zero step, and two ranges whose value count overflows to -inf and +inf
        for text in ("0.5:0.1", "2:0.1:1", "0:nan:1", "0:0:1", "1e308:1e-308:-1e308",
                     "0:1e-300:1e300"):
            path = tmp_path / "x.csv"
            code, _, err = run(capsys, "sweep", "1", "--n", "4",
                               "--alpha-range", text, "--csv", str(path))
            assert code == 1
            assert "error:" in err and "alpha range" in err
            assert not path.exists()

    def test_oversized_range_fails_at_once(self, tmp_path):
        # About 1e12 values.  The address-space cap turns a regression that
        # builds the list into a MemoryError instead of a full machine.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        path = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "laneps", "sweep", "1", "--alpha-range", "0:1e-12:1",
             "--csv", str(path)],
            capture_output=True, text=True, check=False, timeout=60,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 1
        assert "alpha range '0:1e-12:1' holds more than 10000 values" in proc.stderr
        assert not path.exists()

    @pytest.mark.parametrize("error", [NonlinearSolveError, RootFindingError,
                                       np.linalg.LinAlgError])
    def test_a_failed_cell_is_recorded_and_the_sweep_continues(self, capsys, tmp_path,
                                                               monkeypatch, error):
        solve_problem = cli.solve_problem

        def failing_at_one_cell(spec, n, alpha):
            if (n, alpha) == (8, 0.5):
                raise error("a, b\nc")
            return solve_problem(spec, n, alpha)

        monkeypatch.setattr(cli, "solve_problem", failing_at_one_cell)
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "4", "--n", "4,8", "--alpha-range", "0:0.5:1",
                           "--csv", str(path))
        assert code == 0 and "wrote 6 rows" in out
        rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 6
        failed = [r for r in rows if (r["n"], r["alpha"]) == ("8", "0.5")]
        assert len(failed) == 1
        assert failed[0]["status"] == "a; b c"
        assert all(failed[0][key] == "" for key in ("mae", "ae_b", "kappa_inf", "newton_iters"))
        assert all(r["status"] == "ok" for r in rows if r is not failed[0])

    @pytest.mark.parametrize("degrees, message", [
        ("4,x", "bad degree list '4,x'"),
        (",", "degree list is empty"),
    ])
    def test_malformed_degree_list_is_an_error(self, capsys, tmp_path, degrees, message):
        path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "1", "--n", degrees, "--csv", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: " + message)
        assert not path.exists()

    def test_degree_below_one_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "1", "--n", "4,0", "--csv", str(path))
        assert code == 1
        assert "n must be at least 1" in err
        assert not path.exists()

    def test_negative_degree_gets_the_same_message(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "1", "--n=-1,4", "--csv", str(path))
        assert code == 1
        assert err == "error: n must be at least 1, got -1\n"
        assert not path.exists()


class TestSolve:
    def test_registry_and_config_paths_agree_byte_for_byte(self, capsys):
        _, via_registry, _ = run(capsys, "example", "3", "--n", "6", "--alpha", "-0.2")
        _, via_config, _ = run(capsys, "solve", "--config",
                               str(CONFIGS / "example3.cfg"))
        assert via_registry == via_config

    @pytest.mark.parametrize("ex_id", [2, 4, 5])
    def test_nonlinear_config_matches_the_example_at_its_settings(self, capsys, ex_id):
        """One file feeds both paths: same nodes, MAE and report, bit for bit."""
        cfg = load_config(CONFIGS / f"example{ex_id}.cfg")
        _, via_registry, _ = run(capsys, "example", str(ex_id), "--n", str(cfg.n),
                                 "--alpha", repr(cfg.alpha))
        code, via_config, _ = run(capsys, "solve", "--config",
                                  str(CONFIGS / f"example{ex_id}.cfg"))
        assert code == 0 and "mae = " in via_config
        assert via_registry == via_config

    @pytest.mark.parametrize("source", ["x", "3"])
    def test_nonlinear_config_with_a_y_free_source_solves(self, capsys, tmp_path, source):
        # f_y is an exact zero here; the solve is one Newton step.
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(
            "kind = nonlinear\nalpha1 = 0\nalpha2 = 1\nbeta = 1\ngamma = 0\n"
            f"delta = 0\nb = 1\nf = {source}\nn = 6\nalpha = 0.5\neval_points = 5\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 0 and err == ""
        assert "newton_iters = 1" in out

    def test_config_without_exact_solution_reports_values_only(self, capsys, tmp_path):
        cfg = tmp_path / "plain.cfg"
        cfg.write_text(
            "kind = linear\nalpha1 = 0\nalpha2 = 1\nbeta = 1\ngamma = 0\n"
            "delta = 0\nb = 1\np = 0\ng = 2*x\nn = 6\nalpha = 0.5\n"
            "eval_points = 5\n",
            encoding="utf-8",
        )
        path = tmp_path / "plain.csv"
        code, out, _ = run(capsys, "solve", "--config", str(cfg), "--csv", str(path))
        assert code == 0
        assert "y_approx" in out
        assert "mae" not in out
        rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 5
        blank = ("y_exact", "abs_error", "rel_error", "rel_is_abs", "mae", "ae_b")
        assert all(r[key] == "" for r in rows for key in blank)
        assert all(r["x"] and r["y_approx"] and r["kappa_inf"] for r in rows)

    def test_parse_error_exits_with_diagnostics(self, capsys, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(
            "kind = linear\nalpha1 = 0\nalpha2 = 1\nbeta = 1\ngamma = 0\n"
            "delta = 0\nb = 1\np = 0\ng = sin(\nn = 6\nalpha = 0.5\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "column" in err

    def test_line_without_equals_sign_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "no_equals.cfg"
        cfg.write_text("kind = linear\nalpha1 0\n", encoding="utf-8")
        code, out, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: line 2: expected 'key = value', got 'alpha1 0'\n"

    def test_missing_file_exits_nonzero(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "error:" in err

    def test_spec_check_failure_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "no_condition.cfg"
        cfg.write_text(
            "kind = linear\nalpha1 = 0\nalpha2 = 1\nbeta = 0\ngamma = 0\n"
            "delta = 0\nb = 1\np = 0\ng = 2*x\nn = 6\nalpha = 0.5\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == "error: beta and gamma cannot both vanish\n"

    def test_singular_linear_system_exits_1(self, capsys, tmp_path):
        # p = 0 with beta = 0 leaves y(0) free, and y'(1) = -2 contradicts
        # y'' + 2y'/x = 6, whose regular solutions all have y'(1) = 2.
        cfg = tmp_path / "singular.cfg"
        cfg.write_text(
            "kind = linear\nalpha1 = 0\nalpha2 = 2\nbeta = 0\ngamma = 1\n"
            "delta = -2\nb = 1\np = 0\ng = 6\nn = 16\nalpha = 0.5\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == "error: Singular matrix\n"

    def test_nonconvergent_solve_exits_nonzero(self, capsys, tmp_path):
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(
            "kind = nonlinear\nalpha1 = 0\nalpha2 = 1\nbeta = 1\ngamma = 0\n"
            "delta = 0\nb = 1\nf = exp(60*y) - 1000000\nn = 8\nalpha = 0.5\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 1
        assert "error:" in err


#: A printed comparison row: label, measured value, stored value.
_COMPARED_ROW = re.compile(r"^ *(\d\.\d{3}|AE at b|MAE) +(\S+) +(\S+)$", re.MULTILINE)


class TestCheck:
    def test_full_reference_battery_passes(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        assert "all checks passed" in out
        assert out.count(": ok") >= 12
        assert "FAIL" not in out

    def test_prints_every_compared_value_before_its_verdict(self, capsys):
        """53 per-point relative errors and 6 errors at b from the stored tables,
        and 7 lattice MAEs, each next to its stored value."""
        _, out, _ = run(capsys, "check")
        rows = _COMPARED_ROW.findall(out)
        labels = [label for label, _, _ in rows]
        assert len(rows) - labels.count("AE at b") - labels.count("MAE") == 53
        assert labels.count("AE at b") == 6 and labels.count("MAE") == 7
        stored = [float(value) for case in all_examples() for table in case.reference_tables
                  for value in table.relative_errors + (table.endpoint_abs_error,)]
        stored += [ref.mae for case in all_examples() for ref in case.reference_maes]
        assert sorted(float(value) for _, _, value in rows) == sorted(
            float(format(value, ".4e")) for value in stored)
        lines = out.splitlines()
        verdicts = [i for i, line in enumerate(lines) if line.startswith("reference example")]
        assert len(verdicts) == 13
        assert all(_COMPARED_ROW.match(lines[i - 1]) for i in verdicts)

    def test_registry_failure_exits_1(self, capsys, monkeypatch):
        def broken():
            raise RegistryError("case 1: ODE residual 1 exceeds 1e-10")

        monkeypatch.setattr(cli, "all_examples", broken)
        code, out, _ = run(capsys, "check")
        assert code == 1
        assert out == "registry self-check: FAIL (case 1: ODE residual 1 exceeds 1e-10)\n"

    def test_a_stored_value_1000_times_smaller_fails(self, capsys, monkeypatch):
        cases = list(all_examples())
        table = cases[0].reference_tables[0]
        errors = list(table.relative_errors)
        errors[3] /= 1000.0
        cases[0] = dataclasses.replace(cases[0], reference_tables=(
            dataclasses.replace(table, relative_errors=tuple(errors)),
        ) + cases[0].reference_tables[1:])
        monkeypatch.setattr(cli, "all_examples", lambda: tuple(cases))
        code, out, _ = run(capsys, "check")
        assert code == 1
        failed = [line for line in out.splitlines() if line.endswith(": FAIL")]
        assert failed == ["reference example 1 (n=5, alpha=0.1): 11 points + endpoint, "
                          "worst measured/limit 100: FAIL"]
        assert out.endswith("1 check(s) failed\n")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "laneps", "nodes", "--n", "2",
             "--alpha", "0.5", "--b", "1"],
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("index,node,weight")
