"""CLI plumbing tests: spec loading, one in-process run per subcommand,
exit codes, output formats, and byte-identical reruns."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bconv import algebraic, cli
from bconv.cli import dispatch, load_system_spec

DATA = Path(__file__).parent / "data"
GOLDEN_SPEC = DATA / "golden-1d.json"
THIRD_SPEC = DATA / "third-1d.json"
PAIR_CSV = DATA / "pair.csv"
SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# several fixtures put atoms exactly on dyadic cell boundaries; the nudge
# warning is exercised on purpose in the entropy tests, not here
pytestmark = pytest.mark.filterwarnings("ignore::bconv.errors.BoundaryHazardWarning")


def _perfbench_inputs():
    """The benchmark's input module, perfbench/inputs.py."""
    found = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(found)
    found.loader.exec_module(inputs)
    return inputs


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = dispatch([*argv, "--out", str(out)])
    assert code == 0, argv
    return json.loads(out.read_bytes())


class TestLoadSystemSpec:
    def test_golden_fixture_loads(self):
        s = load_system_spec(GOLDEN_SPEC)
        assert s.dim == 1
        assert s.translations == ((1,), (-1,))
        assert s.probs == (0.5, 0.5)
        assert s.minpolys is not None and s.minpolys[0].coeffs == (-1, 1, 1)

    def test_minpolys_optional(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"lambda": [0.5], "maps": [{"a": [1], "p": 0.5}, {"a": [-1], "p": 0.5}]}')
        assert load_system_spec(p).minpolys is None

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="malformed system spec"):
            load_system_spec(p)

    def test_non_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_system_spec(p)

    def test_missing_keys(self, tmp_path):
        p = tmp_path / "k.json"
        p.write_text('{"lambda": [0.5]}')
        with pytest.raises(ValueError, match="'lambda' and 'maps'"):
            load_system_spec(p)

    def test_empty_lambda(self, tmp_path):
        p = tmp_path / "l.json"
        p.write_text('{"lambda": [], "maps": [{"a": [1], "p": 0.5}, {"a": [0], "p": 0.5}]}')
        with pytest.raises(ValueError, match="nonempty"):
            load_system_spec(p)

    def test_too_few_maps(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"lambda": [0.5], "maps": [{"a": [1], "p": 1.0}]}')
        with pytest.raises(ValueError, match="at least two"):
            load_system_spec(p)

    def test_map_missing_fields(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text('{"lambda": [0.5], "maps": [{"a": [1]}, {"a": [0], "p": 0.5}]}')
        with pytest.raises(ValueError, match="'a' and 'p'"):
            load_system_spec(p)


class TestSubcommands:
    def test_dim(self, tmp_path):
        got = run_json(["dim", "--spec", str(THIRD_SPEC), "--n", "8"], tmp_path)
        assert got["rows"][0]["n"] == 8
        assert got["rows"][0]["kappa"] == pytest.approx(1.0, abs=1e-12)
        assert got["rows"][0]["dim_estimate"] == pytest.approx(0.6309297535714574, abs=1e-9)
        assert got["lyapunov"] == pytest.approx(0.6309297535714574, abs=1e-9)
        assert got["gamma"] == got["lyapunov"]
        assert got["m"] == 0

    def test_entropy(self, tmp_path):
        got = run_json(
            ["entropy", "--measure", str(PAIR_CSV), "--lam", "0.5", "--n", "1"], tmp_path
        )
        assert got["value"] == pytest.approx(1.0, abs=1e-12)
        assert got["method"] == "partition"

    def test_avg_entropy_exact(self, tmp_path):
        got = run_json(["avg-entropy", "--measure", str(PAIR_CSV), "--r", "1"], tmp_path)
        assert got["value"] == pytest.approx(1.0, abs=1e-12)
        assert got["method"] == "exact"
        assert got["error_bound"] <= 1e-9

    def test_avg_entropy_conditional(self, tmp_path):
        got = run_json(
            ["avg-entropy", "--measure", str(PAIR_CSV), "--r", "1", "--r2", "2"], tmp_path
        )
        assert got["value"] == pytest.approx(0.5, abs=1e-12)

    def test_rw_entropy(self, tmp_path):
        got = run_json(["rw-entropy", "--spec", str(GOLDEN_SPEC), "--n", "3..4"], tmp_path)
        assert [r["n"] for r in got["rows"]] == [3, 4]
        assert got["rows"][0]["value"] == pytest.approx(2.75 / 3, abs=1e-12)
        assert got["rows"][0]["distinct_maps"] == 7
        assert got["rows"][0]["arithmetic"] == "exact"
        assert got["rows"][0]["collision_note"] == "collision detected"
        assert got["rows"][1]["value"] == pytest.approx(0.875, abs=1e-12)

    def test_overlap(self, tmp_path):
        got = run_json(["overlap", "--spec", str(GOLDEN_SPEC), "--n", "5"], tmp_path)
        assert got["per_axis"] == [3]
        assert got["joint"] == 3
        # 2^25 words fit no budget, and from depth 90 on word-state entries
        # could pass 2^62, but the scan stops at depth 3
        for n in (25, 89, 90):
            got = run_json(["overlap", "--spec", str(GOLDEN_SPEC), "--n", str(n)], tmp_path)
            assert (got["joint"], got["n_max"]) == (3, n)

    def test_separation(self, tmp_path):
        got = run_json(["separation", "--spec", str(THIRD_SPEC), "--n", "3"], tmp_path)
        gaps = [r["gap"] for r in got["rows"]]
        assert gaps == pytest.approx([2.0, 2.0 / 3.0, 2.0 / 9.0], rel=1e-12)

    def test_nonsat(self, tmp_path):
        got = run_json(
            [
                "nonsat",
                "--measure",
                str(PAIR_CSV),
                "--lam",
                "0.5",
                "--eps",
                "0.1",
                "--m",
                "2",
                "--n",
                "1..3",
            ],
            tmp_path,
        )
        assert got["non_saturated"] is True
        assert all(r["value"] == 0.0 for r in got["rows"])
        assert len(got["rows"]) == 3

    def test_decompose(self, tmp_path):
        got = run_json(
            [
                "decompose",
                "--measure",
                str(PAIR_CSV),
                "--lam",
                "0.5",
                "--n",
                "0",
                "--N",
                "1",
                "--eps",
                "0.1",
            ],
            tmp_path,
        )
        assert got["paired_mass"] == pytest.approx(1.0, abs=1e-12)
        assert got["theta_mass"] == pytest.approx(0.0, abs=1e-12)
        assert got["method"] == "max-flow"
        assert len(got["rows"]) == 1
        assert got["rows"][0]["rescaled_distance"] == pytest.approx(4.0)
        assert got["rows"][0]["in_statement_window"] is True

    def test_increase(self, tmp_path):
        got = run_json(
            [
                "increase",
                "--measure",
                str(PAIR_CSV),
                "--measure2",
                str(PAIR_CSV),
                "--lam",
                "0.5",
                "--t1",
                "0",
                "--t2",
                "2",
            ],
            tmp_path,
        )
        assert got["gain"] >= -1e-12
        assert got["beta"] >= 0.0
        assert got["method"] == "exact"
        assert got["t1"] == 0.0 and got["t2"] == 2.0

    def test_tube(self, tmp_path):
        got = run_json(
            ["tube", "--lam", "0.5", "--x", "0", "--y", "1", "--k", "16", "--m", "3"],
            tmp_path,
        )
        assert got["rows"][0]["a"] == 2
        assert got["top_axis"] == 1
        assert got["k"] == 16

    def test_mahler(self, tmp_path):
        got = run_json(["mahler", "--poly", "-1,-1,1"], tmp_path)
        assert got["mahler"] == pytest.approx(1.618033988749895, abs=1e-7)
        assert got["method"] == "inclusion-disks"
        assert 0.0 <= got["error_bound"] <= 1e-9

    def test_poly_search(self, tmp_path):
        got = run_json(
            ["poly-search", "--xi", "0.7", "--n", "2", "--coeffs", "-1,0,1"], tmp_path
        )
        assert got["poly"] == [1, -1]
        assert got["value"] == 0.30000000000000004
        assert got["strategy"] == "meet-in-middle"

    def test_poly_search_strategies_agree_on_benchmark_xis(self, tmp_path):
        inputs = _perfbench_inputs()
        for xi in inputs.search_xis(300):
            argv = ["poly-search", "--xi", repr(xi), "--n", "11", "--coeffs", "-1,0,1"]
            reports = []
            for strategy in ("exhaustive", "meet-in-middle", "branch-and-bound"):
                got = run_json([*argv, "--strategy", strategy], tmp_path)
                assert got.pop("strategy") == strategy
                reports.append(got)
            assert reports[0] == reports[1] == reports[2], xi

    def test_approx_with_rw_bound(self, tmp_path):
        got = run_json(
            ["approx", "--spec", str(GOLDEN_SPEC), "--n", "3", "--rw-n", "6"], tmp_path
        )
        assert got["in_omega"] is True
        assert got["eta"][0] == pytest.approx(0.6180339887498949, abs=1e-12)
        assert got["rows"][0]["status"] == "ok"
        assert got["rows"][0]["distance"] == 0.0
        assert got["rw_entropy_upper"] == pytest.approx(0.8176065103715944, abs=1e-9)
        assert got["rw_n"] == 6

    def test_approx_eta_is_the_scanned_root(self, tmp_path):
        # the search finds -1 + x + x^4 - x^6; eta is its root at lambda,
        # not the root 1 of its factor x - 1
        lam = 0.8566748838545029
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"lambda": [lam], "maps": [{"a": [0], "p": 0.5}, {"a": [1], "p": 0.5}]}
        ))
        got = run_json(["approx", "--spec", str(spec), "--n", "7"], tmp_path)
        assert got["rows"][0]["poly"] == [-1, 1, 0, 0, 1, 0, -1]
        assert got["eta"] == [lam]
        assert got["in_omega"] is True

    def test_stdout_when_no_out(self, capsys):
        assert dispatch(["mahler", "--poly", "2"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["mahler"] == 2.0


class TestExitCodes:
    def test_missing_spec_file(self, capsys):
        code = dispatch(["dim", "--spec", "/nonexistent/spec.json", "--n", "3"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_spec_content(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"lambda": [0.5]}')
        assert dispatch(["dim", "--spec", str(p), "--n", "3"]) == 1
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # 1.5 was truncated to 1 and the run exited 0
            ("a", [1.5], "translation entries must be integers"),
            ("a", 1, "each 'a' must be a nonempty list of integers"),
            ("p", None, "each 'p' must be a number"),
            # NaN passed every check and rw-entropy printed "value": NaN
            ("p", float("nan"), "p entries must be positive"),
            ("lambda", [[0.6180339887498949]], "'lambda' must be a nonempty list of numbers"),
            ("minpolys", [5], "'minpolys' must be a list of nonempty integer lists"),
        ],
        ids=["a-1.5", "a-scalar", "p-null", "p-nan", "lambda-nested", "minpoly-scalar"],
    )
    def test_malformed_spec_field_is_exit_1(self, tmp_path, capsys, field, value, message):
        # the scalar a, null p, nested lambda and scalar minpoly escaped
        # dispatch as a TypeError traceback
        raw = json.loads(GOLDEN_SPEC.read_text())
        if field in ("a", "p"):
            raw["maps"][0][field] = value
        else:
            raw[field] = value
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(raw))
        assert dispatch(["dim", "--spec", str(p), "--n", "3"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_range(self, capsys):
        assert dispatch(["dim", "--spec", str(THIRD_SPEC), "--n", "5..3"]) == 1
        assert "range" in capsys.readouterr().err

    def test_budget_refusal_is_exit_2(self, capsys):
        code = dispatch(
            [
                "poly-search",
                "--xi",
                "0.7",
                "--n",
                "12",
                "--coeffs",
                "-1,0,1",
                "--strategy",
                "exhaustive",
                "--budget",
                "100",
            ]
        )
        assert code == 2
        assert "budget refused" in capsys.readouterr().err

    def test_budget_zero_is_refused(self, capsys):
        argv = ["poly-search", "--xi", "0.7", "--n", "12", "--coeffs", "-1,0,1"]
        assert dispatch([*argv, "--strategy", "exhaustive", "--budget", "0"]) == 2
        assert "budget refused" in capsys.readouterr().err

    def test_uncertified_mahler_is_an_error_line(self, capsys):
        # (1+x)^12: the 12-fold root -1 defeats every root enclosure
        argv = ["mahler", "--poly", "1,12,66,220,495,792,924,792,495,220,66,12,1"]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no root enclosure")
        assert "Traceback" not in err

    def test_other_arithmetic_errors_surface(self, monkeypatch):
        def divide(poly):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "mahler_measure", divide)
        with pytest.raises(ZeroDivisionError):
            dispatch(["mahler", "--poly", "1,1"])

    def test_rw_state_bound_refusal_is_exit_2(self, capsys, monkeypatch):
        # 2^40 exact word states: refused by the int64 bound before any
        # child rows are grouped
        def no_rows(columns):
            raise AssertionError("word states were enumerated")

        monkeypatch.setattr(algebraic, "_packed_code", no_rows)
        assert dispatch(["rw-entropy", "--spec", str(THIRD_SPEC), "--n", "40"]) == 2
        assert "2^62" in capsys.readouterr().err

    def test_rw_entropy_arithmetic_flag_is_gone(self, capsys):
        argv = ["rw-entropy", "--spec", str(GOLDEN_SPEC), "--n", "3", "--arithmetic", "float"]
        assert dispatch(argv) == 1
        assert "--arithmetic" in capsys.readouterr().err

    def test_rw_entropy_needs_minpolys(self, tmp_path, capsys):
        # dyadic lambda near the golden ratio, no minpolys: all 2^18 words are
        # distinct, so a float collision count would understate the bound
        p = tmp_path / "dyadic-golden.json"
        p.write_text(
            '{"lambda": [0.6180339887498949], '
            '"maps": [{"a": [1], "p": 0.5}, {"a": [-1], "p": 0.5}]}'
        )
        assert dispatch(["rw-entropy", "--spec", str(p), "--n", "18"]) == 1
        err = capsys.readouterr().err
        assert "minpolys" in err and "approx --rw-n" in err

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_approx_top_k_below_one_is_exit_1(self, top_k, capsys):
        argv = ["approx", "--spec", str(GOLDEN_SPEC), "--n", "3", "--top-k", top_k]
        assert dispatch(argv) == 1
        assert "top_k" in capsys.readouterr().err

    def test_reducible_minpoly_is_exit_1(self, tmp_path, capsys):
        # (x^2 + x - 1)(x - 3) vanishes at the golden lambda but is no minpoly
        p = tmp_path / "reducible-golden.json"
        p.write_text(
            '{"lambda": [0.6180339887498949], '
            '"maps": [{"a": [1], "p": 0.5}, {"a": [-1], "p": 0.5}], '
            '"minpolys": [[3, -4, -2, 1]]}'
        )
        assert dispatch(["overlap", "--spec", str(p), "--n", "10"]) == 1
        assert "reducible" in capsys.readouterr().err

    def test_low_degree_minpolys_never_import_sympy(self):
        code = (
            "import sys\n"
            "from bconv.cli import dispatch\n"
            "for cmd in ('rw-entropy', 'overlap', 'separation'):\n"
            f"    assert dispatch([cmd, '--spec', {str(GOLDEN_SPEC)!r}, '--n', '4']) == 0\n"
            "print('sympy' in sys.modules, file=sys.stderr)\n"
        )
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert res.stderr.strip().splitlines()[-1] == "False"

    def test_mahler_never_imports_mpmath_or_sympy(self):
        lehmer = "1,1,0,-1,-1,-1,-1,-1,0,1,1"
        deg40 = ",".join(["1", "-1", "0"] * 13 + ["1", "1"])
        code = (
            "import sys\n"
            "from bconv.cli import dispatch\n"
            f"for poly in ({lehmer!r}, {deg40!r}):\n"
            "    assert dispatch(['mahler', '--poly', poly]) == 0\n"
            "print('mpmath' in sys.modules, 'sympy' in sys.modules, file=sys.stderr)\n"
        )
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert res.stderr.strip().splitlines()[-1] == "False False"

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "--measure", str(PAIR_CSV), "--lam", "0.5"],
            ["overlap", "--spec", str(GOLDEN_SPEC)],
            ["separation", "--spec", str(GOLDEN_SPEC)],
            ["decompose", "--measure", str(PAIR_CSV), "--lam", "0.5", "--N", "1", "--eps", "0.1"],
            ["approx", "--spec", str(GOLDEN_SPEC)],
        ],
        ids=lambda argv: argv[0],
    )
    def test_single_valued_n_refuses_range(self, argv, capsys):
        assert dispatch([*argv, "--n", "3..5"]) == 1
        err = capsys.readouterr().err
        assert "--n takes one value" in err and "3..5" in err

    def test_dim_forwards_budget(self, capsys):
        assert dispatch(["dim", "--spec", str(THIRD_SPEC), "--n", "6", "--budget", "10"]) == 2
        assert "budget refused" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "--measure", str(PAIR_CSV), "--lam", "0.5", "--n", "1"],
            ["rw-entropy", "--spec", str(GOLDEN_SPEC), "--n", "3"],
            ["nonsat", "--measure", str(PAIR_CSV), "--lam", "0.5", "--eps", "0.1", "--m", "2",
             "--n", "1"],
            ["decompose", "--measure", str(PAIR_CSV), "--lam", "0.5", "--n", "0", "--N", "1",
             "--eps", "0.1"],
            ["tube", "--lam", "0.5", "--x", "0", "--y", "1", "--k", "16", "--m", "3"],
            ["mahler", "--poly", "1,1,1"],
            ["approx", "--spec", str(GOLDEN_SPEC), "--n", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_budget_rejected_where_unused(self, argv, capsys):
        assert dispatch([*argv, "--budget", "5"]) == 1
        assert "--budget" in capsys.readouterr().err

    def test_cell_budget_refusal(self, capsys):
        # r = 1 would degenerate to one offset cell; 0.37 forces three
        code = dispatch(
            ["avg-entropy", "--measure", str(PAIR_CSV), "--r", "0.37", "--budget", "1"]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "cmd",
        [
            ["avg-entropy", "--measure", str(PAIR_CSV), "--r", "0.3"],
            ["increase", "--measure", str(PAIR_CSV), "--measure2", str(PAIR_CSV), "--lam", "0.5",
             "--t1", "1", "--t2", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--offsets", "16", "--seed", "3"], "--offsets, --seed"),
            (["--quad", "exact", "--seed", "3"], "--seed"),
            (["--quad", "qmc", "--budget", "1"], "--budget"),
        ],
    )
    def test_quad_flags_rejected_where_unused(self, cmd, flags, named, capsys):
        # exact quadrature draws no offsets; qmc has no cell grid to budget
        assert dispatch([*cmd, *flags]) == 1
        assert named in capsys.readouterr().err

    def test_single_qmc_offset_is_exit_1(self, capsys):
        # one offset leaves the block error estimate undefined
        argv = ["avg-entropy", "--measure", str(PAIR_CSV), "--r", "0.1", "--quad", "qmc"]
        assert dispatch([*argv, "--offsets", "1"]) == 1
        out = capsys.readouterr()
        assert "two offsets" in out.err and out.out == ""

    def test_qmc_dimension_33_is_exit_1(self, tmp_path, capsys):
        # the Sobol direction numbers are tabulated for 32 axes
        csv = tmp_path / "d33.csv"
        header = ",".join(f"x{j}" for j in range(1, 34))
        csv.write_text(f"{header},w\n" + ",".join(["0.0"] * 33) + ",0.5\n" + ",".join(["0.3"] * 33) + ",0.5\n")
        argv = ["avg-entropy", "--measure", str(csv), "--r", "1.0", "--quad", "qmc", "--offsets", "16"]
        assert dispatch(argv) == 1
        assert "dimension <= 32" in capsys.readouterr().err

    def test_cell_budget_flag_is_gone(self, capsys):
        argv = ["avg-entropy", "--measure", str(PAIR_CSV), "--r", "0.37", "--cell-budget", "1"]
        assert dispatch(argv) == 1
        assert "--cell-budget" in capsys.readouterr().err

    def test_key_precision_refusal_is_exit_1(self, capsys):
        # level 60 scales the atom at 1.0 to 2^60, past the 2^52 key limit
        argv = ["entropy", "--measure", str(PAIR_CSV), "--lam", "0.5", "--n", "60"]
        assert dispatch(argv) == 1
        assert "2^52" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_nonsat_non_finite_eps_is_exit_1(self, eps, tmp_path, capsys):
        # NaN passed an eps <= 0 test and printed NaN margins as invalid JSON
        out = tmp_path / "out.json"
        argv = ["nonsat", "--measure", str(PAIR_CSV), "--lam", "0.5", "--eps", eps, "--m", "2",
                "--n", "1", "--out", str(out)]
        assert dispatch(argv) == 1
        assert "eps must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["exhaustive", "meet-in-middle", "branch-and-bound"])
    def test_search_overflow_is_exit_1(self, strategy, capsys):
        argv = ["poly-search", "--xi", "1e200", "--n", "4", "--coeffs", "-1,0,1"]
        assert dispatch([*argv, "--strategy", strategy]) == 1
        assert "overflows" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_is_success(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "subcommand" not in capsys.readouterr().err


class TestDeterminism:
    def test_qmc_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "avg-entropy",
            "--measure",
            str(PAIR_CSV),
            "--r",
            "0.37",
            "--quad",
            "qmc",
            "--seed",
            "9",
            "--offsets",
            "128",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert dispatch([*argv, "--out", str(a)]) == 0
        assert dispatch([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_bytes())["method"] == "qmc"

    def test_exact_rerun_is_byte_identical(self, tmp_path):
        argv = ["rw-entropy", "--spec", str(GOLDEN_SPEC), "--n", "3..6"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert dispatch([*argv, "--out", str(a)]) == 0
        assert dispatch([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCsvFormat:
    def test_scalar_payload_csv(self, tmp_path):
        out = tmp_path / "o.csv"
        code = dispatch(
            [
                "poly-search",
                "--xi",
                "0.7",
                "--n",
                "2",
                "--coeffs",
                "-1,0,1",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "abs_value,poly,strategy,value"
        assert lines[1].split(",")[1] == '"1 -1"'
        assert len(lines) == 2

    def test_row_payload_csv(self, tmp_path):
        out = tmp_path / "sep.csv"
        code = dispatch(
            ["separation", "--spec", str(THIRD_SPEC), "--n", "3", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,axis,gap,gap_rate"
        assert len(lines) == 4
        assert lines[1].startswith("1,1,2.0,")


class TestConsoleScript:
    def test_installed_entry_point(self):
        res = subprocess.run(
            ["bconv", "mahler", "--poly=-1,-1,1"], capture_output=True, text=True
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["mahler"] == pytest.approx(1.618033988749895, abs=1e-7)


@pytest.fixture(scope="module")
def words_ops(tmp_path_factory):
    """The benchmark's words ops at seed 300 by id, with their inputs
    (among them the 177,147-row level-11 tri2d CSV) written once."""
    ops, _, _ = _perfbench_inputs().build("words", 300, tmp_path_factory.mktemp("words"))
    return {op["id"]: op["argv"] for op in ops}


class TestPinnedReports:
    def test_separation_tri2d_matches_pinned_report(self, tmp_path):
        # the benchmark's pinned report, checked here without a benchmark run
        inputs = _perfbench_inputs()
        path = tmp_path / "tri2d.json"
        path.write_text(json.dumps(inputs.SPECS["tri2d"]))
        got = run_json(["separation", "--spec", str(path), "--n", "10"], tmp_path)
        pinned = json.loads((PERFBENCH / "pinned.json").read_text())
        assert got == pinned["separation-tri2d"]

    @pytest.mark.parametrize("op_id", ["nonsat-tri2d", "tube", "dim-third"])
    def test_words_op_matches_pinned_report(self, op_id, words_ops, tmp_path):
        out = tmp_path / "out.json"
        assert dispatch([str(out) if a == "{out}" else a for a in words_ops[op_id]]) == 0
        pinned = json.loads((PERFBENCH / "pinned.json").read_text())
        assert json.loads(out.read_bytes()) == pinned[op_id]
