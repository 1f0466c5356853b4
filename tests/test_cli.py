import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import araki_mi
from araki_mi import audits, fermion, rand
from araki_mi.cli import build_parser, main
from araki_mi.fermion import IntervalConfig, mi_convergence
from araki_mi.report import AuditReport, canonical_json, csv_lines


class NoSpawn:
    def __init__(self, seed):
        pass

    def spawn(self, n):
        pytest.fail("spawned RNG streams despite a request limit")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_usage_error(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("argv", [
    ("mi", "--input", "{dir}"),
    ("mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "16", "-o", "{dir}"),
    ("embed", "--input", "{dir}"),
])
def test_directory_path_usage_error(capsys, tmp_path, argv):
    # exit 1 is reserved for audited violations; an unreadable or unwritable path is a usage error
    assert_usage_error(capsys, *(arg.format(dir=tmp_path) for arg in argv))


@pytest.mark.parametrize("argv", [
    ("tau-audit", "--trials", "x"),
    ("converge", "--intervals", "[[0,1],[2,3]]", "--resolutions", "-8,16"),   # read as a missing value
    ("mi", "--intervals", "[[0,1],[2,3]]", "--bogus", "1"),
    ("fan-audit", "--format", "xml"),
    (),
])
def test_argparse_errors_write_json_diagnostic(capsys, argv):
    assert_usage_error(capsys, *argv)


def test_unwritable_output_refused_before_the_work(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(fermion, "resolution_study", lambda *args: pytest.fail("the study ran"))
    assert_usage_error(capsys, "converge", "--intervals", "[[0,1],[2,3]]", "-o", str(tmp_path))


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    # any exception outside the usage and numerical families exits 3, never through Python's exit 1
    def broken(*args):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(fermion, "resolution_study", broken)
    code, out, err = run(capsys, "converge", "--intervals", "[[0,1],[2,3]]")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "internal", "detail": "TypeError: unsupported operand type(s)"}


def test_output_file_replaced(capsys, tmp_path):
    target = tmp_path / "out.json"
    target.write_text("x" * 10_000)
    assert main(["embed", "--gram", "[[2]]", "-o", str(target)]) == 0
    assert main(["embed", "--gram", "[[2]]"]) == 0
    assert target.read_text() == capsys.readouterr().out.rstrip("\n")


class TestSharedParser:
    MI = ["mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "16"]
    SEQUENCES = {
        "usage-error-then-mi": [["mi", "--resolution", "abc"], MI],
        "file-then-stdout": [MI + ["-o", "{out}"], MI],
        "csv-then-json": [MI + ["--format", "csv"], MI],
    }

    @pytest.mark.parametrize("name", list(SEQUENCES))
    def test_consecutive_calls_equal_single_calls(self, capsys, tmp_path, name):
        target = tmp_path / "out.txt"

        def call(argv):
            code = main(argv)
            captured = capsys.readouterr()
            written = target.read_bytes() if "-o" in argv else None
            return code, captured.out, captured.err, written

        argvs = [[arg.format(out=target) for arg in argv] for argv in self.SEQUENCES[name]]
        singles = []
        for argv in argvs:
            build_parser.cache_clear()      # a fresh parser, as in a new process
            singles.append(call(argv))
        build_parser.cache_clear()
        assert [call(argv) for argv in argvs] == singles
        assert build_parser.cache_info().misses == 1
        assert [code for code, *_ in singles] == ([2, 0] if name.startswith("usage") else [0, 0])


class TestMICommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "16")
        assert code == 0
        payload = json.loads(out)
        assert payload["mi_nats"] > 0
        assert len(payload["series"]) == 4

    def test_csv_series(self, capsys):
        code, out, _ = run(capsys, "mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "16",
                           "--fractions", "0.25,0.5,0.75,1.0", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "window,value"
        assert len(lines) == 5

    def test_deterministic_bytes(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "16", "-o", str(f1)]) == 0
        assert main(["mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "16", "-o", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_bad_intervals_usage_error(self, capsys):
        code, _, err = run(capsys, "mi", "--intervals", "[[0,1],[0.5,2]]")
        assert code == 2
        assert "usage" in err

    def test_non_list_intervals_usage_error(self, capsys):
        assert_usage_error(capsys, "mi", "--intervals", "5")

    def test_infinite_endpoint_usage_error(self, capsys):
        assert_usage_error(capsys, "mi", "--intervals", "[[0,1],[2,Infinity]]")

    def test_non_object_input_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[[0, 1], [2, 3]]")
        assert_usage_error(capsys, "mi", "--input", str(cfg))

    @pytest.mark.parametrize("command", ["mi", "converge"])
    def test_input_without_intervals_names_the_field(self, capsys, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": 16}))
        code, out, err = run(capsys, command, "--input", str(cfg))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "detail": '--input JSON object has no "intervals" field'}

    def test_oversized_resolution_usage_error(self, capsys, monkeypatch):
        # the site limit must refuse the request before any n x n allocation
        def no_alloc(*args, **kwargs):
            pytest.fail("allocated despite the site limit")

        monkeypatch.setattr(fermion, "hardy_kernel", no_alloc)
        monkeypatch.setattr(fermion, "_kernel_tables", no_alloc)
        monkeypatch.setattr(fermion.np, "arange", no_alloc)
        assert_usage_error(capsys, "mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "1e9")

    def test_overflowing_site_count_usage_error(self, capsys):
        assert_usage_error(capsys, "mi", "--intervals", "[[-1e308,0],[1,1e308]]")

    @pytest.mark.parametrize("command", ["mi", "converge"])
    @pytest.mark.parametrize("field,value", [("resolution", "abc"), ("components", "x"),
                                             ("resolution", 10**400), ("components", 2**1100)])
    def test_invalid_input_field_usage_error(self, capsys, tmp_path, command, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"intervals": [[0, 1], [2, 3]], field: value}))
        code, out, err = run(capsys, command, "--input", str(cfg))
        assert (code, out) == (2, "")
        assert field in json.loads(err)["detail"]

    @pytest.mark.parametrize("intervals", [[[0, 1], [2, "3"]], [[0, True], [2, 3]]])
    def test_non_numeric_endpoint_usage_error(self, capsys, tmp_path, intervals):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"intervals": intervals, "resolution": 16}))
        for argv in (("--intervals", json.dumps(intervals), "--resolution", "16"), ("--input", str(cfg))):
            code, out, err = run(capsys, "mi", *argv)
            assert (code, out) == (2, "")
            assert "endpoint" in json.loads(err)["detail"]

    def test_one_fraction_reports_infinite_error(self, capsys):
        code, out, _ = run(capsys, "mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "16",
                           "--fractions", "1")
        assert code == 0
        assert json.loads(out)["extrapolation_error"] == "inf"


class TestConvergeCommand:
    def test_json_study(self, capsys):
        code, out, _ = run(capsys, "converge", "--intervals", "[[0,1],[2,3]]",
                           "--resolutions", "8,16,32")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["values"]) == 3
        assert payload["uncertainty"] < 0.01


class TestAuditCommands:
    def test_fan_audit_clean(self, capsys):
        code, out, _ = run(capsys, "fan-audit", "--trials", "50", "--seed", "7")
        assert code == 0
        reports = json.loads(out)
        assert all(rep["violations"] == 0 for rep in reports)

    def test_tau_audit_clean(self, capsys):
        code, out, _ = run(capsys, "tau-audit", "--trials", "25", "--seed", "3")
        assert code == 0
        assert all(rep["violations"] == 0 for rep in json.loads(out))

    def test_audit_determinism(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fan-audit", "--trials", "20", "--seed", "9", "-o", str(f1)]) == 0
        assert main(["fan-audit", "--trials", "20", "--seed", "9", "-o", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_index_analog(self, capsys):
        code, out, _ = run(capsys, "index-analog", "--k", "2", "--trials", "20", "--seed", "1")
        assert code == 0
        assert all(rep["violations"] == 0 for rep in json.loads(out))

    def test_negative_trials_usage_error(self, capsys):
        assert_usage_error(capsys, "fan-audit", "--trials", "-1")

    def test_trials_above_limit_refused_before_spawn(self, capsys, monkeypatch):
        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        assert_usage_error(capsys, "tau-audit", "--trials", str(audits.MAX_TRIALS + 1))

    def test_trials_at_limit_reach_spawn(self, monkeypatch):
        class Spawned(Exception):
            pass

        class FailingSpawn:
            def __init__(self, seed):
                pass

            def spawn(self, n):
                raise Spawned(n)

        monkeypatch.setattr(np.random, "SeedSequence", FailingSpawn)
        with pytest.raises(Spawned):
            audits.fan_audit(audits.MAX_TRIALS, 0)

    def test_k_above_limit_refused_before_allocation(self, capsys, monkeypatch):
        def no_alloc(*args, **kwargs):
            pytest.fail("allocated despite the k limit")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        monkeypatch.setattr(rand, "gaussian_matrix", no_alloc)
        assert_usage_error(capsys, "index-analog", "--k", str(audits.MAX_K + 1), "--trials", "1")

    @pytest.mark.parametrize("k", [6, audits.MAX_K])
    def test_index_work_above_limit_refused_before_spawn(self, capsys, monkeypatch, k):
        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        code, _, err = run(capsys, "index-analog", "--k", str(k), "--trials", str(audits.max_index_trials(k) + 1))
        assert code == 2
        assert f"at most {audits.max_index_trials(k)} trials" in json.loads(err)["detail"]

    def test_index_analog_at_benchmark_size_runs(self, capsys):
        code, out, _ = run(capsys, "index-analog", "--k", "2", "--trials", "500")
        assert code == 0
        assert [rep["trials"] for rep in json.loads(out)] == [500, 500]


class TestEmbedCommand:
    def test_a2_inline(self, capsys):
        code, out, _ = run(capsys, "embed", "--gram", "[[2,-1],[-1,2]]")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["rank"] == 2
        assert payload["target_dimension"] == 8
        assert payload["dense_vectors"][0][0] == "1/1"

    def test_gram_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "gram.json"
        cfg.write_text(json.dumps({"gram": [[2]]}))
        code, out, _ = run(capsys, "embed", "--input", str(cfg))
        assert code == 0
        assert json.loads(out)["target_dimension"] == 2

    def test_non_pd_rejected(self, capsys):
        code, _, err = run(capsys, "embed", "--gram", "[[1,2],[2,1]]")
        assert code == 2

    def test_non_list_gram_usage_error(self, capsys):
        assert_usage_error(capsys, "embed", "--gram", "5")

    @pytest.mark.parametrize("source", ["--gram", "--input"])
    def test_object_without_gram_names_the_field(self, capsys, tmp_path, source):
        cfg = tmp_path / "gram.json"
        cfg.write_text(json.dumps({"matrix": [[2]]}))
        code, out, err = run(capsys, "embed", source, '{"matrix": [[2]]}' if source == "--gram" else str(cfg))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "detail": f'{source} JSON object has no "gram" field'}

    def test_non_integer_gram_usage_error(self, capsys):
        for gram in ("[[2.5]]", "[[true]]"):
            assert_usage_error(capsys, "embed", "--gram", gram)

    def test_dense_expansion_over_budget_usage_error(self, capsys):
        # r = 10^30 fits under --dense-limit; the entry budget must refuse it before
        # expanding (list repetition that large would raise OverflowError, exit 3).
        big = str(10**30)
        code, _, err = run(capsys, "embed", "--gram", f"[[{big}]]", "--dense-limit", big)
        assert code == 2
        assert "budget" in json.loads(err)["detail"]


class TestStartup:
    def test_import_defers_scipy_integrate(self):
        src = str(Path(araki_mi.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import araki_mi.cli; "
                "print('scipy.integrate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_mi_command_loads_no_scipy(self):
        # scipy.linalg alone adds about 27 MiB of peak RSS to a small mi run.
        src = str(Path(araki_mi.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); from araki_mi import cli; "
                "rc = cli.main(['mi', '--intervals', '[[0,1],[2,3]]', '--resolution', '16']); "
                "print(); print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "0 []"

    def test_mi_binds_lapack_of_numpy_lazily(self):
        # zhetrd, dstedc and dsterf come from the library np.linalg itself calls (the handle of
        # numpy.linalg._umath_linalg), bound on the first sigma_trace, not at import.
        src = str(Path(araki_mi.__file__).resolve().parents[1])
        code = (f"import sys, ctypes; sys.path.insert(0, {src!r}); from araki_mi import cli, operators; "
                "from numpy.linalg import _umath_linalg; "
                "before = operators._pinned_lapack.cache_info().currsize; "
                "rc = cli.main(['mi', '--intervals', '[[0,1],[2,3]]', '--resolution', '16']); "
                "lib = ctypes.CDLL(_umath_linalg.__file__); "
                "address = lambda f: ctypes.cast(f, ctypes.c_void_p).value; "
                "bound = [address(f) for f in operators._pinned_lapack()]; "
                "numpys = [address(lib.scipy_zhetrd_64_), address(lib.scipy_dstedc_64_), "
                "address(lib.scipy_dsterf_64_)]; "
                "print(); print(rc, before, bound == numpys)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "0 0 True"


class TestReportHelpers:
    def test_empty_audit_csv_header_only(self):
        text = csv_lines(("suite", "trials", "violations", "worst_margin"), [])
        assert text == "suite,trials,violations,worst_margin\n"

    def test_canonical_json_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_json_float_format(self):
        assert canonical_json(0.1) == "0.10000000000000001"

    def test_canonical_json_inf(self):
        assert canonical_json(float("inf")) == '"inf"'

    def test_audit_payload_round_trip(self):
        rep = AuditReport(suite="s", trials=2, violations=0, worst_margin=0.5, rows=[])
        payload = rep.to_payload()
        assert json.loads(canonical_json(payload))["suite"] == "s"

    def test_series_matches_library(self, capsys):
        code, out, _ = run(capsys, "mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "16",
                           "--fractions", "0.5,1.0")
        series = mi_convergence(IntervalConfig(intervals=((0, 1), (2, 3)), resolution=16), [0.5, 1.0])
        payload = json.loads(out)
        assert payload["mi_nats"] == pytest.approx(series.values[-1], abs=1e-15)
