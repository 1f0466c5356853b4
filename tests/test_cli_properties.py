"""Property tests: every malformed `mi`/`converge --input` payload, `embed` Gram or audit flag
reaches a documented exit."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from araki_mi import audits, fermion  # noqa: E402
from araki_mi.cli import main  # noqa: E402

# Payloads for `mi --input`: each field well formed, malformed or missing.
# Finite numbers stay in [-1, 1] (resolution up to 100), so any accepted
# geometry has at most about 210 lattice sites and no example runs a large
# eigensolve; oversized requests are covered by the pre-allocation tests only.
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_WRONG_TYPES = st.one_of(st.none(), st.booleans(), st.text(max_size=3), _NON_FINITE)
_GARBAGE = st.recursive(st.one_of(_WRONG_TYPES, st.integers(-1, 1), st.floats(-1.0, 1.0)), lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=8)
_GEOMETRY = st.lists(st.integers(-8, 8), min_size=4, max_size=6, unique=True).map(
    lambda xs: [[x / 8 for x in sorted(xs)[i:i + 2]] for i in range(0, len(xs) - 1, 2)])
_FIELDS = {
    "intervals": st.one_of(
        _GEOMETRY,
        st.lists(st.lists(st.one_of(st.floats(-1.0, 1.0), _WRONG_TYPES, _GARBAGE), min_size=2, max_size=2),
                 max_size=4),
        _GARBAGE),
    "resolution": st.one_of(st.integers(4, 100), st.floats(4.0, 100.0), st.integers(-2, 0), _WRONG_TYPES, _GARBAGE),
    "components": st.one_of(st.integers(-1, 3), st.floats(-1.0, 3.0), _WRONG_TYPES, _GARBAGE),
    "extra": _GARBAGE,
}
_PAYLOADS = st.one_of(
    st.fixed_dictionaries({"intervals": _GEOMETRY}, optional={k: v for k, v in _FIELDS.items() if k != "intervals"}),
    st.fixed_dictionaries({}, optional=_FIELDS),
    _GARBAGE)

# `converge --resolutions`: admitted lists stay at or below 64 sites per unit
# length; the malformed ones are refused before any eigensolve (1e9 by the site limit).
_RESOLUTIONS = st.sampled_from(["8,16", "16,32,64", "64", "", "x", "32,16", "0,16", "-8,16", "nan", "16,inf", "1e9"])


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# Values of the audit flags --trials, --seed and --k: admitted ones stay tiny
# (trials <= 3, k <= 4), huge ones are refused before anything is spawned or
# allocated, and anything int() rejects is a usage error with the JSON diagnostic.
_NOT_A_NUMBER = st.one_of(st.sampled_from(["", "1.5", "1e3", "nan", "inf", "0x10", "--", "-x"]),
                          st.text(max_size=4).filter(lambda s: not _is_int(s)))
_TRIALS = st.one_of(st.integers(-3, 3), st.integers(audits.MAX_TRIALS + 1, 10**40), _NOT_A_NUMBER)
_SEED = st.one_of(st.integers(-3, 10), st.integers(2**64, 2**200), st.integers(-2**200, -2**64), _NOT_A_NUMBER)
_K = st.one_of(st.integers(-3, 4), st.integers(audits.MAX_K + 1, 10**40), _NOT_A_NUMBER)


# Gram payloads for `embed`, rank at most 6: positive definite B^T B + I (some
# scaled to huge integers), symmetric but possibly indefinite, square with
# entries of any type, ragged, and garbage.  Huge entries stay below 2**200, so
# json.dumps never meets the interpreter's limit on int-to-str digits.
_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-2**200, 2**200), st.floats(), st.booleans(), st.none(),
                   st.text(max_size=2))
_SIDE = st.integers(1, 6)
_POSITIVE = st.tuples(_SIDE.flatmap(lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                                      min_size=n, max_size=n)),
                      st.sampled_from([1, 2**64, 3**100])).map(
    lambda bc: [[bc[1] * (sum(x[i] * x[j] for x in bc[0]) + (i == j)) for j in range(len(bc[0]))]
                for i in range(len(bc[0]))])
_SYMMETRIC = _SIDE.flatmap(lambda n: st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n).map(
    lambda xs: [[xs[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]))
_SQUARE = st.integers(0, 6).flatmap(lambda n: st.lists(st.lists(_ENTRY, min_size=n, max_size=n),
                                                       min_size=n, max_size=n))
_GRAMS = st.one_of(_POSITIVE, _SYMMETRIC, _SQUARE, st.lists(st.lists(_ENTRY, max_size=7), max_size=7), _GARBAGE)


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented_exit(code, out, err):
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(out)
    else:
        assert "error" in json.loads(err)


class TestMalformedInput:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=_PAYLOADS)
    def test_every_payload_reaches_a_documented_exit(self, tmp_path_factory, payload):
        cfg = tmp_path_factory.mktemp("payload") / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert_documented_exit(*run_cli(["mi", "--input", str(cfg)]))


def assert_documented_audit_exit(code, out, err):
    """As assert_documented_exit, plus exit 1 (a violation); a flag argparse rejects is a usage error."""
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out)
    else:
        assert json.loads(err)["error"] == ("usage" if code == 2 else "numerical")


class TestMalformedConvergeInput:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=_PAYLOADS, resolutions=_RESOLUTIONS)
    def test_every_payload_reaches_a_documented_exit(self, tmp_path_factory, payload, resolutions):
        cfg = tmp_path_factory.mktemp("payload") / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert_documented_exit(*run_cli(["converge", "--input", str(cfg), f"--resolutions={resolutions}"]))


# `mi --fractions`: lists of finite fractions in and outside (0, 1], and non-finite ones anywhere
_FRACTION = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-0.5", "1.5", "1", "0.5"]),
                      st.floats(0.0, 1.0).map(repr))
_FRACTIONS = st.lists(_FRACTION, min_size=1, max_size=4).map(",".join)


def _admissible(fractions: str) -> bool:
    """Every fraction finite and in (0, 1]: otherwise no window series can be solved."""
    return all(0.0 < float(f) <= 1.0 for f in fractions.split(","))


class TestWindowFractions:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(fractions=_FRACTIONS)
    def test_every_fraction_list_reaches_a_documented_exit(self, fractions):
        code, out, err = run_cli(["mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "8", f"--fractions={fractions}"])
        assert_documented_exit(code, out, err)
        if not _admissible(fractions):
            assert code == 2

    @pytest.mark.parametrize("fractions", ["0.5,nan,1", "nan,1", "0.5,1,nan", "0.5,inf", "-inf,0.5,1"])
    def test_non_finite_fraction_refused_before_the_tables(self, monkeypatch, fractions):
        # a NaN passes the order check; it used to reach int(round(nan)) in the windows (exit 2,
        # "cannot convert float NaN to integer") after the tables were built
        monkeypatch.setattr(fermion, "build_covariance", lambda *args: pytest.fail("tables built"))
        code, out, err = run_cli(["mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "8", f"--fractions={fractions}"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "detail": "window fractions must lie in (0, 1] and end at 1"}


class TestAuditFlags:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(["tau-audit", "fan-audit", "index-analog"]), trials=_TRIALS,
           seed=st.none() | _SEED, k=st.none() | _K)
    def test_every_flag_value_reaches_a_documented_exit(self, command, trials, seed, k):
        argv = [command, "--trials", str(trials)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        if k is not None and command == "index-analog":
            argv += ["--k", str(k)]
        assert_documented_audit_exit(*run_cli(argv))


class TestMalformedGram:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gram=_GRAMS, via=st.sampled_from(["--gram", "--input", "--input {gram}"]))
    def test_every_gram_reaches_a_documented_exit(self, tmp_path_factory, gram, via):
        if via == "--gram":
            argv = ["embed", "--gram", json.dumps(gram)]
        else:
            path = tmp_path_factory.mktemp("gram") / "gram.json"
            path.write_text(json.dumps(gram if via == "--input" else {"gram": gram}))
            argv = ["embed", "--input", str(path)]
        assert_documented_exit(*run_cli(argv))
