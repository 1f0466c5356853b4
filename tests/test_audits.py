"""Batched audits: the same bytes as trial-by-trial evaluation, bounded batches, the k limit."""

import hashlib
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from araki_mi import audits, rand, relent, spectral, tau
from araki_mi.cli import main
from araki_mi.relent import BipartiteShape, TraceExpectation

COMMAND_ARGS = {"tau-audit": [], "fan-audit": [], "index-analog": ["--k", "2"]}

# SHA-256 of the stdout of each command as evaluated trial by trial, one
# library call per trial, before the audits were batched (numpy 2.4.6,
# OpenBLAS 0.3.31).  50 trials at seeds 0-2; 500 trials at the benchmark's
# audit-battery seeds for its seed 0; 0, 1 and CHUNK_TRIALS - 1 .. + 1 trials.
REFERENCE_DIGESTS = {
    ("tau-audit", 50, 0): "6ac2524bcd616970881c6a3949ed41966efa3f2b843b067885a208931ff56c1d",
    ("tau-audit", 50, 1): "0d7e332fcbf6d5f91a26baae0c2efbcf70ac0ae8ac06fe7dd307580e711b2b2d",
    ("tau-audit", 50, 2): "a9589d8f6722748efd13ddd0b1a5f42614c1ab720b5c7677f6b8089da8a1663c",
    ("fan-audit", 50, 0): "6870af078f884d08ad3bc1349193ab61248003bc9223292545c410444347c8ba",
    ("fan-audit", 50, 1): "4cdca3c4dcf5153555e36e936aadacdd4c996ee127de4072bd9a129961559179",
    ("fan-audit", 50, 2): "6b2a83d173d19e512df1165a22d97873f47bf21b6d4a11d83417a23ff9739d52",
    ("index-analog", 50, 0): "48ec0d110caf399c32e48cc81df1323c607b3dffc6a5175ac2ecb18eda65176f",
    ("index-analog", 50, 1): "93cbd80d298ec55fc4208d1927809f654b5744d73c4a4f358152dac3f6961f7a",
    ("index-analog", 50, 2): "97fab5da675d453947e23634fb57de121089c81d51be8894efe5e7d958a2ebf4",
    ("tau-audit", 500, 2968811710): "9f6ccdaaa29e0add6c3a4c3de296426e0f115e7686f151395ec4f0332ed86472",
    ("fan-audit", 500, 3677149159): "d69f1f15ac8f85bf5c6341799c9f85de9a93a5736cbc6761899f647726d3e6fe",
    ("index-analog", 500, 745650761): "ab08bdfbede24c1364f707af06b8c4fd0bedceed53bbb88f8046524af6903cf8",
    ("tau-audit", 0, 5): "9d7ceb01215658b1c509dd6713b3004967d7131f99de414008bcae7b6f412e08",
    ("tau-audit", 1, 5): "f3ff669191bb42845ba56c1bd5b4e86effffb9d9533fdbc6bdf2ec8400799361",
    ("tau-audit", 255, 5): "12d0a49cb2e0f3c5012a0fe3610d825fedfbed6f7ff514931b70a2afb3077d6d",
    ("tau-audit", 256, 5): "41b20a60721bc5bd2b4d5bacd1ac715aa534a59f1b7b872ace36aedaa7559f63",
    ("tau-audit", 257, 5): "56d8f34327f8ff01d44858652b820fec0699d34c6619734f2c158fe6f09156da",
    ("fan-audit", 0, 5): "553d8b63e3d54543f669dd613ca48f9b8f3a5251c0f846c84886a60af5722a89",
    ("fan-audit", 1, 5): "c4fa5c0284626455a25e76dfb537df0087281e25fcd12198ced82c4ba0da538f",
    ("fan-audit", 255, 5): "da37c325833d4b0a972ad172608a2fd33a47d60d883e6d68541f9389ac998a11",
    ("fan-audit", 256, 5): "19cce243618909961353d5a5bb292a4c0d0e762efa959a14583a08f20957ef0f",
    ("fan-audit", 257, 5): "59cd38066a6954112648d7e32e291da18fedcb4d249a2234312382b8171b5681",
    ("index-analog", 0, 5): "e7056db71ab13cb257720cad37e951e5462332bfc2afea068aaf393dcfb856e2",
    ("index-analog", 1, 5): "17af081d4676298f73ba1139913747a709e7f46b96596646f08e1c65715fcd88",
    ("index-analog", 255, 5): "55fb47d39d014e399b8ddabafbdb17cc7777834ebc1f2f5caee96d560cba769a",
    ("index-analog", 256, 5): "7d23aef739694d511debfedb77472ae1d3da0caf8c8a0a70b5c3696d36ff13b2",
    ("index-analog", 257, 5): "e7ec00cf0eeddc699e77471a3c789b2bacb6ddbbf6ab0b3b45405b387ce5313e",
}


def stdout_digest(command: str, trials: int, seed: int) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, *COMMAND_ARGS[command], "--trials", str(trials), "--seed", str(seed)])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command,trials,seed", sorted(REFERENCE_DIGESTS))
def test_stdout_equals_trial_by_trial_reference(command, trials, seed):
    assert stdout_digest(command, trials, seed) == REFERENCE_DIGESTS[command, trials, seed]


def test_reference_covers_chunk_boundary():
    chunk = audits.CHUNK_TRIALS
    for command in COMMAND_ARGS:
        assert {(command, t, 5) for t in (0, 1, chunk - 1, chunk, chunk + 1)} <= set(REFERENCE_DIGESTS)


@pytest.mark.parametrize("command,seed", [("tau-audit", 0), ("fan-audit", 1), ("index-analog", 2)])
def test_chunk_size_does_not_move_a_byte(command, seed, monkeypatch):
    monkeypatch.setattr(audits, "CHUNK_TRIALS", 7)
    assert stdout_digest(command, 50, seed) == REFERENCE_DIGESTS[command, 50, seed]


class BatchSizes:
    """Records (trials, matrix size) of every stacked LAPACK call."""

    def __init__(self, monkeypatch):
        self.calls = []
        for name in ("eigh", "eigvalsh", "svd", "inv"):
            monkeypatch.setattr(np.linalg, name, self._recording(getattr(np.linalg, name)))

    def _recording(self, original):
        def call(a, *args, **kwargs):
            self.calls.append((a.shape[0] if a.ndim > 2 else 1, a.shape[-1]))
            return original(a, *args, **kwargs)

        return call

    @property
    def sizes(self):
        return [k for k, _ in self.calls]


def test_no_stacked_call_exceeds_the_chunk(monkeypatch):
    monkeypatch.setattr(audits, "CHUNK_TRIALS", 6)
    calls = BatchSizes(monkeypatch)
    audits.tau_audit(20, 0)
    audits.spectral_audit(20, 0)
    audits.index_audit(20, 0)
    audits.pimsner_popa_audit(20, 0)
    assert max(calls.sizes) == 6


def test_default_chunk_bounds_a_single_dimension_suite(monkeypatch):
    calls = BatchSizes(monkeypatch)
    rep = audits.index_audit(2 * audits.CHUNK_TRIALS + 1, 0)
    assert [r["trial"] for r in rep.rows] == list(range(2 * audits.CHUNK_TRIALS + 1))
    assert max(calls.sizes) == audits.CHUNK_TRIALS
    assert sorted(set(calls.sizes)) == [1, audits.CHUNK_TRIALS]


def test_stacked_calls_stay_within_the_entry_budget(monkeypatch):
    calls = BatchSizes(monkeypatch)
    audits.tau_audit(60, 0)
    audits.spectral_audit(60, 0)
    audits.index_audit(40, 0, k=4)  # 16 x 16 states, 16 to a call
    audits.pimsner_popa_audit(40, 0, k=4)
    assert all(k * n * n <= audits.BATCH_ENTRIES for k, n in calls.calls)
    assert (audits.BATCH_ENTRIES // 256, 16) in calls.calls


def test_large_matrices_go_one_at_a_time(monkeypatch):
    calls = BatchSizes(monkeypatch)
    audits.index_audit(3, 0, k=12)  # 144 x 144 states
    assert set(calls.calls) == {(1, 144)}


# ---- trial-by-trial reference: the public single-instance functions ------------------

def trial_rows(one, trials, seed):
    streams = np.random.SeedSequence(seed).spawn(trials)
    return [one(np.random.default_rng(s), i) for i, s in enumerate(streams)]


def pinch_trial(rng, i, max_dim=12):
    dim = int(rng.integers(2, max_dim + 1))
    a = rand.random_psd(rng, dim)
    p = rand.random_block_projection(rng, dim)
    b = tau.pinch(a, p)
    u = 2 * p.mat - np.eye(dim)
    gap = float(np.linalg.norm(b.mat - 0.5 * (a.mat + u @ a.mat @ u)))
    half = float(np.linalg.eigvalsh(b.mat - 0.5 * a.mat)[0])
    return {"trial": i, "dim": dim, "identity_gap": gap, "margin": min(half, 1e-12 - gap)}


def epsilon_shift_trial(rng, i, max_dim=10):
    dim = int(rng.integers(2, max_dim + 1))
    a = rand.random_psd(rng, dim)
    p = rand.random_block_projection(rng, dim)
    t0 = tau.tau_spectral(a, p).tau
    margin = min(float(np.linalg.eigvalsh(t0.mat - tau.tau_epsilon_shift(a, p, eps).mat)[0])
                 for eps in (0.1, 0.01))
    return {"trial": i, "dim": dim, "margin": margin}


def resolvent_trial(rng, i, max_dim=12):
    dim = int(rng.integers(2, max_dim + 1))
    a = rand.random_psd(rng, dim)
    p = rand.random_block_projection(rng, dim)
    rows = tau.resolvent_bound_check(a, p, audits.T_SAMPLES)
    return {"trial": i, "dim": dim, "margin": min(r["margin"] for r in rows)}


def integrand_trial(rng, i, max_dim=10):
    dim = int(rng.integers(2, max_dim + 1))
    a = rand.random_psd(rng, dim)
    p = rand.random_block_projection(rng, dim)
    b = tau.pinch(a, p)
    margin = math.inf
    for t in audits.T_SAMPLES:
        m = tau.resolvent_integrand(a, b, p, t)
        margin = min(margin, float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]))
    return {"trial": i, "dim": dim, "margin": margin}


def fan_trial(rng, i, max_dim=20):
    dim = int(rng.integers(2, max_dim + 1))
    f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rep = spectral.fan_inequality_check(f, g)
    return {"trial": i, "dim": dim, "margin": rep["worst_margin"], "checked": rep["checked"]}


def half_power_trial(rng, i, max_dim=20):
    dim = int(rng.integers(2, max_dim + 1))
    f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    lhs, rhs = spectral.offdiag_half_trace(f, rand.random_block_projection(rng, dim))
    return {"trial": i, "dim": dim, "margin": rhs - lhs}


def index_trial(rng, i, k=3):
    e = TraceExpectation(shape=BipartiteShape(k, k), traced_factor="A")
    s, bound = relent.entropy_index_gap(k, rand.random_density(rng, k * k), e)
    return {"trial": i, "s": s, "margin": bound - s}


def pimsner_popa_trial(rng, i, k=3, m=3):
    e = TraceExpectation(shape=BipartiteShape(k, m), traced_factor="A")
    return {"trial": i, "margin": relent.pimsner_popa_margin(rand.random_psd(rng, k * m).mat, e)}


@pytest.mark.parametrize("audit,one", [
    (audits.pinch_audit, pinch_trial),
    (audits.epsilon_shift_audit, epsilon_shift_trial),
    (audits.resolvent_audit, resolvent_trial),
    (audits.integrand_psd_audit, integrand_trial),
    (audits.fan_audit, fan_trial),
    (audits.half_power_audit, half_power_trial),
    (lambda trials, seed: audits.index_audit(trials, seed, k=3), index_trial),
    (lambda trials, seed: audits.pimsner_popa_audit(trials, seed, k=3), pimsner_popa_trial),
])
@pytest.mark.parametrize("seed", [0, 17])
def test_rows_equal_trial_by_trial_library_calls(audit, one, seed):
    assert audit(60, seed).rows == trial_rows(one, 60, seed)


# ---- the k limit -----------------------------------------------------------------------

def test_max_k_is_the_largest_k_within_the_entry_budget():
    assert audits.MAX_K == 31
    assert (audits.MAX_K**2) ** 2 <= audits.MAX_STATE_ENTRIES < ((audits.MAX_K + 1) ** 2) ** 2


class Spawned(Exception):
    pass


class FailingSpawn:
    def __init__(self, seed):
        pass

    def spawn(self, n):
        raise Spawned(n)


def no_alloc(*args, **kwargs):
    pytest.fail("allocated despite the k limit")


@pytest.mark.parametrize("audit", [audits.index_audit, audits.pimsner_popa_audit])
def test_k_above_limit_refused_before_allocation(audit, monkeypatch):
    monkeypatch.setattr(np.random, "SeedSequence", FailingSpawn)
    monkeypatch.setattr(rand, "gaussian_matrix", no_alloc)
    with pytest.raises(ValueError, match="k must be at most"):
        audit(1, 0, k=audits.MAX_K + 1)


@pytest.mark.parametrize("audit", [audits.index_audit, audits.pimsner_popa_audit])
def test_k_at_limit_reaches_spawn(audit, monkeypatch):
    monkeypatch.setattr(np.random, "SeedSequence", FailingSpawn)
    with pytest.raises(Spawned):
        audit(1, 0, k=audits.MAX_K)


@pytest.mark.parametrize("audit", [audits.index_audit, audits.pimsner_popa_audit])
@pytest.mark.parametrize("k", [2, 6, audits.MAX_K])
def test_index_work_bounded_before_spawn(audit, k, monkeypatch):
    monkeypatch.setattr(np.random, "SeedSequence", FailingSpawn)
    largest = audits.max_index_trials(k)
    with pytest.raises(ValueError, match="trials \\* \\(\\d+ \\+ k\\^6\\)"):
        audit(largest + 1, 0, k=k)
    with pytest.raises(Spawned):
        audit(min(largest, audits.MAX_TRIALS), 0, k=k)
