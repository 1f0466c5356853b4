"""Batched audits: the same bytes as trial-by-trial evaluation, bounded batches, the k limit."""

import math
from collections import Counter

import numpy as np
import pytest

from araki_mi import audits, rand, relent, spectral
from araki_mi.operators import symmetrised
from araki_mi.relent import BipartiteShape, TraceExpectation
from record_audit_digests import (COMMAND_ARGS, cli_stdout, digest, epsilon_shift_trial, fan_trial, half_power_trial,
                                  index_trial, integrand_trial, pimsner_popa_trial, pinch_trial, recorded,
                                  resolvent_trial, trial_rows)

REFERENCE_DIGESTS = recorded()


def stdout_digest(command: str, trials: int, seed: int) -> str:
    return digest(cli_stdout(command, trials, seed))


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
    """Records the shape of every stacked LAPACK call."""

    def __init__(self, monkeypatch):
        self.shapes = []
        for name in ("eigh", "eigvalsh", "svd", "inv"):
            monkeypatch.setattr(np.linalg, name, self._recording(getattr(np.linalg, name)))

    def _recording(self, original):
        def call(a, *args, **kwargs):
            self.shapes.append(a.shape)
            return original(a, *args, **kwargs)

        return call

    @property
    def sizes(self):
        """The trials of each call: its leading axis."""
        return [s[0] if len(s) > 2 else 1 for s in self.shapes]

    @property
    def calls(self):
        """(matrices, matrix size) of each call: every leading axis counts."""
        return [(math.prod(s[:-2]), s[-1]) for s in self.shapes]


@pytest.mark.parametrize("audit,expected", [
    (audits.pinch_audit, {"eigvalsh": 1}),
    (audits.epsilon_shift_audit, {"eigh": 2, "eigvalsh": 1}),
    (audits.resolvent_audit, {"eigh": 2, "eigvalsh": 1}),
    (audits.integrand_psd_audit, {"inv": 2, "eigvalsh": 1}),
])
def test_tau_audit_batches_decompose_only_what_they_compare(monkeypatch, audit, expected):
    # The instances are PSD by construction, so no batch decomposes A only to check it.
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "inv", "solve", "norm"):
        def call(*args, original=getattr(np.linalg, name), name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)
    batches, chunk_rows = [], audits._chunk_rows

    def counted(rngs, start, dim_of, draw, evaluate):
        def batch(*args):
            calls.clear()
            columns = evaluate(*args)
            batches.append(Counter(calls))
            return columns
        return chunk_rows(rngs, start, dim_of, draw, batch)

    monkeypatch.setattr(audits, "_chunk_rows", counted)
    audit(40, 0)
    assert len(batches) > 1 and all(batch == Counter(expected) for batch in batches)


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
    # a tau kernel stacks up to len(T_SAMPLES) matrices per trial, and it does stack them
    budget = len(audits.T_SAMPLES) * audits.BATCH_ENTRIES
    assert all(m * n * n <= budget for m, n in calls.calls)
    assert max(m * n * n for m, n in calls.calls) > audits.BATCH_ENTRIES
    assert all(k * n * n <= audits.BATCH_ENTRIES for k, (_, n) in zip(calls.sizes, calls.calls))
    assert (audits.BATCH_ENTRIES // 256, 16) in calls.calls


def test_large_matrices_go_one_at_a_time(monkeypatch):
    calls = BatchSizes(monkeypatch)
    audits.index_audit(3, 0, k=12)  # 144 x 144 states
    assert set(calls.calls) == {(1, 144)}


# ---- trial-by-trial reference: the library on one instance at a time -----------------

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


# ---- batch draws: each generator draws what the single-instance generators draw -------

@pytest.mark.parametrize("seed", [0, 1, 29])
def test_batch_draws_equal_single_instance_draws(seed):
    # bit for bit, and each generator is left in the same state
    for dim in range(2, 21):
        streams = np.random.SeedSequence([seed, dim]).spawn(4)
        for draw, one in [
            (lambda rngs: (audits._psd(rand.gaussian_stacks(rngs, dim)[0]), rand.block_memberships(rngs, dim)),
             lambda rng: (rand.random_psd(rng, dim).mat, rand.random_block_projection(rng, dim).membership)),
            (lambda rngs: (symmetrised(rand.density_from_factor(rand.gaussian_stacks(rngs, dim)[0])),),
             lambda rng: (rand.random_density(rng, dim).mat,)),
            (lambda rngs: rand.gaussian_stacks(rngs, dim, count=2),
             lambda rng: (rand.gaussian_matrix(rng, dim, dim), rand.gaussian_matrix(rng, dim, dim))),
        ]:
            batch, single = ([np.random.default_rng(s) for s in streams] for _ in range(2))
            stacks = draw(batch)
            for j, rng in enumerate(single):
                assert [m.tobytes() for m in one(rng)] == [stack[j].tobytes() for stack in stacks]
                assert rng.bit_generator.state == batch[j].bit_generator.state


def test_single_draws_keep_their_sequence():
    # the draw order every pinned digest and seeded test relies on
    for seed, (rows, cols) in enumerate([(2, 2), (5, 5), (6, 3), (1, 7), (20, 20)]):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        m = rand.gaussian_matrix(rng, rows, cols)
        assert m.tobytes() == (ref.standard_normal((rows, cols)) + 1j * ref.standard_normal((rows, cols))).tobytes()
        inside, expected = rand.block_membership(rng, rows + 1), np.zeros(rows + 1, dtype=bool)
        expected[ref.choice(rows + 1, size=int(ref.integers(1, rows + 1)), replace=False)] = True
        assert inside.tolist() == expected.tolist()
        assert rng.bit_generator.state == ref.bit_generator.state


# ---- extremal instances: each kernel on its bound, in closed form ---------------------
# Each assertion is tight enough that scaling either side of the inequality by 1 + 1e-6 fails it.

def test_fan_margins_on_diagonal_pair():
    # F = G = diag(3, 2, 1): mu(F + G) = (6, 4, 2); the (n, m) = (0, 0) margin is 3 + 3 - 6 = 0
    f = np.diag([3.0, 2.0, 1.0]).astype(complex)
    assert spectral._fan_margins(f, f).tolist() == [0.0, 1.0, 2.0, 1.0, 2.0, 2.0]


@pytest.mark.parametrize("n", [2, 4, 8])
def test_offdiag_half_traces_on_all_ones(n):
    # F = all ones, P the first n/2 coordinates: F1 has singular values n/2 twice and F has n once,
    # so Tr |F1|^{1/2} = 2 sqrt(n/2) = sqrt(2) Tr |F|^{1/2}.  The zero singular values come out at
    # about eps n, and their square roots add up to 5e-9 relative.
    lhs, rhs = spectral._offdiag_half_traces(np.ones((n, n), dtype=complex), np.arange(n) < n // 2)
    assert lhs == pytest.approx(math.sqrt(2.0 * n), rel=1e-7)
    assert rhs == pytest.approx(spectral.HALF_POWER_CONST * math.sqrt(n), rel=1e-7)


def maximally_entangled(k: int) -> np.ndarray:
    v = np.eye(k).ravel() / math.sqrt(k)
    return np.outer(v, v).astype(complex)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_entropy_index_gap_saturates_on_maximally_entangled_state(k):
    # rho pure, rho.E = 1/k^2: S(rho, rho.E) = ln k^2
    e = TraceExpectation(shape=BipartiteShape(k, k), traced_factor="A")
    rho, w_rho, _ = relent._density_stack(maximally_entangled(k))
    assert abs(float(relent._entropy_index_gaps(rho, w_rho, e)) - math.log(k * k)) <= 1e-14


@pytest.mark.parametrize("k", [2, 3, 5])
def test_pimsner_popa_margin_vanishes_on_maximally_entangled_projector(k):
    # a = |Omega><Omega|: E(a) = 1/k^2, so E(a) - a/k^2 = (1 - a)/k^2, whose smallest eigenvalue is 0
    e = TraceExpectation(shape=BipartiteShape(k, k), traced_factor="A")
    assert abs(float(relent._pimsner_popa_margins(maximally_entangled(k), e))) <= 1e-15


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
    monkeypatch.setattr(rand, "gaussian_stacks", no_alloc)
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
