"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import sys
import time

import numpy as np

from araki_mi import audits, fermion, lattice, relent, spectral, tau
from araki_mi.rand import random_block_projection, random_density, random_psd
from oracles import coset_count, hardy_kernel

LN2 = math.log(2.0)


def _report(number: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {description}", file=sys.stderr)
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_tau_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(4, 17))
        a = random_psd(rng, dim)
        p = random_block_projection(rng, dim)
        gap = np.linalg.norm(tau.tau_integral(a, p).tau.mat - tau.tau_spectral(a, p).tau.mat)
        worst = max(worst, float(gap))
    elapsed = time.monotonic() - t0
    _report(1, f"tau integral vs spectral, worst Frobenius gap {worst:.3e} in {elapsed:.1f}s",
            worst <= 1e-6 and elapsed < 60.0)


def test_criterion_2_operator_inequality_audits():
    t0 = time.monotonic()
    reports = [
        audits.epsilon_shift_audit(500, seed=201),
        audits.resolvent_audit(500, seed=202),
        audits.fan_audit(500, seed=203),
        audits.half_power_audit(500, seed=204),
    ]
    elapsed = time.monotonic() - t0
    total_violations = sum(rep.violations for rep in reports)
    detail = ", ".join(f"{rep.suite}={rep.violations}" for rep in reports)
    _report(2, f"500-trial audits ({detail}) in {elapsed:.1f}s",
            total_violations == 0 and elapsed < 300.0)


def test_criterion_3_key_trace_bound_uniformity():
    rng = np.random.default_rng(301)
    ok = True
    worst_slack = math.inf
    for _ in range(10):
        dim = int(rng.integers(4, 11))
        a = random_psd(rng, dim)
        p = random_block_projection(rng, dim)
        bound = tau.key_bound_constant(a, p)
        prev = -math.inf
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            d, _ = tau.key_trace_bound(a, p, eps)
            ok = ok and (d >= prev - 1e-9) and (d <= bound + 1e-6)
            worst_slack = min(worst_slack, bound - d)
            prev = d
    _report(3, f"Tr D_eps nondecreasing and bounded, min slack {worst_slack:.3e}", ok)


def test_criterion_4_mi_pipeline_self_convergence():
    t0 = time.monotonic()
    cfg = fermion.IntervalConfig(intervals=((0.0, 1.0), (2.0, 3.0)), resolution=32)
    series = fermion.mi_convergence(cfg, [0.25, 0.5, 0.75, 1.0])
    monotone = all(b >= a - 1e-9 for a, b in zip(series.values, series.values[1:]))
    study = fermion.resolution_study(cfg, [32, 64, 128, 256])
    v = study["values"]
    step = abs(v[-1] - v[-2])
    elapsed = time.monotonic() - t0
    _report(4, f"MI series monotone, |MI256-MI128|={step:.2e}, "
               f"extrapolated {study['extrapolated']:.6f} +- {study['uncertainty']:.2e} "
               f"in {elapsed:.1f}s",
            monotone and step < 0.01 and study["uncertainty"] < 0.01
            and study["extrapolated"] < 10.0 and elapsed < 600.0)


def test_criterion_5_two_path_entropy_identity():
    worst = 0.0
    for resolution in (16, 32, 64):
        sys_ = fermion.build_covariance(
            fermion.IntervalConfig(intervals=((0.0, 1.0), (2.0, 3.0)), resolution=resolution))
        # independent recomputation of S1 + S2 - S12 from raw eigenvalues
        def entropy(mat):
            w = np.clip(np.linalg.eigvalsh(mat), 0.0, 1.0)
            inner = w[(w > 0.0) & (w < 1.0)]
            return float(-np.sum(inner * np.log(inner) + (1 - inner) * np.log(1 - inner)))

        c = hardy_kernel(np.concatenate([np.arange(s, s + n) for s, n in sys_.runs]))
        r1 = np.arange(sum(n for _, n in sys_.runs[:sys_.split]))
        r2 = np.arange(r1.size, c.shape[0])
        expected = (entropy(c[np.ix_(r1, r1)])
                    + entropy(c[np.ix_(r2, r2)])
                    - entropy(c))
        gap = abs(fermion.sigma_trace(sys_) - expected)
        worst = max(worst, gap)
    _report(5, f"Tr sigma_C = S1+S2-S12, worst gap {worst:.3e}", worst <= 1e-9)


def test_criterion_6_lattice_embedding_exactness():
    t0 = time.monotonic()
    ok = True
    corpus = [lattice.root_lattice(n) for n in ("A1", "A2", "A3", "D4", "E8")]
    rng = np.random.default_rng(601)
    count = 0
    while count < 100:
        n = int(rng.integers(1, 7))
        m = rng.integers(-3, 4, size=(n, n))
        g = m.T @ m
        if lattice.integer_determinant(g.tolist()) <= 0 or np.max(np.abs(g)) > 20:
            continue
        corpus.append(lattice.GramMatrix(tuple(tuple(int(x) for x in row) for row in g)))
        count += 1
    for g in corpus:
        emb = lattice.embed_rational(g)
        gram = emb.gram()
        ok = ok and all(gram[i][j] == g.entries[i][j] for i in range(g.n) for j in range(g.n))
        k, int_rows = lattice.integralize(emb)
        scaled = lattice.RationalEmbedding(
            segment_lengths=emb.segment_lengths,
            rows=tuple(tuple(lattice.Fraction(x) for x in row) for row in int_rows),
            residuals=emb.residuals)
        sg = scaled.gram()
        ok = ok and all(sg[i][j] == k * k * g.entries[i][j] for i in range(g.n) for j in range(g.n))
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            g = lattice.GramMatrix(tuple(tuple(2 * int(i == j) for j in range(n)) for i in range(n)))
            ok = ok and lattice.sublattice_index(g, k) == coset_count(n, k)
    elapsed = time.monotonic() - t0
    _report(6, f"exact Gram reproduction on {len(corpus)} lattices, "
               f"index law vs coset oracle, in {elapsed:.1f}s", ok and elapsed < 120.0)


def test_criterion_7_entropy_index_analog():
    e = relent.TraceExpectation(relent.BipartiteShape(2, 2), "A")
    bell = relent.DensityMatrix.pure([1, 0, 0, 1])
    s, bound = relent.entropy_index_gap(2, bell, e)
    saturation_ok = abs(s - 2 * LN2) <= 1e-9 and abs(bound - 2 * LN2) <= 1e-12
    rng = np.random.default_rng(701)
    bound_ok = True
    for _ in range(100):
        sv, _ = relent.entropy_index_gap(2, random_density(rng, 4), e)
        bound_ok = bound_ok and sv <= bound + 1e-8
    # Theorem-of-properties identities: (1) expectation identity, (3) dominance,
    # (4) monotone restriction
    shape = relent.BipartiteShape(2, 3)
    ef = relent.TraceExpectation(shape, "A")
    identities_ok = True
    for _ in range(100):
        rho = random_density(rng, 6)
        sigma = random_density(rng, 6)
        psi = random_density(rng, 3)
        lhs = relent.relative_entropy(rho, relent.DensityMatrix(np.kron(np.eye(2) / 2, psi.mat)))
        rhs = (relent.relative_entropy(relent.reduced_state(rho, shape, "A"), psi)
               + relent.relative_entropy(
                   rho, relent.DensityMatrix(relent.conditional_expectation(rho.mat, ef))))
        identities_ok = identities_ok and abs(lhs - rhs) <= 1e-8
        mu = float(rng.uniform(0.1, 0.9))
        dom = relent.DensityMatrix(mu * rho.mat + (1 - mu) * sigma.mat)
        identities_ok = identities_ok and relent.relative_entropy(rho, dom) <= math.log(1 / mu) + 1e-8
        part = relent.relative_entropy(relent.reduced_state(rho, shape, "B"),
                                       relent.reduced_state(sigma, shape, "B"))
        identities_ok = identities_ok and part <= relent.relative_entropy(rho, sigma) + 1e-8
    _report(7, f"index-gap saturation s={s:.12f} (= ln 4), bound and identities over 100 states",
            saturation_ok and bound_ok and identities_ok)


def test_criterion_8_smooth_kernel_decay():
    spec = spectral.designated_test_kernel(grid=128)
    prof = spectral.singular_profile(spectral.full_grid_kernel(spec))
    slope = spectral.fit_decay_slope(prof.values, 5, 64)
    plateau, tail = spectral.half_power_summability_diagnostic(prof)
    _report(8, f"designated kernel slope {slope:.2f} <= -6, plateau={plateau}, tail {tail:.2e}",
            slope <= -6.0 and plateau)
