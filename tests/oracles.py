"""Oracles and instance generators that only the tests use, kept out of the package."""

import math
from itertools import product
from typing import Sequence

import numpy as np

from araki_mi.fermion import _checked_intervals
from araki_mi.rand import gaussian_matrix


def continuum_mi(intervals: Sequence[Sequence[float]], split: int = 1) -> float:
    """Continuum mutual information, in nats, between the first `split` intervals and the rest.

    Casini-Fosco-Huerta (J. Stat. Mech. 2005, arXiv:cond-mat/0505563): a
    c = 1 Dirac fermion, which the lattice's doubled Fermi point makes this
    model at one component, has on a union of intervals (a_i, b_i) the entropy

        S = (1/3) [sum_i ln(b_i - a_i)
                   + sum_{i<j} ln(|a_j - b_i| |b_j - a_i| / (|a_j - a_i| |b_j - b_i|))]

    plus a cut-off constant per interval.  In S_1 + S_2 - S_12 only the pairs
    with one interval in each region are left.  The intervals are checked as
    `IntervalConfig` checks them.
    """
    ivs = _checked_intervals(intervals, split)
    total = 0.0
    for a1, b1 in ivs[:split]:
        for a2, b2 in ivs[split:]:
            total += math.log(abs(a2 - a1) * abs(b2 - b1) / (abs(a2 - b1) * abs(b2 - a1)))
    return total / 3.0


def hardy_kernel(sites: np.ndarray) -> np.ndarray:
    """The covariance C on integer lattice sites: (K + K^H) / 2 with K built entry by entry from
    the n x n separations, K = 1/2 on the diagonal, -i/(pi d) at odd separation d and 0 at even d."""
    delta = sites[:, None] - sites[None, :]
    odd = (delta % 2) != 0
    k = np.where(odd, -1j / (math.pi * np.where(odd, delta, 1)), 0.0)
    np.fill_diagonal(k, 0.5)
    return 0.5 * (k + k.conj().T)


def coset_count(n: int, k: int) -> int:
    """Brute-force enumeration of Z^n / k Z^n, as an oracle for `lattice.sublattice_index`."""
    return len({tuple(c % k for c in v) for v in product(range(k), repeat=n)})


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: the QR factor of a complex Gaussian matrix, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(gaussian_matrix(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))
