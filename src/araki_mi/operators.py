"""Finite Hermitian operators with cached spectral data, and coordinate-mask projections."""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, Iterable, Optional

import numpy as np

HERMITICITY_TOL = 1e-12
ENTROPY_SLACK = 1e-8


def _square_stack(mats) -> np.ndarray:
    """Complex square matrix, or stack of them along leading axes."""
    m = np.asarray(mats, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _square_complex(mat) -> np.ndarray:
    """A single complex square matrix."""
    m = _square_stack(mat)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _conj_t(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _frobenius(m: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a (..., n, n) stack.

    For tolerance tests only: one einsum over the real and imaginary parts
    side by side, which runs in another order than np.linalg.norm's dot, so
    its last bits can differ.
    """
    v = np.ascontiguousarray(m).view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", v, v))


def symmetrised(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of a matrix or of each matrix of a stack."""
    return 0.5 * (m + _conj_t(m))


def hermitian_stack(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Symmetrised copy of a complex (..., n, n) stack; ValueError unless each matrix is
    Hermitian to HERMITICITY_TOL relative to max(1, its Frobenius norm)."""
    # The conjugate is formed twice so that no full-size copy outlives its use.
    defect = _frobenius(m - _conj_t(m))
    if not (defect <= HERMITICITY_TOL * np.maximum(1.0, _frobenius(m))).all():    # NaN fails too
        raise ValueError(f"{what} is not Hermitian (defect {np.max(defect):.3e})")
    return symmetrised(m)


@functools.cache
def _pinned_lapack():
    """(zhetrd, dstedc, dsterf, dgesdd) of the LAPACK behind np.linalg, or None.

    Resolved through numpy's own _umath_linalg handle, whose bundled
    scipy-openblas exports ILP64 symbols (int64 integers, and a trailing
    hidden length per Fortran string argument).  A numpy built on another
    LAPACK (MKL, Accelerate) lacks them, and its callers fall back to eigh,
    eigvalsh and svd.
    """
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        zhetrd, dstedc, dsterf, dgesdd = (lib.scipy_zhetrd_64_, lib.scipy_dstedc_64_, lib.scipy_dsterf_64_,
                                          lib.scipy_dgesdd_64_)
    except (OSError, AttributeError):
        return None
    # Arrays go by address, unchecked (ndpointer's checks cost more than a
    # small reduction): each caller passes Fortran-contiguous arrays of the
    # types named here.
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # zhetrd(uplo, n, a, lda, d, e, tau, work, lwork, info, len(uplo)): a, tau, work complex128; d, e float64
    zhetrd.argtypes = [ctypes.c_char_p, i64, ptr, i64, ptr, ptr, ptr, ptr, i64, i64, ctypes.c_size_t]
    # dstedc(compz, n, d, e, z, ldz, work, lwork, iwork, liwork, info, len(compz)): iwork int64, others float64
    dstedc.argtypes = [ctypes.c_char_p, i64, ptr, ptr, ptr, i64, ptr, i64, ptr, i64, i64, ctypes.c_size_t]
    # dsterf(n, d, e, info): d, e float64
    dsterf.argtypes = [i64, ptr, ptr, i64]
    # dgesdd(jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info, len(jobz)): iwork int64, others float64
    dgesdd.argtypes = [ctypes.c_char_p, i64, i64, ptr, i64, ptr, ptr, i64, ptr, i64, ptr, i64, ptr, i64,
                       ctypes.c_size_t]
    zhetrd.restype = dstedc.restype = dsterf.restype = dgesdd.restype = None
    return zhetrd, dstedc, dsterf, dgesdd


@functools.cache
def _blas_threads_getter():
    """() -> the threads that the scipy-openblas behind `_pinned_lapack` runs now, or None without it."""
    from numpy.linalg import _umath_linalg
    return _pinned_lapack() and getattr(ctypes.CDLL(_umath_linalg.__file__), "scipy_openblas_get_num_threads64_", None)


# `_lapack_call` passes an argument by its exact type: an int by reference (ctypes passes a c_int64 by
# reference where a pointer to one is declared), bytes as they are, and an array as a zero-length ctypes
# array over the buffer of a.T, which is a's for a 1-D or Fortran-order a and must be contiguous and writable.
_PASSED = {int: ctypes.c_int64, bytes: bytes}
_OVER_BUFFER = (ctypes.c_char * 0).from_buffer


def _lapack_call(fn, *args) -> None:
    """fn(args..., info, hidden lengths): arrays go by address, ints by reference, and a
    bytes argument is a Fortran string whose length goes last.  ArithmeticError on info != 0."""
    info = ctypes.c_int64(0)
    fn(*[_PASSED[type(a)](a) if type(a) in _PASSED else _OVER_BUFFER(a.T) for a in args], info,
       *[len(a) for a in args if type(a) is bytes])
    if info.value:
        raise ArithmeticError(f"LAPACK {fn.__name__} failed (info {info.value})")


@functools.cache
def _workspace_sizes(n: int) -> tuple[int, int, int]:
    """(lwork of zhetrd('L'), lwork and liwork of dstedc('I')) at order n, from their workspace queries.

    A query reads only the order, so the sizes are cached per n; the array
    arguments it does not touch are one-element placeholders.
    """
    zhetrd, dstedc, *_ = _pinned_lapack()
    ld = max(1, n)
    c, r, i = np.empty(1, dtype=complex), np.empty(1), np.empty(1, dtype=np.int64)
    _lapack_call(zhetrd, b"L", n, c, ld, r, r, c, c, -1)
    lwork = int(c[0].real)
    _lapack_call(dstedc, b"I", n, r, r, r, ld, r, -1, i, -1)
    return max(1, lwork), max(1, int(r[0])), max(1, int(i[0]))


def _tridiagonal(zhetrd, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, subdiagonal) of zhetrd('L')'s real tridiagonal reduction of a, which it overwrites."""
    n = a.shape[0]
    d, e, tau = np.empty(n), np.empty(max(0, n - 1)), np.empty(max(1, n - 1), dtype=complex)
    work = np.empty(_workspace_sizes(n)[0], dtype=complex)
    _lapack_call(zhetrd, b"L", n, a, max(1, n), d, e, tau, work, work.size)
    return d, e


def _eigh_eigenvalues(c: np.ndarray, workspace: np.ndarray) -> np.ndarray:
    """np.linalg.eigh(c)[0] bit for bit, without the eigenvectors of c; c is overwritten.

    eigh (zheevd, jobz='V') takes its eigenvalues from zhetrd('L') of a
    Fortran-order copy of c and dstedc('I') of the tridiagonal; this makes
    the same two calls without the back-transformation and the n x n complex
    eigenvectors.  A complex c in Fortran order is reduced in place; any
    other c is first copied to that layout (a C-order buffer read as Fortran
    is c^T, which equals conj(c) only up to the signs of zeros, and zhetrd
    reads those).  dstedc still forms the tridiagonal's real eigenvectors,
    on which its eigenvalues depend (dsterf's, eigvalsh's, differ in the
    last digits); its real workspace and eigenvector array are carved from
    the caller's `workspace`, contiguous float64 (2 n^2 + 4 n + 8 entries
    suffice, ValueError otherwise) that may hold c itself (as in
    `fermion._covariance_spectrum`).  Unlike zheevd this does not rescale
    a matrix whose largest entry is below ~1e-146 or above ~1e146, so the
    bits match only inside that range.  Falls back to np.linalg.eigh
    without the symbols.
    """
    lapack = _pinned_lapack()
    if lapack is None:
        return np.linalg.eigh(c)[0]
    zhetrd, dstedc, *_ = lapack
    a = np.asarray(c, dtype=complex, order="F")     # c itself if complex and in Fortran order
    n = a.shape[0]
    ld = max(1, n)
    d, e = _tridiagonal(zhetrd, a)
    _, lwork, liwork = _workspace_sizes(n)
    need = lwork + 7 + ld * ld                      # rwork, up to 7 entries to put z on a 64-byte boundary, z
    if workspace.dtype != np.float64 or not workspace.flags.c_contiguous or workspace.size < need:
        raise ValueError(f"workspace must be contiguous float64 of at least {need} entries")
    z_at = lwork + (-(workspace.ctypes.data // 8 + lwork)) % 8
    rwork, z, iwork = workspace[:lwork], workspace[z_at:z_at + ld * ld], np.empty(liwork, dtype=np.int64)
    _lapack_call(dstedc, b"I", n, d, e, z, ld, rwork, lwork, iwork, liwork)
    return d


def _eigvalsh_eigenvalues(c: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(c) bit for bit; c is overwritten as in `_eigh_eigenvalues`.

    eigvalsh (zheevd, jobz='N') takes its eigenvalues from zhetrd('L') and
    dsterf of the tridiagonal, on a Fortran-order copy of c; these are the
    same two calls, on c itself when it is complex and in Fortran order.
    Same rescaling range as `_eigh_eigenvalues`; falls back to
    np.linalg.eigvalsh when numpy's LAPACK lacks the symbols.
    """
    lapack = _pinned_lapack()
    if lapack is None:
        return np.linalg.eigvalsh(c)
    zhetrd, _, dsterf, _ = lapack
    d, e = _tridiagonal(zhetrd, np.asarray(c, dtype=complex, order="F"))
    _lapack_call(dsterf, d.size, d, e)
    return d


@functools.cache
def _svd_workspace(m: int, k: int) -> int:
    """Entries of dgesdd('N')'s work array for an m x k matrix, from its workspace query (cached per shape,
    as `_workspace_sizes`); 0 for an empty matrix or without the symbols, where `_singular_values` uses none."""
    lapack = _pinned_lapack()
    if lapack is None or not m * k:
        return 0
    r, i = np.empty(1), np.empty(1, dtype=np.int64)
    _lapack_call(lapack[3], b"N", m, k, r, m, r, r, 1, r, 1, r, -1, i)
    return max(1, int(r[0]))


def _singular_values(b: np.ndarray, workspace: np.ndarray) -> np.ndarray:
    """np.linalg.svd(b, compute_uv=False) bit for bit; b is overwritten as in `_eigh_eigenvalues`.

    svd takes them from dgesdd('N') of a Fortran-order copy of b, with the
    work array size dgesdd's query returns; this is the same call, on b
    itself when it is float64 and in Fortran order.  `fermion._block`
    copies b into the start of `workspace`, contiguous float64 whose m k +
    lwork entries (`_svd_workspace`; ValueError if fewer) then also hold
    the work array, after b's m k.  Falls back to np.linalg.svd without the
    symbols.
    """
    lapack = _pinned_lapack()
    if lapack is None:
        return np.linalg.svd(b, compute_uv=False)
    a = np.asarray(b, dtype=float, order="F")      # b itself if float64 and in Fortran order
    m, k = a.shape
    if not m * k:
        return np.empty(0)
    lwork = _svd_workspace(m, k)
    if workspace.dtype != np.float64 or not workspace.flags.c_contiguous or workspace.size < m * k + lwork:
        raise ValueError(f"workspace must be contiguous float64 of at least {m * k + lwork} entries")
    s, one, iwork = np.empty(min(m, k)), np.empty(1), np.empty(8 * min(m, k), dtype=np.int64)
    _lapack_call(lapack[3], b"N", m, k, a, m, s, one, 1, one, 1, workspace[m * k:m * k + lwork], lwork, iwork)
    return s


def functional_calculus(w: np.ndarray, u: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """u f(w) u^dagger for eigenpairs (w, u) of a matrix or of each matrix of a stack."""
    return (u * f(w)[..., None, :]) @ _conj_t(u)


def spectral_norms(w: np.ndarray) -> np.ndarray:
    """Operator norm of a Hermitian matrix from its eigenvalues, along the last axis."""
    return np.max(np.abs(w), axis=-1)


def xlogx(w) -> np.ndarray:
    """Elementwise w ln w with 0 ln 0 := 0, the kernel of every entropy here.

    Entries in [-ENTROPY_SLACK * max(1, max |w|), 0], the scale taken per
    spectrum along the last axis, are rounding noise and give 0 (eigh finds
    a zero eigenvalue only to about machine epsilon times the norm); a more
    negative entry raises ArithmeticError.
    """
    w = np.asarray(w, dtype=float)
    if w.size and w.min() < -ENTROPY_SLACK:       # within the slack at any scale otherwise
        v = np.atleast_1d(w)
        low = v < -ENTROPY_SLACK * np.maximum(1.0, np.abs(v).max(axis=-1, keepdims=True))
        if low.any():
            raise ArithmeticError(f"eigenvalue {v[low].min():.3e} below the x ln x slack")
    pos = w > 0.0
    return np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0)


class HermitianOperator:
    """A Hermitian matrix together with its (lazily computed) eigendecomposition."""

    def __init__(self, mat):
        self.mat = hermitian_stack(_square_complex(mat))
        self.dim = self.mat.shape[0]
        self._w: Optional[np.ndarray] = None
        self._u: Optional[np.ndarray] = None
        self._blocks: Optional[tuple] = None  # (P.mask, tau's decomposition of (A, P)), for the last P only

    @classmethod
    def _of_symmetrised(cls, mat: np.ndarray) -> "HermitianOperator":
        """The operator of a matrix the package has just symmetrised, which __init__'s check and copy would not change."""
        op = cls.__new__(cls)
        op.mat, op.dim, op._w, op._u, op._blocks = mat, mat.shape[0], None, None, None
        return op

    def _decompose(self):
        if self._w is None:
            self._w, self._u = np.linalg.eigh(self.mat)
        return self._w, self._u

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._decompose()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._decompose()[1]

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Functional calculus: f applied to the eigenvalues."""
        return functional_calculus(*self._decompose(), f)

    def operator_norm(self) -> float:
        return float(spectral_norms(self.eigenvalues))

    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


class OrthoProjection:
    """Orthogonal projection onto the coordinates `mask`, a sorted index tuple.

    A projection given as a matrix is a mask in its own eigenbasis, and
    everything computed here is unitarily covariant or invariant, so a caller
    with a dense P rotates its operators to P's eigenbasis first.  `from_mask`
    is the one constructor.
    """

    @classmethod
    def from_mask(cls, dim: int, indices: Iterable[int]) -> "OrthoProjection":
        if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 0:
            raise ValueError(f"dim must be a non-negative integer, got {dim!r}")
        indices = list(indices)
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in indices):
            raise ValueError("mask indices must be integers")
        idx = tuple(sorted(set(int(i) for i in indices)))
        if idx and (idx[0] < 0 or idx[-1] >= dim):
            raise ValueError("mask indices out of range")
        p = cls()
        p.dim, p.mask = int(dim), idx
        return p

    @property
    def membership(self) -> np.ndarray:
        """Boolean vector marking the kept coordinates."""
        inside = np.zeros(self.dim, dtype=bool)
        inside[np.asarray(self.mask, dtype=int)] = True
        return inside

    def rank(self) -> int:
        return len(self.mask)

    def __repr__(self):
        return f"OrthoProjection(dim={self.dim}, rank={self.rank()})"
