"""Finite Hermitian operators with cached spectral data, and orthogonal projections."""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, Iterable, Optional

import numpy as np

HERMITICITY_TOL = 1e-12
RECOMPOSITION_TOL = 1e-9
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

    For tolerance tests only: the stacked sum, one einsum over the real and
    imaginary parts side by side, runs in another order than np.linalg.norm's
    dot, so its last bits can differ.  A single matrix keeps np.linalg.norm:
    einsum on the strided real and imaginary parts of a large one raised the
    peak RSS of a 300-site mi run by about 1 MiB.
    """
    if m.ndim == 2:
        return np.linalg.norm(m)
    v = np.ascontiguousarray(m).view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", v, v))


def check_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    """ValueError unless each matrix of a complex (..., n, n) stack is Hermitian to
    HERMITICITY_TOL relative to max(1, its Frobenius norm)."""
    defect = _frobenius(m - _conj_t(m))
    if (defect > HERMITICITY_TOL * np.maximum(1.0, _frobenius(m))).any():
        raise ValueError(f"{what} is not Hermitian (defect {np.max(defect):.3e})")


def symmetrised(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of a matrix or of each matrix of a stack."""
    return 0.5 * (m + _conj_t(m))


def hermitian_stack(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Symmetrised copy of a complex (..., n, n) stack; ValueError unless each is Hermitian to HERMITICITY_TOL."""
    # The conjugate is formed twice so that no full-size copy outlives its use.
    check_hermitian(m, what)
    return symmetrised(m)


def hermitian_matrix(mat, what: str = "matrix") -> np.ndarray:
    """Square complex matrix, symmetrised; ValueError unless Hermitian to HERMITICITY_TOL."""
    return hermitian_stack(_square_complex(mat), what)


def checked_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a Hermitian matrix or (..., n, n) stack, one LAPACK call for the stack.

    ArithmeticError if some u diag(w) u^dagger misses its matrix by more than
    RECOMPOSITION_TOL relative to max(1, ||m||).
    """
    w, u = np.linalg.eigh(m)
    recomp = _frobenius((u * w[..., None, :]) @ _conj_t(u) - m)
    if (recomp > RECOMPOSITION_TOL * np.maximum(1.0, _frobenius(m))).any():
        raise ArithmeticError(f"eigendecomposition failed to recompose ({np.max(recomp):.3e})")
    return w, u


@functools.cache
def _pinned_lapack():
    """(zhetrd, dstedc, dsterf) of the LAPACK behind np.linalg, or None.

    Resolved through numpy's own _umath_linalg handle, whose bundled
    scipy-openblas exports ILP64 symbols (int64 integers, and a trailing
    hidden length per Fortran string argument).  A numpy built on another
    LAPACK (MKL, Accelerate) lacks them, and its callers fall back to eigh
    and eigvalsh.
    """
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        zhetrd, dstedc, dsterf = lib.scipy_zhetrd_64_, lib.scipy_dstedc_64_, lib.scipy_dsterf_64_
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
    zhetrd.restype = dstedc.restype = dsterf.restype = None
    return zhetrd, dstedc, dsterf


def _lapack_call(fn, *args) -> None:
    """fn(args..., info, hidden lengths): arrays go by address, ints by reference, and a
    bytes argument is a Fortran string whose length goes last.  ArithmeticError on info != 0."""
    info = ctypes.c_int64(0)
    refs = [a.ctypes.data if isinstance(a, np.ndarray) else a if isinstance(a, bytes)
            else ctypes.byref(ctypes.c_int64(a)) for a in args]
    fn(*refs, ctypes.byref(info), *(len(a) for a in args if isinstance(a, bytes)))
    if info.value:
        raise ArithmeticError(f"LAPACK {fn.__name__} failed (info {info.value})")


@functools.cache
def _workspace_sizes(n: int) -> tuple[int, int, int]:
    """(lwork of zhetrd('L'), lwork and liwork of dstedc('I')) at order n, from their workspace queries.

    A query reads only the order, so the sizes are cached per n; the array
    arguments it does not touch are one-element placeholders.
    """
    zhetrd, dstedc, _ = _pinned_lapack()
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


def _eigh_eigenvalues(c: np.ndarray, workspace: Optional[np.ndarray] = None) -> np.ndarray:
    """np.linalg.eigh(c)[0] bit for bit, without the eigenvectors of c; c is overwritten.

    eigh (zheevd, jobz='V') copies c to a Fortran-order buffer that holds c
    itself and takes its eigenvalues from zhetrd('L'), the reduction to a
    real tridiagonal, and dstedc('I') of that tridiagonal; this makes the
    same two calls and skips the back-transformation and the n x n complex
    eigenvector output.  A complex c in Fortran order is that buffer: zhetrd
    reduces it in place, so c holds garbage afterwards.  Any other c is
    first copied to that layout, as eigh copies it.  A C-order buffer
    cannot stand in for the copy: read in Fortran order it is c^T, which
    equals conj(c) only up to the signs of zeros, and zhetrd reads those.
    dstedc still forms the tridiagonal's real eigenvectors: its
    divide-and-conquer eigenvalues depend on them, and dsterf's (eigvalsh's)
    differ in the last digits.  Its real workspace and n x n eigenvector
    array are carved from `workspace`, a contiguous float64 array (2 n^2 +
    4 n + 8 entries always suffice) that may hold c itself, dead once zhetrd
    has reduced it, as in `fermion.sigma_trace`; without one they are carved
    from a fresh array allocated after zhetrd.  zheevd would first
    rescale a matrix whose largest entry is below ~1e-146 or above ~1e146;
    this does not, so its bits match eigh's only for matrices inside that
    range.  Falls back to np.linalg.eigh when numpy's LAPACK lacks the
    symbols.
    """
    lapack = _pinned_lapack()
    if lapack is None:
        return np.linalg.eigh(c)[0]
    zhetrd, dstedc, _ = lapack
    a = np.asarray(c, dtype=complex, order="F")     # c itself if complex and in Fortran order
    del c
    n = a.shape[0]
    ld = max(1, n)
    d, e = _tridiagonal(zhetrd, a)
    del a                       # a copy of c goes before dstedc's n x n arrays are allocated
    _, lwork, liwork = _workspace_sizes(n)
    need = lwork + 7 + ld * ld                      # rwork, up to 7 entries to put z on a 64-byte boundary, z
    if workspace is None:
        workspace = np.empty(need)
    elif workspace.dtype != np.float64 or not workspace.flags.c_contiguous or workspace.size < need:
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
    zhetrd, _, dsterf = lapack
    d, e = _tridiagonal(zhetrd, np.asarray(c, dtype=complex, order="F"))
    _lapack_call(dsterf, d.size, d, e)
    return d


def functional_calculus(w: np.ndarray, u: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """u f(w) u^dagger for eigenpairs (w, u) of a matrix or of each matrix of a stack."""
    return (u * f(w)[..., None, :]) @ _conj_t(u)


def spectral_norms(w: np.ndarray) -> np.ndarray:
    """Operator norm of a Hermitian matrix from its eigenvalues, along the last axis."""
    return np.max(np.abs(w), axis=-1)


def xlogx(w) -> np.ndarray:
    """Elementwise w ln w with 0 ln 0 := 0, the kernel of every entropy here.

    Entries in [-ENTROPY_SLACK, 0] are rounding noise and give 0; a more
    negative entry raises ArithmeticError.
    """
    w = np.asarray(w, dtype=float)
    if w.size and w.min() < -ENTROPY_SLACK:
        raise ArithmeticError(f"eigenvalue {w.min():.3e} below the x ln x slack")
    pos = w > 0.0
    return np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0)


class HermitianOperator:
    """A Hermitian matrix together with its (lazily computed) eigendecomposition."""

    def __init__(self, mat):
        self.mat = hermitian_matrix(mat)
        self.dim = self.mat.shape[0]
        self._w: Optional[np.ndarray] = None
        self._u: Optional[np.ndarray] = None

    def _decompose(self):
        if self._w is None:
            self._w, self._u = checked_eigh(self.mat)
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
    """Orthogonal projection, either a coordinate-block mask or a general idempotent.

    A mask projection keeps only its sorted index tuple; its dense matrix is
    built on first access to `mat`.
    """

    def __init__(self, mat):
        m = hermitian_matrix(mat, "projection")
        if np.linalg.norm(m @ m - m) > 1e-12 * max(1.0, float(np.linalg.norm(m))):
            raise ValueError("projection is not idempotent")
        self._mat: Optional[np.ndarray] = m
        self.dim = m.shape[0]
        self.mask: Optional[tuple] = None

    @classmethod
    def from_mask(cls, dim: int, indices: Iterable[int]) -> "OrthoProjection":
        idx = tuple(sorted(set(int(i) for i in indices)))
        if idx and (idx[0] < 0 or idx[-1] >= dim):
            raise ValueError("mask indices out of range")
        # A diagonal 0/1 matrix is Hermitian and idempotent by construction.
        p = cls.__new__(cls)
        p._mat, p.dim, p.mask = None, dim, idx
        return p

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            idx = np.asarray(self.mask, dtype=int)
            m = np.zeros((self.dim, self.dim), dtype=complex)
            m[idx, idx] = 1.0
            self._mat = m
        return self._mat

    @property
    def membership(self) -> np.ndarray:
        """Boolean vector marking the kept coordinates of a mask projection."""
        if self.mask is None:
            raise ValueError("membership is defined for mask projections only")
        inside = np.zeros(self.dim, dtype=bool)
        inside[np.asarray(self.mask, dtype=int)] = True
        return inside

    def rank(self) -> int:
        if self.mask is not None:
            return len(self.mask)
        return int(round(float(np.real(np.trace(self.mat)))))

    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the range, as columns."""
        if self.mask is not None:
            idx = np.asarray(self.mask, dtype=int)
            b = np.zeros((self.dim, idx.size), dtype=complex)
            b[idx, np.arange(idx.size)] = 1.0
            return b
        w, u = np.linalg.eigh(self.mat)
        return u[:, w > 0.5]

    def __repr__(self):
        return f"OrthoProjection(dim={self.dim}, rank={self.rank()})"


def commutator_norm(p: OrthoProjection, q: OrthoProjection) -> float:
    return float(np.linalg.norm(p.mat @ q.mat - q.mat @ p.mat))
