"""Dense complex-matrix substrate: Kronecker products, the Hermitian
eigendecomposition (LAPACK through numpy), partial transposition,
expectation values and the Hilbert-Schmidt norm. Everything operates on plain
numpy arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, NotHermitianError

HERMITICITY_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, ID2):
    _m.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a
    (..., n, n) stack, with the stack axes leading both fields.

    ``eigenvalues[..., i]`` are real and ascending in ``i``; column ``i`` of
    ``eigenvectors[...]`` is the unit eigenvector for ``eigenvalues[..., i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def _hs_norms(a: np.ndarray):
    """Hilbert-Schmidt norm of each matrix of a C-ordered complex (..., n, n)
    stack, from the float view that holds each entry's real and imaginary
    parts: a NaN or infinite entry gives a non-finite norm, with no warning."""
    return np.sqrt(np.square(a.view(float)).sum(axis=(-2, -1)))


def _adjoint_difference(m) -> np.ndarray:
    """m - m^dagger, C-ordered, for a square matrix or a (..., n, n) stack."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatchError(f"expected square matrices, got shape {a.shape}")
    return np.subtract(a, a.conj().swapaxes(-2, -1), order="C")


def hermiticity_defect(m):
    """Hilbert-Schmidt norm of m - m^dagger: a float for one matrix, an array
    of one norm per matrix for a (..., n, n) stack. A NaN or infinite entry
    makes its matrix's defect non-finite, with no warning."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        defects = _hs_norms(_adjoint_difference(m))
    return float(defects) if defects.ndim == 0 else defects


def _check_hermitian(a: np.ndarray, name: str) -> None:
    """Raise NotHermitianError unless each matrix of a complex (..., n, n)
    stack is Hermitian within HERMITICITY_TOL * max(1, ||M||). A non-finite
    entry fails before any inf - inf is subtracted; an exactly Hermitian stack
    returns at once; otherwise the defects come from the same difference."""
    if np.count_nonzero(np.isfinite(a)) == a.size:  # all finite, counted faster than by .all()
        difference = _adjoint_difference(a)
        if not difference.any():
            return  # exactly Hermitian: every defect is 0
        defect = _hs_norms(difference)
        bound = HERMITICITY_TOL * np.maximum(1.0, _hs_norms(np.ascontiguousarray(a)))
        # a difference that overflows is infinite, which must fail however large the bound
        if ((defect <= bound) & (defect < np.inf)).all():
            return
    raise NotHermitianError(f"{name} is not Hermitian within {HERMITICITY_TOL} * max(1, ||{name}||)")


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(_as_square(a), _as_square(b))


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr(A A^dagger))."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def partial_transpose(m, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second tensor factor of a bipartite operator, or of each
    operator in a (..., n, n) stack.

    ``dims = (dA, dB)`` fixes the product-basis split; the entry at
    ((i,k),(j,l)) moves to ((i,l),(j,k)).
    """
    a = np.asarray(m, dtype=complex)
    da, db = dims
    if a.shape[-2:] != (da * db, da * db):
        raise DimensionMismatchError(f"dims {dims} do not factor matrices of shape {a.shape}")
    return a.reshape(*a.shape[:-2], da, db, da, db).swapaxes(-3, -1).reshape(a.shape)


def _traces(r: np.ndarray, o: np.ndarray):
    """Re Tr(r M), unchecked, for each matrix of ``r`` and M of ``o``: uwit's
    one trace kernel, with r's stack axes then o's (a float for two matrices).
    A pair's entrywise products are summed in one order, whatever the stacks."""
    r = r.reshape(r.shape[:-2] + (1,) * (o.ndim - 2) + r.shape[-2:])
    values = (r * np.ascontiguousarray(o.swapaxes(-2, -1))).sum(axis=(-2, -1)).real
    return float(values) if values.ndim == 0 else values


def expectation(rho, m):
    """Tr(rho M), real part, for Hermitian rho and M, by _traces; either may
    be a (..., n, n) stack, and a pair's value does not depend on the stacks
    it sits in.

    Each matrix must be Hermitian within HERMITICITY_TOL * max(1, ||M||),
    which for a density matrix is HERMITICITY_TOL itself; a non-finite
    entry fails too.
    """
    r = np.asarray(rho, dtype=complex)
    o = np.asarray(m, dtype=complex)
    if r.shape[-2:] != o.shape[-2:]:
        raise DimensionMismatchError(f"shape mismatch {r.shape} vs {o.shape}")
    _check_hermitian(r, "rho")
    _check_hermitian(o, "m")
    return _traces(r, o)


def hermitian_eigen(h) -> Spectrum:
    """Eigendecomposition of a complex Hermitian matrix, or of each matrix in
    a (..., n, n) stack, by one call of LAPACK (numpy's ``eigh``): the one
    eigensolver every uwit decision uses. A slice's result does not depend
    on the stack it sits in.

    Raises DimensionMismatchError unless the last two axes are square,
    NotHermitianError if any matrix fails expectation's Hermiticity bound,
    ConvergenceError if LAPACK does not converge.
    """
    a = np.asarray(h, dtype=complex)
    _check_hermitian(a, "matrix")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    return Spectrum(eigenvalues, eigenvectors)
