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


@dataclass(frozen=True)
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


def hermiticity_defect(m):
    """Hilbert-Schmidt norm of m - m^dagger: a float for one matrix, an array
    of one norm per matrix for a (..., n, n) stack. A NaN or infinite entry
    makes its matrix's defect non-finite."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatchError(f"expected square matrices, got shape {a.shape}")
    defects = _hs_norms(np.subtract(a, a.conj().swapaxes(-2, -1), order="C"))
    return float(defects) if a.ndim == 2 else defects


def _check_hermitian(a: np.ndarray, name: str) -> None:
    """Raise NotHermitianError unless each matrix of a complex (..., n, n)
    stack is Hermitian within HERMITICITY_TOL * max(1, ||M||); the norms are
    taken only when the absolute bound fails."""
    defect = hermiticity_defect(a)
    if np.all(defect <= HERMITICITY_TOL):
        return  # within every matrix's bound, so no norm is needed
    bound = HERMITICITY_TOL * np.maximum(1.0, _hs_norms(np.ascontiguousarray(a)))
    # a non-finite entry makes the defect NaN, which fails the comparison,
    # or infinite, which must fail however large the bound
    if not ((defect <= bound) & (defect < np.inf)).all():
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


def expectation(rho, m):
    """Tr(rho M), real part, for Hermitian rho and M; either may be a
    (..., n, n) stack. Two matrices give a float, by numpy's einsum.
    Otherwise the result has rho's stack axes followed by m's, one value per
    (state, observable) pair, and a pair's value does not depend on the
    stacks it sits in; it may differ from the two-matrix value in the last
    bit, since its sum runs in another order.

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
    if r.ndim == o.ndim == 2:
        return complex(np.einsum("ij,ji->", r, o)).real
    # the entrywise products of each pair, summed over the last two axes:
    # each pair's sum then runs in one order, whatever the stacks
    r = r.reshape(r.shape[:-2] + (1,) * (o.ndim - 2) + r.shape[-2:])
    return (r * np.ascontiguousarray(o.swapaxes(-2, -1))).sum(axis=(-2, -1)).real


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
