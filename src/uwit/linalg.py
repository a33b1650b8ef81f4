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


def hermiticity_defect(m):
    """Hilbert-Schmidt norm of m - m^dagger: a float for one matrix, an array
    of one norm per matrix for a (..., n, n) stack. A NaN or infinite entry
    makes its matrix's defect non-finite."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatchError(f"expected square matrices, got shape {a.shape}")
    # in C order, so that the float view holds each entry's real and imaginary parts
    parts = np.subtract(a, a.conj().swapaxes(-2, -1), order="C").view(float)
    defects = np.sqrt(np.square(parts).sum(axis=(-2, -1)))
    return float(defects) if a.ndim == 2 else defects


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


def expectation(rho, m) -> float:
    """Tr(rho M) for Hermitian rho and M: checks both, returns the real part."""
    r = _as_square(rho)
    o = _as_square(m)
    if r.shape != o.shape:
        raise DimensionMismatchError(f"shape mismatch {r.shape} vs {o.shape}")
    for name, mat in (("rho", r), ("m", o)):
        # a NaN or infinite entry makes the defect NaN, which must fail too
        if not hermiticity_defect(mat) <= HERMITICITY_TOL:
            raise NotHermitianError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    return complex(np.einsum("ij,ji->", r, o)).real


def hermitian_eigen(h) -> Spectrum:
    """Eigendecomposition of a complex Hermitian matrix, or of each matrix in
    a (..., n, n) stack, by one call of LAPACK (numpy's ``eigh``): the one
    eigensolver every uwit decision uses. A slice's result does not depend
    on the stack it sits in.

    Raises DimensionMismatchError unless the last two axes are square,
    NotHermitianError if any matrix is not Hermitian within 1e-10 or has a
    non-finite entry, ConvergenceError if LAPACK does not converge.
    """
    a = np.asarray(h, dtype=complex)
    # a non-finite defect fails the comparison too
    if not np.all(hermiticity_defect(a) <= HERMITICITY_TOL):
        raise NotHermitianError(f"matrix is not Hermitian within {HERMITICITY_TOL}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    return Spectrum(eigenvalues, eigenvectors)
