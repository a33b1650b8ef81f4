"""Dense complex-matrix substrate: Kronecker products, a cyclic Jacobi
eigensolver for Hermitian matrices, partial transposition, expectation values
and the Hilbert-Schmidt norm. Everything operates on plain numpy arrays."""

from __future__ import annotations

import math
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
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column ``i`` of ``eigenvectors``
    is the unit eigenvector for ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(m) -> float:
    """Hilbert-Schmidt norm of m - m^dagger."""
    a = _as_square(m)
    return float(np.linalg.norm(a - a.conj().T))


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
    """Tr(rho M) for Hermitian rho and M; returns the (checked) real part."""
    r = _as_square(rho)
    o = _as_square(m)
    if r.shape != o.shape:
        raise DimensionMismatchError(f"shape mismatch {r.shape} vs {o.shape}")
    for name, mat in (("rho", r), ("m", o)):
        if hermiticity_defect(mat) > HERMITICITY_TOL:
            raise NotHermitianError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    t = complex(np.einsum("ij,ji->", r, o))
    if abs(t.imag) > HERMITICITY_TOL:
        raise NotHermitianError(f"trace has non-real part {t.imag:g}")
    return t.real


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def hermitian_eigen(h, max_sweeps: int = 100, off_tol: float = 1e-12) -> Spectrum:
    """Eigendecomposition of a complex Hermitian matrix by cyclic Jacobi rotations.

    Sweeps annihilate each off-diagonal pivot in turn with a unitary 2x2
    rotation; iteration stops once the Hilbert-Schmidt mass of the
    off-diagonal part drops below ``off_tol``. Built for small dense
    matrices (dim <= ~16) where robustness matters more than speed.

    Raises NotHermitianError if the input is not Hermitian within 1e-10,
    ConvergenceError if ``max_sweeps`` sweeps do not reach ``off_tol``.
    """
    a = _as_square(h).copy()
    if hermiticity_defect(a) > HERMITICITY_TOL:
        raise NotHermitianError(f"matrix is not Hermitian within {HERMITICITY_TOL}")
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    skip_tol = off_tol / (2.0 * n * n)

    for _ in range(max_sweeps):
        if _offdiag_norm(a) < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = abs(a[p, q])
                if g <= skip_tol:
                    continue
                phase = a[p, q] / g
                tau = (a[q, q].real - a[p, p].real) / (2.0 * g)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # A <- J^dagger A J with J the (p,q) plane rotation
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - s * np.conj(phase) * aq
                a[:, q] = s * phase * ap + c * aq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * phase * rq
                a[q, :] = s * np.conj(phase) * rp + c * rq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * np.conj(phase) * vq
                v[:, q] = s * phase * vp + c * vq
    else:
        if _offdiag_norm(a) >= off_tol:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {max_sweeps} sweeps"
            )

    eigenvalues = np.diag(a).real
    order = np.argsort(eigenvalues, kind="stable")
    return Spectrum(eigenvalues[order].copy(), v[:, order].copy())
