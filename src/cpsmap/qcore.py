"""Dense complex linear algebra for small finite-state systems.

Everything downstream rests on three operations: a Hermitian
eigensolver with a deterministic eigenvector phase convention, the
unitary propagators exp(-i H t) of a grid of times, assembled from the
spectral decomposition, and the exact quantum time correlation function
used as the reference that every trajectory estimator is checked
against.

Hermitian matrices are plain complex ndarrays; ``require_hermitian``
enforces the symmetry contract at the boundary.  hbar = 1 throughout,
so time carries inverse energy units.
"""

from dataclasses import dataclass

import numpy as np

# Maximum allowed asymmetry |H - H^dagger| on input matrices.
HERMITIAN_TOL = 1e-12
# Unitarity / spectral reconstruction contract.
ORTHO_TOL = 1e-10


class NonHermitianError(ValueError):
    """Input matrix violates Hermitian symmetry beyond tolerance."""


def require_hermitian(H, tol=HERMITIAN_TOL, name="matrix"):
    """Validate H and return it as a square complex128 array.

    Parameters
    ----------
    H : array_like
        Matrix to validate.
    tol : float
        Largest tolerated absolute asymmetry ``max|H - H^dagger|``.
    name : str
        What the matrix is, for the error messages.

    Returns
    -------
    ndarray
        The input as a (F, F) complex128 array.

    Raises
    ------
    ValueError
        If an entry is NaN or infinite.
    NonHermitianError
        If the asymmetry exceeds ``tol``; the message names the worst
        entry pair (0-based) and the measured maximum asymmetry.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    return _require_hermitian_stack(H, tol, name)


def _require_hermitian_stack(H, tol, name):
    """require_hermitian for a complex128 stack (..., F, F); the message names the matrix."""
    if H.ndim < 2 or H.shape[-2] != H.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[-1] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(H)):
        raise ValueError(f"{name} has non-finite entries")
    asym = np.abs(H - np.swapaxes(H.conj(), -1, -2))
    worst = np.unravel_index(np.argmax(asym), asym.shape)
    if asym[worst] > tol:
        *lead, i, j = worst
        where = f"{name}[{', '.join(str(a) for a in lead)}]" if lead else name
        raise NonHermitianError(
            f"{where} is not Hermitian: entries ({i}, {j}) and ({j}, {i}) differ, "
            f"max asymmetry {asym[worst]:.3e} exceeds {tol:.3e}"
        )
    return H


@dataclass
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, or of each matrix of a stack.

    eigenvalues are ascending along the last axis; eigenvectors are the
    columns of a unitary matrix, with the phase of each column fixed so
    that its first component of largest absolute value is real and
    nonnegative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[-1]

    def reconstruct(self):
        """Return sum_i lambda_i v_i v_i^dagger."""
        V = self.eigenvectors
        return (V * self.eigenvalues[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def _fix_phases(V):
    """Rotate each column so its first max-modulus component is real >= 0.

    V is one matrix of columns or a stack (..., F, F) of them.
    """
    lead_idx = np.argmax(np.abs(V), axis=-2)
    lead = np.take_along_axis(V, lead_idx[..., None, :], axis=-2)
    mod = np.abs(lead)
    # Columns are unit vectors, so the leading modulus is strictly positive.
    phase = lead / mod
    return V * phase.conj()


def hermitian_eig(H, tol=HERMITIAN_TOL):
    """Diagonalize a Hermitian matrix with a reproducible phase convention.

    Parameters
    ----------
    H : array_like
        Hermitian matrix, or a stack (..., F, F) of them, each
        diagonalized as if on its own.
    tol : float
        Hermiticity tolerance of the ``require_hermitian`` checks.

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues and phase-fixed orthonormal eigenvectors.
        Degenerate subspaces come back with an orthonormal basis; only
        the reconstruction is contractual there, not the individual
        vectors.
    """
    H = _require_hermitian_stack(np.asarray(H, dtype=np.complex128), tol, "matrix")
    lam, V = np.linalg.eigh(H)
    return SpectralDecomposition(lam, _fix_phases(V))


def propagator_from_decomposition(dec, times):
    """exp(-i H t) for every t of times, shape np.shape(times) + (F, F), from a decomposition of H.

    All times are built by one broadcast; each matrix has the bits of
    its own single-time build.
    """
    V = dec.eigenvectors
    phases = np.exp(-1j * dec.eigenvalues * np.asarray(times, dtype=np.float64)[..., None])
    return (V * phases[..., None, :]) @ V.conj().T


def exact_tcf(rho, A, H, t_grid):
    """Exact correlation series Tr[rho U(t)^dagger A U(t)].

    rho and A may be arbitrary square complex matrices (state-transfer
    elements |n><m| are the common non-Hermitian case); H must be
    Hermitian.  For Hermitian rho and A the result is real to within
    1e-12 and the imaginary part is returned as computed.

    Parameters
    ----------
    rho, A : array_like
        Density-like and observable-like matrices, same dimension as H.
    H : array_like
        Hermitian generator of the dynamics.
    t_grid : array_like
        Times at which to evaluate the series.

    Returns
    -------
    ndarray
        Complex series, one value per entry of t_grid.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    A = np.asarray(A, dtype=np.complex128)
    dec = hermitian_eig(H)
    if rho.shape != (dec.dim, dec.dim) or A.shape != (dec.dim, dec.dim):
        raise ValueError(
            f"dimension mismatch: rho {rho.shape}, A {A.shape}, H dim {dec.dim}"
        )
    V = dec.eigenvectors
    lam = dec.eigenvalues
    rho_e = V.conj().T @ rho @ V
    A_e = V.conj().T @ A @ V
    t = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    # In the eigenbasis the trace collapses onto pair phases:
    # Tr[rho U^dag A U](t) = sum_ab rho_e[a,b] A_e[b,a] exp(i (lam_b - lam_a) t).
    coef = rho_e * A_e.T
    gap = lam[None, :] - lam[:, None]
    series = np.einsum("ab,tab->t", coef, np.exp(1j * t[:, None, None] * gap[None]))
    return series
