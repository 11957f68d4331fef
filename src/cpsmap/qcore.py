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

# Maximum allowed asymmetry |H - H^dagger| on input matrices, per unit of
# max(1, max|H_ij|).
HERMITIAN_TOL = 1e-12


class NonHermitianError(ValueError):
    """Input matrix violates Hermitian symmetry beyond tolerance."""


def require_hermitian(H, tol=HERMITIAN_TOL, name="matrix"):
    """Validate H and return it as a square complex128 array.

    Parameters
    ----------
    H : array_like
        Matrix to validate.
    tol : float
        Largest tolerated asymmetry relative to the matrix scale:
        ``max|H - H^dagger| <= tol * max(1, max|H_ij|)``.
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
        If the asymmetry exceeds the scaled tolerance; the message names
        the worst entry pair (0-based), the measured maximum asymmetry
        and the scaled tolerance.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"{name} must be square, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError(f"{name} dimension must be at least 1")
    if not np.all(np.isfinite(H)):
        raise ValueError(f"{name} has non-finite entries")
    asym = np.abs(H - H.conj().T)
    limit = tol * max(1.0, np.max(np.abs(H)))
    i, j = np.unravel_index(np.argmax(asym), asym.shape)
    if asym[i, j] > limit:
        raise NonHermitianError(
            f"{name} is not Hermitian: entries ({i}, {j}) and ({j}, {i}) differ, "
            f"max asymmetry {asym[i, j]:.3e} exceeds "
            f"{tol:.3g} * max(1, max|entry|) = {limit:.3e}"
        )
    return H


@dataclass
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    eigenvalues are ascending; eigenvectors are the columns of a unitary
    matrix, with the phase of each column fixed so that its first
    component of largest absolute value is real and nonnegative.
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
    """Rotate each column of V so its first max-modulus component is real >= 0."""
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
        Hermitian matrix.
    tol : float or None
        Hermiticity tolerance of the ``require_hermitian`` check; None
        skips the check, for a matrix that has already passed it.

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues and phase-fixed orthonormal eigenvectors.
        Degenerate subspaces come back with an orthonormal basis; only
        the reconstruction is contractual there, not the individual
        vectors.
    """
    if tol is not None:
        H = require_hermitian(H, tol)
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
        Density-like and observable-like matrices, same dimension as H;
        or two stacks (p, F, F) of them, one series per pair, all from
        one decomposition of H.
    H : array_like
        Hermitian generator of the dynamics.
    t_grid : array_like
        Times at which to evaluate the series.

    Returns
    -------
    ndarray
        Complex series, one value per entry of t_grid: shape (n_times,)
        for one pair, (p, n_times) for stacks, each row bitwise equal to
        its own single-pair call.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    A = np.asarray(A, dtype=np.complex128)
    dec = hermitian_eig(H)
    F = dec.dim
    if rho.shape != A.shape or rho.ndim not in (2, 3) or rho.shape[-2:] != (F, F):
        raise ValueError(f"dimension mismatch: rho {rho.shape}, A {A.shape}, H dim {F}")
    V = dec.eigenvectors
    lam = dec.eigenvalues
    rho_e = V.conj().T @ rho @ V
    A_e = V.conj().T @ A @ V
    t = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    # In the eigenbasis the trace collapses onto pair phases:
    # Tr[rho U^dag A U](t) = sum_ab rho_e[a,b] A_e[b,a] exp(i (lam_b - lam_a) t).
    coef = rho_e * np.swapaxes(A_e, -1, -2)
    gap = lam[None, :] - lam[:, None]
    series = np.einsum("...ab,tab->...t", coef, np.exp(1j * t[:, None, None] * gap[None]))
    return series
