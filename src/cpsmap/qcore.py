"""Dense complex linear algebra for small finite-state systems.

Everything downstream rests on three operations: a Hermitian
eigensolver with a deterministic eigenvector phase convention, unitary
propagators assembled from the spectral decomposition, and the exact
quantum time correlation function used as the reference that every
trajectory estimator is checked against.

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
        If the asymmetry exceeds ``tol``; the message reports the
        measured maximum asymmetry.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(H)):
        raise ValueError(f"{name} has non-finite entries")
    asym = float(np.max(np.abs(H - H.conj().T)))
    if asym > tol:
        raise NonHermitianError(
            f"{name} is not Hermitian: max asymmetry {asym:.3e} exceeds {tol:.3e}"
        )
    return H


@dataclass
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    eigenvalues are ascending; eigenvectors are the columns of a
    unitary matrix, with the phase of each column fixed so that its
    first component of largest absolute value is real and nonnegative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    def reconstruct(self):
        """Return sum_i lambda_i v_i v_i^dagger."""
        V = self.eigenvectors
        return (V * self.eigenvalues[None, :]) @ V.conj().T


@dataclass
class UnitaryPropagator:
    """exp(-i H t) together with the time it propagates over."""

    matrix: np.ndarray
    time: float

    @property
    def dim(self):
        return self.matrix.shape[0]


def _fix_phases(V):
    """Rotate each column so its first max-modulus component is real >= 0."""
    lead_idx = np.argmax(np.abs(V), axis=0)
    lead = V[lead_idx, np.arange(V.shape[1])]
    mod = np.abs(lead)
    # Columns are unit vectors, so the leading modulus is strictly positive.
    phase = lead / mod
    return V * phase.conj()[None, :]


def hermitian_eig(H, tol=HERMITIAN_TOL):
    """Diagonalize a Hermitian matrix with a reproducible phase convention.

    Parameters
    ----------
    H : array_like
        Hermitian matrix.
    tol : float
        Hermiticity tolerance passed to ``require_hermitian``.

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues and phase-fixed orthonormal eigenvectors.
        Degenerate subspaces come back with an orthonormal basis; only
        the reconstruction is contractual there, not the individual
        vectors.
    """
    H = require_hermitian(H, tol)
    lam, V = np.linalg.eigh(H)
    return SpectralDecomposition(lam, _fix_phases(V))


def propagator_from_decomposition(dec, t):
    """Unitary exp(-i H t) from a precomputed decomposition of H."""
    V = dec.eigenvectors
    U = (V * np.exp(-1j * dec.eigenvalues * t)[None, :]) @ V.conj().T
    return UnitaryPropagator(U, float(t))


def propagator(H, t):
    """exp(-i H t) for Hermitian H, built spectrally.

    Parameters
    ----------
    H : array_like
        Hermitian generator.
    t : float
        Propagation time.

    Returns
    -------
    UnitaryPropagator
    """
    return propagator_from_decomposition(hermitian_eig(H), t)


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
