"""Mapping kernels, their inverses, and the discrete phase points.

A mapping kernel attaches an F x F Hermitian matrix to every phase
point.  The covariant family is K = sum_i (s_i/2) z_i z_i^dagger -
gamma*I; its single-frame specialization K = (1/2) z z^dagger -
gamma*I is the workhorse, and the companion inverse kernel pairs with
it in the exact-mapping identity

    F * E[ K_mn(X) Kinv_lk(X) ] = delta_mk delta_nl

over the uniform sphere.  kernel_entries is the one evaluator of
sum_i w_i z_i z_i^dagger - shift over batches of frames (a single point
is a batch of one) and kernel_trace the one Tr[M K], which at M = H is
the classical Hamiltonian H_C; inverse_kernel_coefficients gives the
inverse kernel's weight and shift on the sphere at gamma.  The
estimators' density side calls them; the estimators sum the observable
kernel over a block as one moment matrix instead.
classify_kernel reads the component signature off an arbitrary
Hermitian matrix, point_from_kernel reconstructs the phase point (its
signature and frames), and gdtwa_points builds the 2^(2(F-1)) discrete
kernel matrices and frames used by the discrete-sampling estimators.

States are numbered 1..F in public interfaces.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .cps import StiefelSignature
from .qcore import hermitian_eig

# Relative tolerance for grouping kernel eigenvalues into degenerate
# classes (relative to the spectral range).
DEGENERACY_TOL = 1e-8


def _frame_sum(terms):
    """Sum per-frame terms (..., r) over the frame axis; r = 1 is a view."""
    return terms[..., 0] if terms.shape[-1] == 1 else np.sum(terms, axis=-1)


def kernel_entries(Z, row=None, col=None, gamma=0.0, weights=0.5, Gamma=None):
    """Entries [sum_i w_i z_i z_i^dagger - S]_{row, col} at frames Z (..., r, F).

    One entry per leading index of Z; leaving out row and col gives the
    whole (F, F) matrix instead.  weights are the w_i, one scalar or one
    per frame.  The shift S is gamma*I, with gamma a scalar or one value
    per leading index, unless Gamma is given: Gamma is then the shift's
    entries themselves (a scalar, one value per leading index, or the
    (F, F) matrix).
    """
    Zs = np.swapaxes(Z, -1, -2)
    full = row is None
    if full:
        a, b = Zs[..., :, None, :], Zs[..., None, :, :]
    else:
        a, b = Zs[..., row, :], Zs[..., col, :]
    val = _frame_sum(weights * a * np.conj(b))
    if Gamma is not None:
        return val - Gamma
    if full:
        return val - np.multiply.outer(gamma, np.eye(Z.shape[-1]))
    return val - gamma if row == col else val


def kernel_trace(Z, M, gamma=0.0, weights=0.5):
    """Tr[M K] for K = sum_i w_i z_i z_i^dagger - gamma*I at frames Z (..., r, F).

    gamma is a scalar or one value per leading index of Z; one value
    comes back per leading index.
    """
    quad = (np.conj(Z)[..., None, :] @ M @ Z[..., :, None])[..., 0, 0]
    return _frame_sum(weights * quad) - gamma * np.trace(M)


def inverse_kernel_coefficients(F, gamma):
    """(c1, c2) of the inverse kernel c1 z z^dagger - c2 I on the sphere at gamma."""
    shell = 1.0 + F * gamma
    return (1.0 + F) / (2.0 * shell**2), (1.0 - gamma) / shell


def _group_eigenvalues(lam):
    """Group ascending eigenvalues into degenerate classes.

    The grouping gap is DEGENERACY_TOL times the spectral range, so a
    constant spectrum collapses to a single class.
    """
    spread = float(lam[-1] - lam[0])
    gap = DEGENERACY_TOL * spread
    classes = [[0]]
    for i in range(1, lam.size):
        if lam[i] - lam[classes[-1][-1]] <= gap:
            classes[-1].append(i)
        else:
            classes.append([i])
    return classes


def _classify(lam):
    """Group an ascending spectrum into its component's classes.

    Returns (chosen, frame_indices): the maximally degenerate class of
    indices, whose eigenvalue is -gamma, and the indices of the frame
    eigenvalues in the signature's frame order.
    """
    classes = _group_eigenvalues(lam)
    d_max = max(len(c) for c in classes)
    # Maximal-degeneracy class; ties resolve toward the smallest
    # |eigenvalue| (then toward the smaller eigenvalue, for determinism).
    reps = [float(np.mean(lam[c])) for c in classes]
    candidates = [j for j, c in enumerate(classes) if len(c) == d_max]
    best = min(candidates, key=lambda j: (abs(reps[j]), reps[j]))
    chosen = classes[best]
    gamma = -reps[best]
    frame_idx = [i for c in classes if c is not chosen for i in c]
    frame_idx.sort(key=lambda i: (-abs(lam[i] + gamma), -lam[i]))
    return chosen, frame_idx


def _signatures(lams, chosen, frame_idx):
    """One signature per spectrum of lams (npts, F), all grouped as _classify grouped one.

    Each spectrum sets its own gamma and frame eigenvalues; bitwise
    equal spectra share one (immutable) signature.  Also returns the
    squared frame radii 2|lambda_i + gamma|, (npts, r).
    """
    gammas = -np.mean(lams[:, chosen], axis=1)
    shifted = lams[:, frame_idx] + gammas[:, None]
    built = {}
    for lam, g, sh in zip(lams, gammas.tolist(), shifted):
        key = lam.tobytes()
        if key not in built:
            built[key] = StiefelSignature(
                lam.size, (*lam[frame_idx].tolist(), *(-g,) * len(chosen)), len(frame_idx), g,
                tuple(np.where(sh > 0, 1, -1).tolist()),
            )
    return [built[lam.tobytes()] for lam in lams], 2.0 * np.abs(shifted)


def classify_kernel(K):
    """Read the component signature off a Hermitian kernel matrix.

    r is F minus the largest degeneracy degree; gamma is minus the
    maximally degenerate eigenvalue (ties broken toward the smallest
    absolute eigenvalue); the frame eigenvalues come back descending by
    |lambda + gamma| with their signs.
    """
    lam = hermitian_eig(K).eigenvalues
    return _signatures(lam[None], *_classify(lam))[0][0]


def _frames_from_eigensystems(lams, vecs):
    """The signatures and frames (npts, r, F) of a stack of kernels with one common spectrum.

    lams (npts, F) and vecs (npts, F, F) are the kernels' eigensystems.
    The spectrum is classified once, on the first kernel; each point
    takes its gamma and frame radii from its own eigenvalues.  Frame i
    is sqrt(2|lambda_i + gamma|) times the corresponding eigenvector.
    """
    chosen, frame_idx = _classify(lams[0])
    sigs, radii_sq = _signatures(lams, chosen, frame_idx)
    return sigs, np.sqrt(radii_sq)[..., None] * np.swapaxes(vecs[:, :, frame_idx], -1, -2)


def point_from_kernel(K):
    """The phase point (signature, frames (r, F)) whose covariant kernel is K.

    Frame i is sqrt(2|lambda_i + gamma|) times the corresponding
    eigenvector (with the deterministic eigensolver phase), so
    evaluating the covariant kernel at the result reproduces K.
    """
    dec = hermitian_eig(K)
    sigs, Z = _frames_from_eigensystems(dec.eigenvalues[None], dec.eigenvectors[None])
    return sigs[0], Z[0]


@dataclass(frozen=True)
class DiscretePointSet:
    """The discrete phase points of one initial state.

    Point a is one of the 2^(2(F-1)) sign choices (deltas, sigmas) over
    the other states, the deltas outer and the sigmas inner, each +1
    before -1; kernel_values[a] is its kernel matrix, (npoints, F, F),
    and frames[a] its reconstructed frames, (npoints, r, F).
    gdtwa_points caches the sets, so their arrays are read-only.
    """

    F: int
    state: int
    kernel_values: np.ndarray
    frames: np.ndarray


@functools.lru_cache(maxsize=64)
def gdtwa_points(F, n):
    """Build the discrete point set of initial state n (1-based), cached per (F, n).

    Each kernel matrix has entry (n, n) = 1, entries
    (i, n) = (delta_i + i*sigma_i)/2 for i != n, the conjugates across
    the diagonal, and zeros elsewhere; the common spectrum is
    {(1 +- sqrt(2F-1))/2, 0, ..., 0}.  The kernels are diagonalized as
    one stack.
    """
    if not 1 <= n <= F:
        raise ValueError(f"state index {n} outside 1..{F}")
    n0 = n - 1
    others = [i for i in range(F) if i != n0]
    signs = np.array(list(itertools.product((1, -1), repeat=2 * (F - 1))), dtype=np.float64)
    ds, ss = signs.reshape(len(signs), 2, F - 1).transpose(1, 0, 2)
    K = np.zeros((len(signs), F, F), dtype=np.complex128)
    K[:, n0, n0] = 1.0
    K[:, others, n0] = 0.5 * (ds + 1j * ss)
    K[:, n0, others] = 0.5 * (ds - 1j * ss)
    dec = hermitian_eig(K)
    frames = np.ascontiguousarray(_frames_from_eigensystems(dec.eigenvalues, dec.eigenvectors)[1])
    for a in (K, frames):
        a.flags.writeable = False
    return DiscretePointSet(F, n, K, frames)
