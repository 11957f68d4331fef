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
Hermitian matrix and point_from_kernel reconstructs the phase point
(its signature and frames) by one eigensolve.  gdtwa_points builds the
4^(F-1) discrete points of the discrete-sampling estimators in closed
form: every such kernel lies in span{e_n, u} with one common spectrum,
so its frames and its column n follow from the point's signs alone.  It
is the reference view of the set: the estimators form the gdtwa block
moments from the drawn signs without it.

States are numbered 1..F in public interfaces.
"""

import numpy as np

from .cps import StiefelSignature, gdtwa_signature
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
    full = row is None
    if full:
        Zs = np.swapaxes(Z, -1, -2)
        a, b = Zs[..., :, None, :], Zs[..., None, :, :]
    else:
        a, b = Z[..., row], Z[..., col]
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
    """The signature of an ascending kernel spectrum, and the indices of its frame eigenvalues.

    gamma is minus the maximally degenerate eigenvalue; the frame
    eigenvalues are the others, descending by |lambda + gamma|, and
    their indices come back in that order.
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
    signs = np.where(lam[frame_idx] + gamma > 0, 1, -1).tolist()
    eigenvalues = (*lam[frame_idx].tolist(), *(-gamma,) * len(chosen))
    return StiefelSignature(lam.size, eigenvalues, len(frame_idx), gamma, tuple(signs)), frame_idx


def classify_kernel(K):
    """Read the component signature off a Hermitian kernel matrix.

    r is F minus the largest degeneracy degree; gamma is minus the
    maximally degenerate eigenvalue (ties broken toward the smallest
    absolute eigenvalue); the frame eigenvalues come back descending by
    |lambda + gamma| with their signs.
    """
    return _classify(hermitian_eig(K).eigenvalues)[0]


def point_from_kernel(K):
    """The phase point (signature, frames (r, F)) whose covariant kernel is K.

    Frame i is sqrt(2|lambda_i + gamma|) times the corresponding
    eigenvector (with the deterministic eigensolver phase), so
    evaluating the covariant kernel at the result reproduces K.
    """
    dec = hermitian_eig(K)
    sig, frame_idx = _classify(dec.eigenvalues)
    return sig, np.sqrt(sig.frame_radii_sq())[:, None] * dec.eigenvectors[:, frame_idx].T


def gdtwa_points(F, n):
    """The 4^(F-1) discrete phase points of initial state n (1-based): (frames, column).

    Point a is one sign choice (delta_i, sigma_i) over the states
    i != n, read off the bits of a: the deltas outer and the sigmas
    inner, each +1 before -1.  Its kernel is
    K = e_n e_n^dagger + u e_n^dagger + e_n u^dagger with
    u_i = (delta_i + i*sigma_i)/2, so |u|^2 = (F-1)/2; column[a] is its
    column n, 1 at n and u elsewhere, (npoints, F).  K has the
    spectrum of gdtwa_signature(F), and the eigenvector of each frame
    eigenvalue lambda is proportional to lambda e_n + u, so frames[a]
    (npoints, r, F) holds sqrt(2|lambda + gamma|) times the unit
    vectors (lambda e_n + u)/|lambda e_n + u|.
    """
    if not 1 <= n <= F:
        raise ValueError(f"state index {n} outside 1..{F}")
    sig = gdtwa_signature(F)
    n0 = n - 1
    shifts = np.arange(2 * F - 3, -1, -1)
    signs = 1.0 - 2.0 * ((np.arange(4 ** (F - 1))[:, None] >> shifts) & 1)
    column = np.ones((len(signs), F), dtype=np.complex128)
    column[:, [i for i in range(F) if i != n0]] = 0.5 * (signs[:, : F - 1] + 1j * signs[:, F - 1 :])
    lam = np.array(sig.eigenvalues[: sig.r])
    scale = np.sqrt(sig.frame_radii_sq() / (lam**2 + (F - 1) / 2.0))
    frames = scale[:, None] * column[:, None, :]
    frames[:, :, n0] = scale * lam
    return frames, column
