"""Mapping kernels, their inverses, and the discrete phase points.

A mapping kernel attaches an F x F Hermitian matrix to every phase
point.  The covariant family is K = sum_i (s_i/2) z_i z_i^dagger -
gamma*I; its single-frame specialization K = (1/2) z z^dagger -
gamma*I is the workhorse, and the companion inverse kernel pairs with
it in the exact-mapping identity

    F * E[ K_mn(X) Kinv_lk(X) ] = delta_mk delta_nl

over the uniform sphere.  classify_kernel reads the component
signature off an arbitrary Hermitian matrix, point_from_kernel
reconstructs the phase point, and gdtwa_points builds the 2^(2(F-1))
discrete kernel matrices used by the discrete-sampling estimators.

States are numbered 1..F in public interfaces.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .cps import (
    DEGENERACY_TOL,
    StiefelPoint,
    StiefelSignature,
    gdtwa_signature,
)
from .qcore import hermitian_eig, require_hermitian


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate.

    kinds:
      cps_covariant(gamma)       K = (1/2) z z^dagger - gamma*I  (r = 1)
      cps_inverse(gamma)         the paired inverse kernel        (r = 1)
      cmmcv(Gamma)               K = (1/2) z z^dagger - Gamma     (r = 1)
      gdtwa                      covariant kernel on the discrete-sampling
                                 component (single sphere for F = 2,
                                 two frames with signs (+1, -1) for F >= 3)
      stiefel_covariant(sig)     K = sum_i (s_i/2) z_i z_i^dagger - gamma*I
    """

    kind: str
    F: int
    gamma: float = None
    Gamma: np.ndarray = None
    signature: StiefelSignature = None

    @staticmethod
    def cps_covariant(F, gamma):
        return KernelSpec(kind="cps_covariant", F=F, gamma=float(gamma))

    @staticmethod
    def cps_inverse(F, gamma):
        return KernelSpec(kind="cps_inverse", F=F, gamma=float(gamma))

    @staticmethod
    def cmmcv(Gamma):
        Gamma = require_hermitian(Gamma)
        return KernelSpec(kind="cmmcv", F=Gamma.shape[0], Gamma=Gamma)

    @staticmethod
    def gdtwa(F):
        return KernelSpec(kind="gdtwa", F=F, signature=gdtwa_signature(F))

    @staticmethod
    def stiefel_covariant(signature):
        return KernelSpec(
            kind="stiefel_covariant",
            F=signature.F,
            gamma=signature.gamma,
            signature=signature,
        )


def _covariant_from_frames(z, signs, gamma):
    K = np.zeros((z.shape[1], z.shape[1]), dtype=np.complex128)
    for zi, s in zip(z, signs):
        K += (0.5 * s) * np.outer(zi, zi.conj())
    return K - gamma * np.eye(z.shape[1])


def eval_kernel(spec, point):
    """Evaluate a kernel at a phase point; returns a Hermitian matrix.

    Covariant kinds contract the point's frames with the sign factors;
    the single-frame kinds insist on r = 1 input.
    """
    if point.F != spec.F:
        raise ValueError(f"point dimension {point.F} does not match spec F={spec.F}")
    if spec.kind == "cps_covariant":
        if point.r != 1:
            raise ValueError(f"single-sphere kernel needs r=1, point has r={point.r}")
        return _covariant_from_frames(point.z, (1,), spec.gamma)
    if spec.kind == "cps_inverse":
        return eval_inverse_kernel(spec.gamma, point)
    if spec.kind == "cmmcv":
        if point.r != 1:
            raise ValueError(f"commutator kernel needs r=1, point has r={point.r}")
        z = point.z[0]
        return 0.5 * np.outer(z, z.conj()) - spec.Gamma
    if spec.kind in ("gdtwa", "stiefel_covariant"):
        sig = spec.signature
        if point.r != sig.r:
            raise ValueError(f"point has r={point.r}, spec expects r={sig.r}")
        return _covariant_from_frames(point.z, sig.signs, sig.gamma)
    raise ValueError(f"unknown kernel kind {spec.kind!r}")


def inverse_kernel_coefficients(F, gamma):
    """(c1, c2) of the inverse kernel c1 z z^dagger - c2 I on the sphere at gamma."""
    shell = 1.0 + F * gamma
    return (1.0 + F) / (2.0 * shell**2), (1.0 - gamma) / shell


def eval_inverse_kernel(gamma, point):
    """Inverse kernel entries on the sphere at gamma.

    [Kinv]_mn = (1+F)/(2(1+F*gamma)^2) * z_m conj(z_n)
                - (1-gamma)/(1+F*gamma) * delta_mn

    The point must satisfy the sphere constraint at gamma to 1e-8.
    """
    F = point.F
    if gamma <= -1.0 / F:
        raise ValueError(f"gamma={gamma} must exceed -1/F = {-1.0 / F}")
    if point.r != 1:
        raise ValueError(f"inverse kernel needs r=1, point has r={point.r}")
    z = point.z[0]
    shell = 1.0 + F * gamma
    violation = abs(0.5 * float(np.sum(np.abs(z) ** 2)) - shell)
    if violation > 1e-8:
        raise ValueError(
            f"point violates the sphere constraint at gamma={gamma}: "
            f"residual {violation:.3e}"
        )
    c1, c2 = inverse_kernel_coefficients(F, gamma)
    return c1 * np.outer(z, z.conj()) - c2 * np.eye(F)


def _group_eigenvalues(lam, degeneracy_tol):
    """Group ascending eigenvalues into degenerate classes.

    The grouping gap is degeneracy_tol times the spectral range, so a
    constant spectrum collapses to a single class.
    """
    spread = float(lam[-1] - lam[0])
    gap = degeneracy_tol * spread
    classes = [[0]]
    for i in range(1, lam.size):
        if lam[i] - lam[classes[-1][-1]] <= gap:
            classes[-1].append(i)
        else:
            classes.append([i])
    return classes


def _classify(lam, degeneracy_tol):
    """Signature data from an ascending spectrum.

    Returns (signature, frame_indices) where frame_indices point into
    lam in the signature's frame order.
    """
    F = lam.size
    classes = _group_eigenvalues(lam, degeneracy_tol)
    counts = [len(c) for c in classes]
    d_max = max(counts)
    # Maximal-degeneracy class; ties resolve toward the smallest
    # |eigenvalue| (then toward the smaller eigenvalue, for determinism).
    candidates = [c for c in classes if len(c) == d_max]
    rep = lambda c: float(np.mean(lam[c]))
    chosen = min(candidates, key=lambda c: (abs(rep(c)), rep(c)))
    gamma = -rep(chosen)
    frame_idx = [i for c in classes if c is not chosen for i in c]
    frame_idx.sort(key=lambda i: (-abs(lam[i] + gamma), -lam[i]))
    r = F - d_max
    eigenvalues = tuple(float(lam[i]) for i in frame_idx) + (-gamma,) * d_max
    signs = tuple(1 if lam[i] + gamma > 0 else -1 for i in frame_idx)
    sig = StiefelSignature(F, eigenvalues, r, gamma, signs, degeneracy_tol)
    return sig, frame_idx


def classify_kernel(K, degeneracy_tol=DEGENERACY_TOL):
    """Read the component signature off a Hermitian kernel matrix.

    r is F minus the largest degeneracy degree; gamma is minus the
    maximally degenerate eigenvalue (ties broken toward the smallest
    absolute eigenvalue); the frame eigenvalues come back descending by
    |lambda + gamma| with their signs.
    """
    dec = hermitian_eig(K)
    sig, _ = _classify(dec.eigenvalues, degeneracy_tol)
    return sig


def point_from_kernel(K, degeneracy_tol=DEGENERACY_TOL):
    """Reconstruct the phase point whose covariant kernel is K.

    Frame i is sqrt(2|lambda_i + gamma|) times the corresponding
    eigenvector (with the deterministic eigensolver phase), so
    evaluating the covariant kernel at the result reproduces K.
    """
    dec = hermitian_eig(K)
    sig, frame_idx = _classify(dec.eigenvalues, degeneracy_tol)
    scales = np.sqrt(sig.frame_radii_sq())
    Z = np.zeros((sig.r, sig.F), dtype=np.complex128)
    for row, (i, s) in enumerate(zip(frame_idx, scales)):
        Z[row] = s * dec.eigenvectors[:, i]
    return StiefelPoint(Z.real, Z.imag, sig)


@dataclass
class DiscretePointSet:
    """The discrete phase points of one initial state.

    indices[a] = (deltas, sigmas) with each entry +-1, enumerating the
    2^(2(F-1)) sign choices over the other states; kernel_values[a] is
    the kernel matrix at that point and points[a] the reconstructed
    phase point.  frames stacks the point frames as one
    (npoints, r, F) complex array for vectorized use.
    """

    F: int
    state: int
    indices: list
    kernel_values: list
    points: list

    @property
    def frames(self):
        return np.stack([pt.z for pt in self.points])


def gdtwa_points(F, n):
    """Build the discrete point set of initial state n (1-based).

    Each kernel matrix has entry (n, n) = 1, entries
    (i, n) = (delta_i + i*sigma_i)/2 for i != n, the conjugates across
    the diagonal, and zeros elsewhere; the common spectrum is
    {(1 +- sqrt(2F-1))/2, 0, ..., 0}.
    """
    if not 1 <= n <= F:
        raise ValueError(f"state index {n} outside 1..{F}")
    n0 = n - 1
    others = [i for i in range(F) if i != n0]
    indices = []
    kernel_values = []
    points = []
    for deltas in itertools.product((1, -1), repeat=F - 1):
        for sigmas in itertools.product((1, -1), repeat=F - 1):
            K = np.zeros((F, F), dtype=np.complex128)
            K[n0, n0] = 1.0
            for i, d, s in zip(others, deltas, sigmas):
                K[i, n0] = 0.5 * (d + 1j * s)
                K[n0, i] = 0.5 * (d - 1j * s)
            indices.append((deltas, sigmas))
            kernel_values.append(K)
            points.append(point_from_kernel(K))
    return DiscretePointSet(F, n, indices, kernel_values, points)
