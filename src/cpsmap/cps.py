"""Geometry, measures and samplers for the constraint phase space.

The phase space of an F-state system is a disjoint union of connected
components.  Each component is the set of orthonormal r-frames in C^F
(scaled column by column), labeled by the spectrum of its mapping
kernel: r counts the eigenvalues outside the maximally degenerate
class, gamma is minus the maximally degenerate eigenvalue, and each
frame column i carries a sign s_i and a squared radius 2|lambda_i +
gamma|.  The familiar single-sphere phase space is the r = 1 case,
where the constraint reads sum_n (x_n^2 + p_n^2)/2 = 1 + F*gamma.

A phase point is a complex frame array Z (..., r, F) together with its
component's StiefelSignature; its frames meet their constraints when the
Gram matrix conj(Z) Z^T is diag(2|lambda_i + gamma|).  This module holds
the signatures, the gamma-axis quasi-probability weights (GammaWeight, a
signed comb of point masses, which the estimators' comb sampler draws),
and the Monte Carlo samplers: sample_sphere_batch for the sphere, and
sample_stiefel for any component.  The sphere is drawn in action-angle
form: complex normals sqrt(E) e^(i theta), E ~ Exp(1) and theta
uniform, which onto_sphere scales row by row to the radius of its shell.
sphere_normals draws a group of the estimators' blocks: each block only
reads its stream, the phases off its raw SFC64 words
(streams.float32_uniforms), bit for bit the phases of Generator.random,
and each transform is then one call over the group, since every short
NumPy call hands the GIL over.  sample_sphere_batch, taking any
Generator, keeps Generator.random.  States are numbered 1..F in public
interfaces.

Measure convention: integrals over one component are F times the
expectation under the uniform probability measure, i.e. the measure of
a whole component is F.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .streams import float32_uniforms


def gamma_wigner(F):
    """The sphere parameter (sqrt(1+F) - 1)/F of the Wigner-like case."""
    return (math.sqrt(1.0 + F) - 1.0) / F


@dataclass(frozen=True)
class StiefelSignature:
    """Spectral label of one phase space component.

    eigenvalues holds the full mapping-kernel spectrum sorted
    descending by |lambda + gamma|; the first r entries are the frame
    eigenvalues, the trailing F - r all equal -gamma.  signs[i] =
    sign(eigenvalues[i] + gamma) for the frame entries.
    """

    F: int
    eigenvalues: tuple
    r: int
    gamma: float
    signs: tuple

    def __post_init__(self):
        if len(self.eigenvalues) != self.F:
            raise ValueError("signature must list all F eigenvalues")
        if not 0 <= self.r <= self.F:
            raise ValueError(f"r={self.r} outside [0, F]")
        if len(self.signs) != self.r:
            raise ValueError("one sign per frame eigenvalue required")
        for lam, s in zip(self.eigenvalues[: self.r], self.signs):
            shifted = lam + self.gamma
            if s not in (-1, 1) or s * shifted <= 0:
                raise ValueError(
                    f"sign {s} inconsistent with eigenvalue {lam} at gamma={self.gamma}"
                )

    def frame_radii_sq(self):
        """Squared frame norms 2|lambda_i + gamma|, i = 1..r."""
        lam = np.asarray(self.eigenvalues[: self.r], dtype=np.float64)
        return 2.0 * np.abs(lam + self.gamma)


def cmm_signature(F, gamma):
    """Signature of the single-sphere component at parameter gamma.

    The kernel spectrum is {1 + (F-1)*gamma, -gamma x (F-1)}; the lone
    frame eigenvalue sits at radius^2 = 2(1 + F*gamma).
    """
    if gamma <= -1.0 / F:
        raise ValueError(f"gamma={gamma} must exceed -1/F = {-1.0 / F}")
    eigenvalues = (1.0 + (F - 1) * gamma,) + (-gamma,) * (F - 1)
    return StiefelSignature(F, eigenvalues, 1, float(gamma), (1,))


@functools.lru_cache(maxsize=8)
def gdtwa_signature(F):
    """Signature of the discrete-sampling component.

    The kernel spectrum is {(1 + c)/2, (1 - c)/2, 0 x (F-2)} with
    c = sqrt(2F - 1).  For F = 2 this is a single sphere at the
    Wigner-like gamma; for F >= 3 it is a two-frame component at
    gamma = 0 with signs (+1, -1).  The signature is frozen and kept
    per F, at most 8 of them, each under 1 KB at F = 32.
    """
    if F < 2:
        raise ValueError("need at least two states")
    c = math.sqrt(2.0 * F - 1.0)
    lam_plus = (1.0 + c) / 2.0
    lam_minus = (1.0 - c) / 2.0
    if F == 2:
        gamma = -lam_minus  # = (sqrt(3) - 1)/2, the Wigner-like value
        return StiefelSignature(F, (lam_plus, lam_minus), 1, gamma, (1,))
    eigenvalues = (lam_plus, lam_minus) + (0.0,) * (F - 2)
    return StiefelSignature(F, eigenvalues, 2, 0.0, (1, -1))


# ---------------------------------------------------------------------------
# gamma-axis quasi-probability weights


@dataclass(frozen=True)
class GammaWeight:
    """Signed, normalized comb of point masses (gamma_i, w_i) over sphere parameters.

    The w_i may be negative.  A sampler of the comb (the estimators'
    _comb_density) draws its terms from |w| / sum|w|, each carrying
    sign(w) and the magnitude sum|w| as a multiplicative correction.
    """

    pairs: tuple

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("empty comb")
        for g, w in self.pairs:
            if not (math.isfinite(g) and math.isfinite(w)):
                raise ValueError(f"comb entry (gamma, w) = ({g!r}, {w!r}) is not finite")

    @staticmethod
    def single(gamma):
        return GammaWeight(((float(gamma), 1.0),))

    @staticmethod
    def delta_comb(pairs):
        return GammaWeight(tuple((float(g), float(w)) for g, w in pairs))

    def moment(self, fn):
        """Signed sum of w_i * fn(gamma_i)."""
        return float(sum(w * fn(g) for g, w in self.pairs))

    def total_weight(self):
        """Signed normalization sum (must be 1 for a valid weight)."""
        return float(sum(w for _, w in self.pairs))

    def validate(self, tol=1e-8):
        total = self.total_weight()
        if abs(total - 1.0) > tol:
            raise ValueError(
                f"gamma weight is not normalized: integral {total!r} differs "
                f"from 1 by more than {tol}"
            )
        return self


# ---------------------------------------------------------------------------
# point samplers


def sample_sphere_batch(F, gamma, rng, size):
    """size uniform points on the sphere at gamma (one, or one per row), as (size, F) complex z, from any Generator.

    The rows draw their actions and then their phases as sphere_normals
    draws a block, taking the phases from Generator.random.
    """
    np.add(_AVX_RESET, _AVX_RESET)  # a fresh result: clears the vector state a gemm left (see _AVX_RESET)
    w = np.empty((size, F), dtype=np.complex128)
    actions = rng.standard_exponential(w.shape)
    theta = rng.random(w.shape, dtype=np.float32)
    theta *= _TWO_PI
    _polar(w, actions, theta)
    return onto_sphere(w, F, gamma)


# OpenBLAS's complex gemm returns with the upper halves of the vector registers dirty, and until an
# AVX instruction clears them NumPy's exponential sampler, legacy SSE code, runs x1.8-2.3 slower.  A
# float64 ufunc over 16 or more entries takes NumPy's AVX loop, which clears them on return (1, 4 or
# 8 entries take its scalar path, which does not).  Read-only, so pool threads share it safely.
_AVX_RESET = np.zeros(64)
_AVX_RESET.flags.writeable = False
_TWO_PI = np.float32(2.0 * np.pi)
# theta = 2 pi u of the float32 uniform u = 2**-24 times its word (streams.float32_uniforms)
_PHASE_SCALE = _TWO_PI * np.float32(2.0**-24)


def _polar(w, actions, theta, trig=None):
    """w = sqrt(actions) e^(i theta), the actions (float64) turned into their roots in place and each of the float32 cos and sin formed in trig (or afresh)."""
    np.sqrt(actions, out=actions)
    np.multiply(actions, np.cos(theta, out=trig), out=w.real)
    np.multiply(actions, np.sin(theta, out=trig), out=w.imag)


def sphere_normals(rngs, w, scratch, picks=None):
    """Fill complex rows w (len(rngs) nb, F) with complex normals in polar form sqrt(E) e^(i theta), block i's nb rows from its re-keyed stream rngs[i].

    The uniform measure of the sphere splits into actions, uniform on the
    simplex, and uniform angles.  Each block of the streams.BlockStreams
    rngs only reads its stream, into its own rows of group-wide arrays:
    rng.random(nb) into picks, a float64 (len(w),) array, if given; its
    actions E ~ Exp(1) (float64); then, as its last draw, the words of
    its float32 uniforms u (streams.float32_uniforms).  The group then
    makes each transform one call over all its rows: sqrt(E); theta =
    2 pi u, as the float32 product of the words with float32(2 pi)
    2**-24, bit for bit the theta of rng.random's u; and the float32 cos
    and sin, on NumPy's SIMD loops, each over the spent words.  Each
    short NumPy call hands the GIL over, so calls per block kept two pool
    threads from running side by side, where calls per group do.
    scratch, a complex (len(w), F) array that is idle during the draw,
    holds the actions, the words and theta, 8 + 4 + 4 bytes an entry;
    theta goes beside the words, not over them, since NumPy first copies
    the input of a cast onto overlapping memory, about 1.6x slower.
    """
    nb, n = len(w) // len(rngs), w.size
    room = scratch.reshape(-1).view(np.float64)
    actions, words = room[:n].reshape(w.shape), room[n:].view(np.uint32)
    words, theta = words[:n].reshape(w.shape), words[n:].view(np.float32).reshape(w.shape)
    np.add(_AVX_RESET, _AVX_RESET)  # once per group: no gemm runs between its blocks' draws
    for i, rng in enumerate(rngs):
        rows = slice(i * nb, (i + 1) * nb)
        if picks is not None:
            rng.random(out=picks[rows])
        rng.standard_exponential(out=actions[rows])
        float32_uniforms(rng, words[rows])
    np.multiply(words, _PHASE_SCALE, out=theta, dtype=np.float32)
    _polar(w, actions, theta, words.view(np.float32))


def onto_sphere(w, F, gamma):
    """Scale rows w (rows, F), C-contiguous, onto the sphere at gamma (one, or one per row) in place; returns w.

    The norms and the scale are formed on the float view of w, with no
    complex temporary.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    bad = gamma[~(gamma > -1.0 / F)]
    if bad.size:
        raise ValueError(f"gamma={float(bad[0])} must exceed -1/F = {-1.0 / F}")
    v = w.view(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
    # A zero draw has probability zero; guard against it anyway.
    norms[norms == 0.0] = 1.0
    v *= np.sqrt(2.0 * (1.0 + F * gamma))[..., None] / norms
    return w


def sample_stiefel(signature, rng, size):
    """size Haar-uniform points of the signature's component, as (size, r, F) complex frames.

    Each point is the QR factor Q of an F x r complex standard Gaussian
    matrix, its columns rephased so that R has a positive diagonal (which
    is what makes Q Haar-uniform), with column i scaled to squared norm
    2|lambda_i + gamma| and the columns taken as frame rows.
    """
    F, r = signature.F, signature.r
    if r < 1:
        raise ValueError("sampling needs a signature with r >= 1")
    G = rng.standard_normal((size, F, r)) + 1j * rng.standard_normal((size, F, r))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    Q = Q * (d / np.abs(d))[:, None, :]
    return np.swapaxes(Q, -1, -2) * np.sqrt(signature.frame_radii_sq())[:, None]
