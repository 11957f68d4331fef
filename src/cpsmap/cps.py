"""Geometry, measures and samplers for the constraint phase space.

The phase space of an F-state system is a disjoint union of connected
components.  Each component is the set of orthonormal r-frames in C^F
(scaled column by column), labeled by the spectrum of its mapping
kernel: r counts the eigenvalues outside the maximally degenerate
class, gamma is minus the maximally degenerate eigenvalue, and each
frame column i carries a sign s_i and a squared radius 2|lambda_i +
gamma|.  The familiar single-sphere phase space is the r = 1 case,
where the constraint reads sum_n (x_n^2 + p_n^2)/2 = 1 + F*gamma.

This module holds the component metadata (StiefelSignature), the point
container (StiefelPoint), the gamma-axis quasi-probability weights
(GammaWeight), and the Monte Carlo samplers (sample_sphere_batch, with
sample_sphere and sample_stiefel for one point).  A point's frames Z
(r, F) meet their constraints when the Gram matrix conj(Z) Z^T is
diag(2|lambda_i + gamma|).  States are numbered 1..F in public
interfaces.

Measure convention: integrals over one component are F times the
expectation under the uniform probability measure, i.e. the measure of
a whole component is F.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# Default relative tolerance for grouping kernel eigenvalues into
# degenerate classes (relative to the spectral range).
DEGENERACY_TOL = 1e-8


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
    degeneracy_tol: float = DEGENERACY_TOL

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


def gdtwa_signature(F):
    """Signature of the discrete-sampling component.

    The kernel spectrum is {(1 + c)/2, (1 - c)/2, 0 x (F-2)} with
    c = sqrt(2F - 1).  For F = 2 this is a single sphere at the
    Wigner-like gamma; for F >= 3 it is a two-frame component at
    gamma = 0 with signs (+1, -1).
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


@dataclass
class StiefelPoint:
    """An r-frame phase point.

    x and p are (r, F) real arrays holding the frame coordinates and
    momenta; z = x + i p gives the complex frames row by row.  The
    r = 1 case is the ordinary sphere point (x, p).
    """

    x: np.ndarray
    p: np.ndarray
    signature: StiefelSignature

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.p = np.atleast_2d(np.asarray(self.p, dtype=np.float64))
        if self.x.shape != self.p.shape:
            raise ValueError("x and p must have identical shapes")
        if self.x.shape != (self.signature.r, self.signature.F):
            raise ValueError(
                f"frame array shape {self.x.shape} does not match signature "
                f"(r={self.signature.r}, F={self.signature.F})"
            )

    @property
    def F(self):
        return self.signature.F

    @property
    def r(self):
        return self.signature.r

    @property
    def z(self):
        """Complex frames, shape (r, F)."""
        return self.x + 1j * self.p

    def actions(self):
        """Per-state actions e_n = (x_n^2 + p_n^2)/2 of each frame, (r, F)."""
        return 0.5 * (self.x**2 + self.p**2)


# ---------------------------------------------------------------------------
# gamma-axis quasi-probability weights


@dataclass(frozen=True)
class GammaWeight:
    """Signed, normalized distribution over sphere parameters gamma.

    kinds:
      single      a point mass at one gamma
      delta_comb  point masses (gamma_i, w_i); the w_i may be negative
      triangle    the polynomial weight N_TW (1+F*gamma)^(F-1) / (F-1)!
                  on [0, 1 - 1/F], with N_TW = F*F!/(F^F - 1)
      table       a tabulated density, linearly interpolated

    Signed weights are handled by importance sampling: draws come from
    |w| / int|w| and carry sign(w) plus the magnitude int|w| as a
    multiplicative correction.
    """

    kind: str
    F: int = 0
    pairs: tuple = ()
    gammas: np.ndarray = field(default=None, repr=False)
    values: np.ndarray = field(default=None, repr=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def single(gamma):
        return GammaWeight(kind="single", pairs=((float(gamma), 1.0),))

    @staticmethod
    def delta_comb(pairs):
        pairs = tuple((float(g), float(w)) for g, w in pairs)
        if not pairs:
            raise ValueError("empty comb")
        return GammaWeight(kind="delta_comb", pairs=pairs)

    @staticmethod
    def triangle(F):
        if F < 2:
            raise ValueError("triangle weight needs F >= 2")
        return GammaWeight(kind="triangle", F=int(F))

    @staticmethod
    def table(gammas, values):
        gammas = np.asarray(gammas, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if gammas.ndim != 1 or gammas.shape != values.shape or gammas.size < 2:
            raise ValueError("table needs matching 1-d gamma and value arrays")
        if np.any(np.diff(gammas) <= 0):
            raise ValueError("table gammas must be strictly increasing")
        return GammaWeight(kind="table", gammas=gammas, values=values)

    # -- integrals ----------------------------------------------------

    @property
    def support(self):
        if self.kind in ("single", "delta_comb"):
            gs = [g for g, _ in self.pairs]
            return (min(gs), max(gs))
        if self.kind == "triangle":
            return (0.0, 1.0 - 1.0 / self.F)
        return (float(self.gammas[0]), float(self.gammas[-1]))

    def _quad_nodes(self):
        """Quadrature nodes and signed weights for the continuous kinds."""
        if self.kind == "triangle":
            # Gauss-Legendre is exact here: the density is polynomial.
            lo, hi = self.support
            xs, ws = np.polynomial.legendre.leggauss(64)
            g = 0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
            ntw = self.F * math.factorial(self.F) / (self.F**self.F - 1.0)
            dens = ntw * (1.0 + self.F * g) ** (self.F - 1) / math.factorial(self.F - 1)
            return g, dens * ws * 0.5 * (hi - lo)
        # table: trapezoid weights on the grid
        g = self.gammas
        w = np.zeros_like(g)
        dg = np.diff(g)
        w[:-1] += 0.5 * dg
        w[1:] += 0.5 * dg
        return g, self.values * w

    def moment(self, fn):
        """Signed integral of w(gamma) * fn(gamma) over the support."""
        if self.kind in ("single", "delta_comb"):
            return float(sum(w * fn(g) for g, w in self.pairs))
        g, w = self._quad_nodes()
        return float(np.sum(w * fn(g)))

    def total_weight(self):
        """Signed normalization integral (must be 1 for a valid weight)."""
        return self.moment(lambda g: np.ones_like(np.asarray(g, dtype=float)))

    def abs_total(self):
        """int |w|, the importance-sampling magnitude."""
        if self.kind in ("single", "delta_comb"):
            return float(sum(abs(w) for _, w in self.pairs))
        g, w = self._quad_nodes()
        return float(np.sum(np.abs(w)))

    def validate(self, tol=1e-8):
        total = self.total_weight()
        if abs(total - 1.0) > tol:
            raise ValueError(
                f"gamma weight is not normalized: integral {total!r} differs "
                f"from 1 by more than {tol}"
            )
        lo = self.support[0]
        # All kinds live on (-1/F, inf); F is only known for triangle,
        # so the generic check is that gammas stay finite.
        if not np.isfinite(lo):
            raise ValueError("unbounded support")
        return self

    # -- sampling -----------------------------------------------------

    def sample_batch(self, rng, size):
        """Draw (gammas, signs) of shape (size,) from |w| / int|w|."""
        if self.kind in ("single", "delta_comb"):
            gs = np.array([g for g, _ in self.pairs])
            ws = np.array([w for _, w in self.pairs])
            probs = np.abs(ws) / np.sum(np.abs(ws))
            idx = rng.choice(len(gs), size=size, p=probs)
            return gs[idx], np.sign(ws[idx]).astype(np.float64)
        if self.kind == "triangle":
            # Inverse CDF of the polynomial density.
            u = rng.random(size)
            F = self.F
            g = ((1.0 + u * (F**F - 1.0)) ** (1.0 / F) - 1.0) / F
            return g, np.ones(size)
        # table: linear-interpolated inverse CDF on |values|
        g = self.gammas
        absv = np.abs(self.values)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (absv[1:] + absv[:-1]) * np.diff(g))])
        if cdf[-1] <= 0:
            raise ValueError("table weight vanishes everywhere")
        cdf /= cdf[-1]
        u = rng.random(size)
        draws = np.interp(u, cdf, g)
        signs = np.sign(np.interp(draws, g, self.values))
        signs[signs == 0] = 1.0
        return draws, signs


# ---------------------------------------------------------------------------
# point samplers


def sample_sphere_batch(F, gamma, rng, size):
    """size uniform points on the sphere at gamma, as (size, F) complex z.

    gamma is one sphere parameter for every row or an array of one per row.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    bad = gamma[~(gamma > -1.0 / F)]
    if bad.size:
        raise ValueError(f"gamma={float(bad[0])} must exceed -1/F = {-1.0 / F}")
    w = rng.standard_normal((size, F)) + 1j * rng.standard_normal((size, F))
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    # A zero draw has probability zero; guard against it anyway.
    norms[norms == 0.0] = 1.0
    return w * (np.sqrt(2.0 * (1.0 + F * gamma))[..., None] / norms)


def sample_sphere(F, gamma, rng):
    """One uniform point on the constraint sphere at gamma.

    The point is uniform on the (2F-1)-sphere of radius
    sqrt(2(1 + F*gamma)); its actions satisfy
    sum_n e_n = 1 + F*gamma identically.
    """
    z = sample_sphere_batch(F, gamma, rng, 1)[0]
    return StiefelPoint(z.real[None, :], z.imag[None, :], cmm_signature(F, gamma))


def sample_stiefel(signature, rng):
    """One Haar-uniform r-frame point for the given signature.

    Draws an F x r complex standard Gaussian matrix, orthonormalizes it
    by modified Gram-Schmidt (the positive column norms make the
    implicit R factor's diagonal positive, which is what guarantees
    Haar uniformity), then scales column i to squared norm
    2|lambda_i + gamma|.
    """
    F, r = signature.F, signature.r
    if r < 1:
        raise ValueError("sampling needs a signature with r >= 1")
    if r > F:
        raise ValueError(f"r={r} exceeds F={F}")
    G = rng.standard_normal((F, r)) + 1j * rng.standard_normal((F, r))
    Q = G.astype(np.complex128)
    for i in range(r):
        for j in range(i):
            Q[:, i] -= (Q[:, j].conj() @ Q[:, i]) * Q[:, j]
        Q[:, i] /= np.linalg.norm(Q[:, i])
    scales = np.sqrt(signature.frame_radii_sq())
    Z = (Q * scales[None, :]).T  # frames as rows
    return StiefelPoint(Z.real, Z.imag, signature)
