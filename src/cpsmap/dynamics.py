"""Trajectory propagation on the constraint phase space.

The classical Hamiltonian of a point with frames z_i and signs s_i is

    H_C(X) = sum_i s_i * (1/2) z_i^dagger H z_i - gamma * Tr H,

and the equations of motion carry the sign factors explicitly:

    dx_n^(k)/dt = s_k dH_C/dp_n^(k),   dp_n^(k)/dt = -s_k dH_C/dx_n^(k).

Because H_C itself contains one factor of s_k per frame, the signs
square away and every frame obeys dz/dt = -i H z; the exact backend
exploits that by applying exp(-i H t) directly, while the rk4 backend
integrates the sign-factor equations as written so their equivalence
is measured rather than assumed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cps import check_constraints, StiefelPoint
from .kernels import kernel_trace
from .qcore import hermitian_eig, propagator_from_decomposition, require_hermitian


def classical_energy(point, H):
    """H_C(X) = sum_i s_i (1/2) z_i^dagger H z_i - gamma Tr H = Tr[H K(X)]."""
    H = require_hermitian(H)
    sig = point.signature
    weights = 0.5 * np.asarray(sig.signs, dtype=np.float64)
    return float(np.real(kernel_trace(point.z, H, sig.gamma, weights)))


def _check_step(dt):
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")


def propagate_exact(point, H, t):
    """Apply the unitary exp(-i H t) to every frame of the point."""
    H = require_hermitian(H)
    if H.shape[0] != point.F:
        raise ValueError(f"H dimension {H.shape[0]} does not match point F={point.F}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    (z,) = grid_march(H, [t])(point.z, point.signature.signs)
    return StiefelPoint(z.real, z.imag, point.signature)


def _rk4_arrays(x, p, signs, H, dt, steps):
    """Integrate the sign-factor equations of motion with classic rk4.

    x, p have shape (..., r, F); signs has shape (r,).  The H_C
    gradients are dH_C/dx_n^(k) = s_k Re[(H z_k)_n] and
    dH_C/dp_n^(k) = s_k Im[(H z_k)_n].
    """
    s = np.asarray(signs, dtype=np.float64)[..., :, None]

    def rhs(x, p):
        hz = (x + 1j * p) @ H.T
        gx = s * hz.real
        gp = s * hz.imag
        return s * gp, -s * gx

    x = x.copy()
    p = p.copy()
    for _ in range(steps):
        k1x, k1p = rhs(x, p)
        k2x, k2p = rhs(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
        k3x, k3p = rhs(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
        k4x, k4p = rhs(x + dt * k3x, p + dt * k3p)
        x += (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p += (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return x, p


def propagate_rk4(point, H, dt, steps):
    """Integrate the sign-factor equations for steps increments of dt.

    steps = 0 returns the input point unchanged (as a copy).  The
    global error is O(dt^4) against the exact backend.
    """
    H = require_hermitian(H)
    if H.shape[0] != point.F:
        raise ValueError(f"H dimension {H.shape[0]} does not match point F={point.F}")
    _check_step(dt)
    x, p = _rk4_arrays(point.x, point.p, point.signature.signs, H, dt, int(steps))
    return StiefelPoint(x, p, point.signature)


def grid_march(H, times, backend="exact", dt=1e-3):
    """Return walk(Z, signs), which yields the frames Z (..., r, F) at each grid time.

    The exact backend builds exp(-i H t) for every grid time once, here,
    and applies it to the starting frames; the rk4 backend integrates the
    sign-factor equations (frame signs s) between grid times with
    ceil(span/dt) equal steps of at most dt.  Either way the march is a
    complex-linear map of the starting frames.
    """
    if backend == "exact":
        dec = hermitian_eig(H)
        props = [propagator_from_decomposition(dec, t).matrix for t in times]

        def walk(Z, signs):
            for U in props:
                yield np.matmul(Z, U.T)

    elif backend == "rk4":

        def walk(Z, signs):
            x, p = Z.real, Z.imag
            prev = 0.0
            for t in times:
                span = t - prev
                if span > 0:
                    steps = max(1, int(np.ceil(span / dt)))
                    x, p = _rk4_arrays(x, p, signs, H, span / steps, steps)
                yield x + 1j * p
                prev = t

    else:
        raise ValueError(f"unknown backend {backend!r}")
    return walk


@dataclass
class TrajectorySegment:
    """A propagated trajectory sampled on a time grid."""

    times: np.ndarray
    points: list
    backend: str
    hamiltonian: np.ndarray


def propagate_segment(point, H, times, backend="exact", dt=1e-3):
    """Propagate a point over a time grid with the chosen backend.

    The exact backend evaluates exp(-i H t_k) from t = 0 for every grid
    time; the rk4 backend steps between grid times with step <= dt.
    """
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a nonempty strictly increasing grid")
    _check_step(dt)
    H = require_hermitian(H)
    walk = grid_march(H, times, backend, dt)
    sig = point.signature
    points = [StiefelPoint(z.real, z.imag, sig) for z in walk(point.z, sig.signs)]
    return TrajectorySegment(times, points, backend, H)


@dataclass
class DriftReport:
    """Worst-case invariant drift along a trajectory segment."""

    max_norm_residual: float
    max_cross_residual: float
    max_energy_drift: float
    tol: float

    @property
    def max_drift(self):
        return max(self.max_norm_residual, self.max_cross_residual, self.max_energy_drift)

    @property
    def passed(self):
        return self.max_drift < self.tol


def invariant_drift(segment, tol=None):
    """Measure constraint and energy drift over a segment.

    Reports the maxima over time of the frame-norm residuals, the
    cross-frame orthogonality residuals, and |H_C(t) - H_C(0)|.  The
    default tolerance is 1e-8 for the exact backend and 1e-6 for rk4.
    """
    if tol is None:
        tol = 1e-8 if segment.backend == "exact" else 1e-6
    e0 = classical_energy(segment.points[0], segment.hamiltonian)
    worst_norm = 0.0
    worst_cross = 0.0
    worst_energy = 0.0
    for pt in segment.points:
        rep = check_constraints(pt, tol)
        if rep.norm_residuals.size:
            worst_norm = max(worst_norm, float(np.max(rep.norm_residuals)))
        for re, im in rep.cross_residuals.values():
            worst_cross = max(worst_cross, re, im)
        worst_energy = max(worst_energy, abs(classical_energy(pt, segment.hamiltonian) - e0))
    return DriftReport(worst_norm, worst_cross, worst_energy, tol)
