"""Trajectory propagation on the constraint phase space.

The classical Hamiltonian of a point with frames z_i and signs s_i is

    H_C(X) = sum_i s_i * (1/2) z_i^dagger H z_i - gamma * Tr H,

and the equations of motion carry the sign factors explicitly:

    dx_n^(k)/dt = s_k dH_C/dp_n^(k),   dp_n^(k)/dt = -s_k dH_C/dx_n^(k).

Because H_C itself contains one factor of s_k per frame, the signs
square away and every frame obeys dz/dt = -i H z, the time-dependent
Schroedinger equation.  The march is therefore linear: grid_march builds
the map z(t_k) = U_k z(0) of each grid time once, on either backend, and
every march applies the maps as Z @ U.T.  propagate_rk4 integrates a
point's own frames with their signs, so the sign equivalence is measured
rather than assumed.
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


def _check_grid(times, name):
    """times as a float array, which must be finite, nonempty, nonnegative, increasing."""
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"{name} must be finite")
    if times.size < 1 or times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError(f"{name} must be nonempty, nonnegative, strictly increasing")
    return times


def propagate_exact(point, H, t):
    """Apply the unitary exp(-i H t) to every frame of the point."""
    H = require_hermitian(H)
    if H.shape[0] != point.F:
        raise ValueError(f"H dimension {H.shape[0]} does not match point F={point.F}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    z = np.matmul(point.z, grid_march(H, [t])[0].T)
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
    """The maps U, shape (n_times, F, F), with z(t_k) = U_k z(0) for every frame.

    The exact backend builds exp(-i H t_k) from t = 0 for each grid time;
    the rk4 backend integrates the F basis frames (x = I, p = 0) between
    grid times with ceil(span/dt) equal steps of at most dt, and U_k is
    (x + i p).T.  The sign-factor equations give the same map for either
    frame sign, since s * (s * h) is exact, so the basis frames carry +1.
    """
    if backend == "exact":
        dec = hermitian_eig(H)
        return np.array([propagator_from_decomposition(dec, t).matrix for t in times])
    if backend != "rk4":
        raise ValueError(f"unknown backend {backend!r}")
    _check_step(dt)
    F = H.shape[0]
    x, p = np.eye(F), np.zeros((F, F))
    maps = []
    prev = 0.0
    for t in times:
        span = t - prev
        if span > 0:
            steps = max(1, int(np.ceil(span / dt)))
            x, p = _rk4_arrays(x, p, np.ones(F), H, span / steps, steps)
        maps.append((x + 1j * p).T)
        prev = t
    return np.array(maps)


@dataclass
class TrajectorySegment:
    """A propagated trajectory sampled on a time grid."""

    times: np.ndarray
    points: list
    backend: str
    hamiltonian: np.ndarray


def propagate_segment(point, H, times, backend="exact", dt=1e-3):
    """Propagate a point over a time grid with the chosen backend.

    The frames at grid time t_k are Z @ U_k.T, with the maps U of
    grid_march; the rk4 backend builds them with steps <= dt.
    """
    times = _check_grid(times, "times")
    _check_step(dt)
    H = require_hermitian(H)
    zs = [np.matmul(point.z, U.T) for U in grid_march(H, times, backend, dt)]
    points = [StiefelPoint(z.real, z.imag, point.signature) for z in zs]
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
