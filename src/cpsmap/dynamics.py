"""Trajectory propagation on the constraint phase space.

The classical Hamiltonian of a point with frames z_i and signs s_i is

    H_C(X) = sum_i s_i * (1/2) z_i^dagger H z_i - gamma * Tr H,

which kernels.kernel_trace evaluates as Tr[H K(X)], and the equations
of motion carry the sign factors explicitly:

    dx_n^(k)/dt = s_k dH_C/dp_n^(k),   dp_n^(k)/dt = -s_k dH_C/dx_n^(k).

Because H_C itself contains one factor of s_k per frame, the signs
square away and every frame obeys dz/dt = -i H z, the time-dependent
Schroedinger equation.  The march is therefore linear: grid_march, the
one propagation entry point, builds the map z(t_k) = U_k z(0) of each
grid time once, on either backend.  On rk4 one step is the same F x F
map for every frame, so each grid segment raises one step's increment
to the segment's step count by squaring.  A point's frames march as
Z @ U.T; the estimators carry a block's kernel as U M U^dagger, or
march the frames a window reads with one gemm.  The invariants are read
off the maps: U^dagger U - I for the frame norms and cross-frame
products, U^dagger H U - H for H_C.  propagate_rk4 integrates a point's
own frames with their signs, step by step, so the sign equivalence is
measured rather than assumed.
"""

import math

import numpy as np

from .cps import StiefelPoint
from .qcore import hermitian_eig, propagator_from_decomposition, require_hermitian


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


def _rk4_increment(x, p, signs, H, dt):
    """One classic rk4 step of the sign-factor equations of motion: (dx, dp).

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

    k1x, k1p = rhs(x, p)
    k2x, k2p = rhs(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
    k3x, k3p = rhs(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
    k4x, k4p = rhs(x + dt * k3x, p + dt * k3p)
    return (
        (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
        (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
    )


def _rk4_arrays(x, p, signs, H, dt, steps):
    """Integrate the sign-factor equations of motion with classic rk4, step by step."""
    x = x.copy()
    p = p.copy()
    for _ in range(steps):
        dx, dp = _rk4_increment(x, p, signs, H, dt)
        x += dx
        p += dp
    return x, p


def _rk4_maps(H, times, dt):
    """The rk4 maps of grid_march, shape (n_times, F, F).

    Each grid segment takes steps = ceil(span/dt) equal rk4 steps of
    h = span/steps.  One step takes a row frame z to z + z @ D, where
    D = dx + i dp is the step's increment of the identity frames: the
    equations are linear and, with the signs squared away, complex
    linear.  One batched _rk4_increment gives every segment's D, and
    each segment raises its own to its step count by binary powering,
    composing increments as (I + A)(I + B) = I + (A + B + A @ B).  I + D
    is never formed: its rounding would drop the low bits of an O(h)
    increment at every step.
    """
    F = H.shape[0]
    spans = np.diff(np.asarray(times, dtype=np.float64), prepend=0.0)
    steps = [max(1, int(np.ceil(span / dt))) if span > 0 else 1 for span in spans]
    eye = np.broadcast_to(np.eye(F), (spans.size, F, F))
    dx, dp = _rk4_increment(eye, np.zeros_like(eye), np.ones(F), H, (spans / steps)[:, None, None])
    Z = np.eye(F, dtype=np.complex128)
    maps = []
    for span, n, base in zip(spans, steps, dx + 1j * dp):
        if span > 0:
            total = None
            while n:
                if n & 1:
                    total = base if total is None else total + base + total @ base
                n >>= 1
                if n:
                    base = base + base + base @ base
            Z = Z + Z @ total
        maps.append(Z.T)
    return np.array(maps)


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

    The exact backend builds exp(-i H t_k) for every grid time from one
    decomposition of H.  The rk4 backend takes ceil(span/dt) equal rk4
    steps of at most dt between grid times; one step is the same F x F
    map for every frame, so each segment forms its steps' product once
    (_rk4_maps) and applies it to the basis frames Z (x = I, p = 0) as
    Z + Z @ A, with U_k = Z.T.  The sign-factor equations give the same
    map for either frame sign, since s * (s * h) is exact, so the basis
    frames carry +1.  Both backends check H, times (finite, nonempty,
    nonnegative, strictly increasing) and dt, naming the field at fault.
    """
    if backend not in ("exact", "rk4"):
        raise ValueError(f"unknown backend {backend!r}")
    H = require_hermitian(H, name="H")
    times = _check_grid(times, "times")
    _check_step(dt)
    if backend == "exact":
        return propagator_from_decomposition(hermitian_eig(H), times)
    return _rk4_maps(H, times, dt)
