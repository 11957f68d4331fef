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
grid time once, on either backend, as V diag(f_k) V^dagger from one
decomposition H = V diag(lambda) V^dagger, since one rk4 step of h is
the polynomial P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 of x = -i H h, the
same F x F map for every frame of either sign (s * (s * h) is exact).
A point's frames march as Z @ U.T, and the invariants are numbers of f:
U^dagger U - I, the drift of the frame norms and cross-frame products,
has the eigenvalues |f_j|^2 - 1, and U^dagger H U - H, the drift of
H_C, has lambda_j (|f_j|^2 - 1); both are 0 on the exact backend.
_rk4_arrays integrates frames (x, p) with their signs, step by step, so
the sign equivalence can be measured rather than assumed.
"""

import math

import numpy as np

from .qcore import hermitian_eig, propagator_from_decomposition, require_hermitian

# rk4's stability edge on the imaginary axis: |P(-i y)| <= 1 exactly when |y| <= 2 sqrt(2)
RK4_EDGE = 2.0 * math.sqrt(2.0)


def _check_step(dt):
    if not (isinstance(dt, (int, float, np.integer, np.floating)) and not isinstance(dt, bool) and math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, a real number (bool excluded), got {dt!r}")


def _check_grid(times, name):
    """times as a float array, which must be 1-D, finite, nonempty, nonnegative, increasing."""
    try:
        times = np.asarray(times, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} must be an array of real numbers: {err}") from None
    if times.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"{name} must be finite")
    if times.size < 1 or times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError(f"{name} must be nonempty, nonnegative, strictly increasing")
    return times


def _rk4_arrays(x, p, signs, H, dt, steps):
    """Integrate the sign-factor equations of motion with classic rk4, step by step.

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


def grid_march(H, times, backend="exact", dt=1e-3):
    """The maps U, shape (n_times, F, F), with z(t_k) = U_k z(0) for every frame.

    Both backends build U_k = V diag(f_k) V^dagger from one decomposition
    H = V diag(lambda) V^dagger, with f_k = exp(-i lambda t_k) exactly, or
    rk4_log_factors, also past rk4's stability edge; both check H, times
    (1-D, finite, nonempty, nonnegative, strictly increasing) and dt,
    naming the field at fault.
    """
    if backend not in ("exact", "rk4"):
        raise ValueError(f"unknown backend {backend!r}")
    H = require_hermitian(H, name="H")
    times = _check_grid(times, "times")
    _check_step(dt)
    return _march(hermitian_eig(H, tol=None), times, backend, dt)


def _march(dec, times, backend, dt):
    """grid_march of inputs it has checked: the decomposition of a Hermitian H, a float times array."""
    if backend == "exact":
        return propagator_from_decomposition(dec, times)
    V = dec.eigenvectors
    return (V * np.exp(rk4_log_factors(dec.eigenvalues, times, dt)[0])[:, None, :]) @ V.conj().T


def rk4_log_factors(lam, times, dt):
    """The logs of rk4's factors f_j(t_k) (n_times, F) of the eigenvalues lambda_j, and max|lambda| h over its steps.

    A segment takes n = ceil(span/dt) steps of h = span/n, so log f_k sums
    n log1p(P(-i lambda h) - 1) over the segments, P - 1 in Horner form;
    as n is an integer, the branch of the log does not matter.
    """
    spans = np.diff(times, prepend=0.0)
    steps = np.maximum(1.0, np.ceil(spans / dt))
    x = -1j * lam * (spans / steps)[:, None]
    log_step = np.log1p(x * (1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0))))
    return np.cumsum(steps[:, None] * log_step, axis=0), float(np.max(np.abs(x)))


def check_rk4_edge(lam, times, dt):
    """Raise, naming dt, unless rk4's steps over times keep max|lambda| h within RK4_EDGE, for the eigenvalues lambda of H."""
    top = float(np.max(np.abs(lam)))  # every rk4 step h is at most dt, so top dt bounds top h
    if top * dt > RK4_EDGE and (reach := rk4_log_factors(lam, times, dt)[1]) > RK4_EDGE:
        raise ValueError(f"dt = {dt!r} is past rk4's stability edge: max|lambda| h = {reach:.4g} exceeds 2 sqrt(2) "
                         f"= {RK4_EDGE:.4g}; dt must be at most {RK4_EDGE / top:.4g}")
