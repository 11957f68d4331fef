"""Monte Carlo estimators for electronic time correlation functions.

Every estimator targets matrix elements of the Heisenberg-propagated
projector pair,

    Tr[|n><m| U^dagger(t) |k><l| U(t)],

as a phase space average  estimate(t) = (1/Cbar(t)) <Qbar_{nm,kl}(X_0; X_t)>
with the F-factor measure convention (the uniform probability average on
each sphere or Stiefel component times F).  Method families differ in how
Qbar separates into a density-side factor at X_0 and an observable-side
factor at X_t:

  cc  cmm, wmm, cmmcv           both factors are covariant kernels
  cx  cornered_simplex          covariant density, diagonal window observable
  xc  triangle_sqc, ehrenfest,  sampler-realized density kernel,
      lambda_point, dtwa, gdtwa   covariant observable kernel
  ww  triangle_ww,              nonnegative window pairs with the
      triangle_f2_single,         time-dependent ratio normalization
      hill_ww                     Cbar(t) = sum_k <Qbar_{nn,kk}>

The cc/cx/xc families have constant normalization Cbar = 1; the ww
families divide by the summed-window denominator accumulated over the
same trajectory set, which makes sum_m P(n->m, t) = 1 up to float
rounding and keeps every per-trajectory contribution nonnegative.

Every family is a small plan (_Plan) run by one block driver (_drive):
the plan's sampler draws a block of frames (nb, r, F) on one component
of the phase space (a sphere, or the gdtwa two-frame Stiefel component)
together with the density-side weights; the maps U of dynamics.grid_march,
built once per request by either backend, carry the frames to each grid
time as Z @ U.T; and the plan's evaluator turns the marched frames into
the block's sums of the observable kernel or window at each time.
Plans are looked up by family in one table (_PLANS).  Every kernel
entry, on the density or the observable side, comes from
kernels.kernel_entries; every window is one batched function of the
actions (..., F) in this module, and the single-point eval_window is a
batch of one of the same functions.

Trajectories are generated in 100 fixed blocks.  Block b draws from
Generator(Philox(SeedSequence(seed, spawn_key=(b,)))), blocks double as
jackknife resampling units for the standard errors, and the reduction
over blocks runs in a fixed order, so results are bitwise reproducible
for a given (seed, n_traj) regardless of the worker thread count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cps import GammaWeight, gdtwa_signature, sample_sphere_batch
from .kernels import gdtwa_points, inverse_kernel_coefficients, kernel_entries, kernel_trace

# The maps of dynamics.grid_march own the propagators and the rk4 steps;
# hermitian_eig, propagator_from_decomposition and _rk4_arrays are
# imported here only because perfbench/spans.py wraps these names in
# this module.
from .dynamics import _check_grid, _check_step, _rk4_arrays, grid_march  # noqa: F401
from .qcore import hermitian_eig, propagator_from_decomposition, require_hermitian  # noqa: F401

N_BLOCKS = 100

def hill_exponent(F):
    """Exponent B(F) of the hill window, 3/(7(F-1)) + 60/(7(F+13))."""
    return 3.0 / (7.0 * (F - 1)) + 60.0 / (7.0 * (F + 13))


@dataclass(frozen=True, eq=False)
class MethodSpec:
    """A TCF method family with its role parameters.

    gamma is the sphere parameter where the family uses a single sphere;
    weight is a GammaWeight for the weighted families; components holds
    the (weight, Gamma-matrix) pairs of the cmmcv comb; obs_gamma picks
    the observable-kernel gamma of triangle_sqc ("shell" follows the
    sampled sphere, "third" fixes 1/3).
    """

    family: str
    gamma: float = None
    weight: GammaWeight = None
    components: tuple = None
    obs_gamma: str = "shell"

    def __post_init__(self):
        if self.gamma is not None and not math.isfinite(self.gamma):
            raise ValueError(f"{self.family} gamma must be finite, got {self.gamma!r}")
        if self.obs_gamma not in ("shell", "third"):
            raise ValueError("obs_gamma must be 'shell' or 'third'")

    @staticmethod
    def cmm(gamma):
        return MethodSpec("cmm", gamma=float(gamma))

    @staticmethod
    def wmm(weight):
        if not isinstance(weight, GammaWeight):
            raise ValueError("wmm needs a GammaWeight")
        return MethodSpec("wmm", weight=weight)

    @staticmethod
    def cmmcv(components):
        comps = []
        for w, G in components:
            G = np.asarray(G, dtype=np.complex128)
            require_hermitian(G, name="cmmcv Gamma")
            comps.append((float(w), G))
        if not comps:
            raise ValueError("cmmcv needs at least one (weight, Gamma) component")
        return MethodSpec("cmmcv", components=tuple(comps))

    @staticmethod
    def cornered_simplex(gamma):
        if gamma <= 0:
            raise ValueError("cornered_simplex requires gamma > 0")
        return MethodSpec("cornered_simplex", gamma=float(gamma))

    @staticmethod
    def triangle_sqc(obs_gamma="shell"):
        return MethodSpec("triangle_sqc", obs_gamma=obs_gamma)

    @staticmethod
    def ehrenfest():
        return MethodSpec("ehrenfest", gamma=0.0)

    @staticmethod
    def lambda_point(gamma):
        if gamma <= 0:
            raise ValueError("lambda_point requires gamma > 0")
        return MethodSpec("lambda_point", gamma=float(gamma))

    @staticmethod
    def dtwa():
        return MethodSpec("dtwa")

    @staticmethod
    def gdtwa():
        return MethodSpec("gdtwa")

    @staticmethod
    def triangle_ww():
        return MethodSpec("triangle_ww")

    @staticmethod
    def triangle_f2_single(gamma=0.0):
        if gamma < 0:
            raise ValueError("triangle_f2_single requires gamma >= 0")
        return MethodSpec("triangle_f2_single", gamma=float(gamma))

    @staticmethod
    def hill_ww(gamma=0.0):
        if gamma < 0:
            raise ValueError("hill_ww requires gamma >= 0")
        return MethodSpec("hill_ww", gamma=float(gamma))


@dataclass
class TCFRequest:
    """One correlation function to estimate.

    rho_indices = (n, m) selects rho = |n><m|, obs_indices = (k, l)
    selects A = |k><l|, both 1-based.  backend is "exact" (matrix
    exponential at each grid time) or "rk4" (the basis frames integrated
    with step <= dt); see dynamics.grid_march.
    """

    hamiltonian: np.ndarray
    rho_indices: tuple
    obs_indices: tuple
    t_grid: np.ndarray
    n_traj: int
    seed: int
    method: MethodSpec
    backend: str = "exact"
    dt: float = 1e-3
    n_threads: int = 1


@dataclass
class TCFResult:
    """Estimates on the time grid with jackknife standard errors.

    normalization holds Cbar(t) (all ones for the constant-normalization
    families); min_numerator records the smallest per-trajectory
    numerator contribution seen by a ww estimate (nan otherwise).
    """

    t_grid: np.ndarray
    estimates: np.ndarray
    normalization: np.ndarray
    standard_errors: np.ndarray
    n_traj: int
    min_numerator: float = math.nan


# ---------------------------------------------------------------------------
# blocks, RNG streams, jackknife


def _block_sizes(n_traj):
    base, extra = divmod(n_traj, N_BLOCKS)
    return np.array([base + (1 if b < extra else 0) for b in range(N_BLOCKS)])


def _block_rng(seed, block):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def _jackknife(num_blocks, den_blocks, num_total, den_total, sizes):
    """SE of num_total / den_total from leave-one-block-out ratios."""
    live = sizes > 0
    B = int(np.count_nonzero(live))
    if B < 2:
        return np.full(num_total.shape, np.nan)
    den_loo = den_total - den_blocks[live]
    den_loo = np.where(den_loo == 0.0, np.nan, den_loo)
    theta = (num_total[None, :] - num_blocks[live]) / den_loo
    mean = np.mean(theta, axis=0)
    dev = theta - mean[None, :]
    var = (B - 1) / B * np.sum(dev.real**2 + dev.imag**2, axis=0)
    return np.sqrt(var)


# ---------------------------------------------------------------------------
# request validation


def _prepare(req):
    H = require_hermitian(req.hamiltonian, name="hamiltonian")
    F = H.shape[0]
    n, m = req.rho_indices
    k, l = req.obs_indices
    for name, idx in (("rho", n), ("rho", m), ("obs", k), ("obs", l)):
        if not (isinstance(idx, (int, np.integer)) and 1 <= idx <= F):
            raise ValueError(f"{name} index {idx} outside 1..{F}")
    if req.n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    if req.n_threads < 1:
        raise ValueError(f"n_threads must be at least 1, got {req.n_threads!r}")
    t_grid = _check_grid(req.t_grid, "t_grid")
    if req.backend not in ("exact", "rk4"):
        raise ValueError(f"unknown backend {req.backend!r}")
    _check_step(req.dt)
    method = req.method
    fam = method.family
    if fam == "cmm" and method.gamma <= -1.0 / F:
        raise ValueError(f"cmm gamma must exceed -1/F = {-1.0 / F}")
    if fam == "wmm":
        method.weight.validate()
        moment = method.weight.moment(lambda g: F * g * g + 2.0 * g)
        if not abs(moment - 1.0) <= 1e-6:
            raise ValueError(
                "wmm weight violates the exact mapping condition: "
                f"integral of w(gamma)(F gamma^2 + 2 gamma) is {moment!r}, expected 1"
            )
        lo = method.weight.support[0]
        if lo <= -1.0 / F:
            raise ValueError(f"wmm weight support reaches gamma <= -1/F = {-1.0 / F}")
    if fam == "cmmcv":
        for _, G in method.components:
            if G.shape[0] != F:
                raise ValueError(f"cmmcv Gamma dimension {G.shape[0]} does not match F={F}")
            if np.real(np.trace(G)) <= -1.0:
                raise ValueError("cmmcv component needs Tr Gamma > -1 for a real sphere radius")
    if fam == "dtwa" and F != 2:
        raise ValueError("dtwa is the F=2 method; use gdtwa for F >= 3")
    if fam == "hill_ww" and F < 2:
        raise ValueError("hill_ww needs F >= 2: the hill exponent B(F) is singular at F = 1")
    if fam == "triangle_f2_single" and F != 2:
        raise ValueError("triangle_f2_single is defined for F = 2 only")
    if fam == "cornered_simplex" and k != l:
        raise ValueError("cornered_simplex supports population observables only (k = l)")
    if _PLANS[fam] is _ww_plan and (n != m or k != l):
        raise ValueError(
            "window-window families estimate population-population "
            "correlation functions only (n = m and k = l)"
        )
    return H, F, t_grid, (n - 1, m - 1, k - 1, l - 1)


# ---------------------------------------------------------------------------
# the block driver


class _Plan(NamedTuple):
    """One family's sampler and evaluator.

    sample(rng, nb) draws a block's frames (nb, r, F) with the
    per-trajectory data its evaluator needs; evaluate(Zt, aux, ti)
    returns the block's sums at grid time ti, shape (width,).  measure
    is None for the block-mean families and the phase space measure
    factor of a ww plan.
    """

    sample: Callable
    evaluate: Callable
    width: int = 1
    dtype: type = np.complex128
    measure: float = None


def _drive(req, U, plan):
    """Sample, march by the maps U, evaluate every block; returns the block sums and sizes.

    Block b draws from its own Philox stream and writes only sums[b], so
    the result does not depend on the thread count.
    """
    sizes = _block_sizes(req.n_traj)
    sums = np.zeros((N_BLOCKS, len(U), plan.width), dtype=plan.dtype)

    def work(b):
        Z0, aux = plan.sample(_block_rng(req.seed, b), int(sizes[b]))
        for ti, Ut in enumerate(U):
            sums[b, ti] = plan.evaluate(np.matmul(Z0, Ut.T), aux, ti)

    blocks = [b for b in range(N_BLOCKS) if sizes[b] > 0]
    if req.n_threads > 1:
        with ThreadPoolExecutor(max_workers=req.n_threads) as pool:
            list(pool.map(work, blocks))
    else:
        for b in blocks:
            work(b)
    return sums, sizes


# ---------------------------------------------------------------------------
# covariant observable and the single-sphere density side


def _sphere_density(F, g, n0, m0):
    """Sampler of the sphere at g with density weight F K_mn(z)."""

    def sample(rng, nb):
        Z = sample_sphere_batch(F, g, rng, nb)[:, None, :]
        return Z, F * kernel_entries(Z, m0, n0, g)

    return sample


def _covariant_observable(l0, k0):
    """Evaluator sum_n W_n K_lk(z_n) for aux = (W, gamma), gamma per trajectory or shared."""

    def evaluate(Zt, aux, ti):
        W, gamma = aux
        return np.sum(W * kernel_entries(Zt, l0, k0, gamma))

    return evaluate


# ---------------------------------------------------------------------------
# cc families


def _cmm_plan(req, F, idx, U):
    n0, m0, k0, l0 = idx
    g = req.method.gamma
    c1, c2 = inverse_kernel_coefficients(F, g)

    def evaluate(Zt, W, ti):
        return np.sum(W * kernel_entries(Zt, l0, k0, c2, c1))

    return _Plan(_sphere_density(F, g, n0, m0), evaluate)


def _wmm_plan(req, F, idx, U):
    n0, m0, k0, l0 = idx
    weight = req.method.weight
    tot = weight.abs_total()

    def sample(rng, nb):
        gam, sgn = weight.sample_batch(rng, nb)
        Z = sample_sphere_batch(F, gam, rng, nb)[:, None, :]
        W = kernel_entries(Z, m0, n0, gam) * (F * tot * sgn)
        return Z, (W, gam)

    return _Plan(sample, _covariant_observable(l0, k0))


def _cmmcv_plan(req, F, idx, U):
    """cmmcv: self-dual Gamma-comb kernels, K = (1/2) z z^dagger - Gamma_c.

    Each trajectory carries one frame z on the sphere of its component c
    (squared radius 2(1 + Tr Gamma_c)), drawn with probability
    |w_c| / sum|w|.  Both backends march z by the maps U_t, and
    U K U^dagger = (1/2)(U z)(U z)^dagger - U Gamma_c U^dagger.  The last
    term is shared by every trajectory of component c, so its (l, k)
    entry is read off the maps once per request.
    """
    n0, m0, k0, l0 = idx
    comps = req.method.components
    weights = np.array([w for w, _ in comps])
    tot = float(np.sum(np.abs(weights)))
    probs = np.abs(weights) / tot
    comp_signs = np.sign(weights)
    comp_signs[comp_signs == 0] = 1.0
    gstack = np.stack([G for _, G in comps])
    shells = np.array([np.real(np.trace(G)) for G in gstack]) / F
    gamma_lk = np.einsum("ta,cab,tb->tc", U[:, l0], gstack, U[:, k0].conj())

    def sample(rng, nb):
        ci = rng.choice(len(comps), size=nb, p=probs)
        Z = sample_sphere_batch(F, shells[ci], rng, nb)[:, None, :]
        K_mn = kernel_entries(Z, m0, n0, Gamma=gstack[ci, m0, n0])
        return Z, ((F * tot * comp_signs[ci]) * K_mn, ci)

    def evaluate(Zt, aux, ti):
        W, ci = aux
        return np.sum(W * kernel_entries(Zt, l0, k0, Gamma=gamma_lk[ti][ci]))

    return _Plan(sample, evaluate)


# ---------------------------------------------------------------------------
# cx family


def _cx_plan(req, F, idx, U):
    n0, m0, k0, l0 = idx
    g = req.method.gamma

    def evaluate(Zt, W, ti):
        e = 0.5 * np.abs(Zt[:, 0, k0]) ** 2
        return np.sum(W * _cornered_window(e, F, g))

    return _Plan(_sphere_density(F, g, n0, m0), evaluate)


# ---------------------------------------------------------------------------
# xc families


def _triangle_population_sampler(rng, nb, F, focus):
    """Actions for the triangle density kernel focused on one state per row.

    focus is a state index, shared or one per row.  The focus action has
    density proportional to (2 - e) on [1, 2], the spectators are uniform
    on [0, 2 - e_focus] in state order, angles are uniform.
    """
    focus = np.broadcast_to(focus, (nb,))
    u = rng.random(nb)
    e_focus = 2.0 - np.sqrt(1.0 - u)
    spect = rng.random((nb, F - 1)) * (2.0 - e_focus)[:, None]
    theta = rng.random((nb, F)) * (2.0 * np.pi)
    e = np.empty((nb, F))
    e[np.arange(nb), focus] = e_focus
    cols = np.arange(F - 1)[None, :]
    np.put_along_axis(e, cols + (cols >= focus[:, None]), spect, axis=1)
    return np.sqrt(2.0 * e) * np.exp(1j * theta)


def _triangle_sqc_plan(req, F, idx, U):
    n0, m0, k0, l0 = idx
    third = req.method.obs_gamma == "third"

    def sample(rng, nb):
        if n0 == m0:
            z = _triangle_population_sampler(rng, nb, F, n0)
            W = np.ones(nb, dtype=np.complex128)
        else:
            pick = rng.random(nb) < 0.5
            z = _triangle_population_sampler(rng, nb, F, np.where(pick, n0, m0))
            W = kernel_entries(z[:, None, :], m0, n0, weights=1.2)
        if third:
            gobs = np.full(nb, 1.0 / 3.0)
        else:
            gobs = (np.sum(0.5 * np.abs(z) ** 2, axis=1) - 1.0) / F
        return z[:, None, :], (W, gobs)

    return _Plan(sample, _covariant_observable(l0, k0))


def _focused_plan(req, F, idx, U):
    """ehrenfest (gamma = 0) and lambda_point: the focused density kernel."""
    n0, m0, k0, l0 = idx
    g = 0.0 if req.method.family == "ehrenfest" else req.method.gamma

    def sample(rng, nb):
        theta = rng.random((nb, F)) * (2.0 * np.pi)
        e = np.full((nb, F), g)
        if n0 == m0:
            e[:, n0] = 1.0 + g
        else:
            e[:, [n0, m0]] = (1.0 + 2.0 * g) / 2.0
        Z = (np.sqrt(2.0 * e) * np.exp(1j * theta))[:, None, :]
        if n0 == m0:
            return Z, (np.ones(nb, dtype=np.complex128), g)
        W = kernel_entries(Z, m0, n0, weights=2.0) / (1.0 + 2.0 * g) ** 2
        return Z, (W, g)

    return _Plan(sample, _covariant_observable(l0, k0))


def _discrete_plan(req, F, idx, U):
    """dtwa and gdtwa: uniform draws from the discrete point sets."""
    n0, m0, k0, l0 = idx
    sig = gdtwa_signature(F)
    signs = np.asarray(sig.signs, dtype=np.float64)
    set_n = gdtwa_points(F, n0 + 1)
    frames_n = set_n.frames
    if n0 == m0:

        def sample(rng, nb):
            pts = rng.integers(frames_n.shape[0], size=nb)
            W = np.ones(nb, dtype=np.complex128)
            return frames_n[pts], W

    else:
        set_m = gdtwa_points(F, m0 + 1)
        frames_m = set_m.frames
        kv_n = np.array([K[m0, n0] for K in set_n.kernel_values])
        kv_m = np.array([K[m0, n0] for K in set_m.kernel_values])

        def sample(rng, nb):
            pick = rng.random(nb) < 0.5
            pts = rng.integers(frames_n.shape[0], size=nb)
            Z = np.where(pick[:, None, None], frames_n[pts], frames_m[pts])
            W = 2.0 * np.where(pick, kv_n[pts], kv_m[pts])
            return Z, W

    def evaluate(Zt, W, ti):
        return np.sum(W * kernel_entries(Zt, l0, k0, sig.gamma, 0.5 * signs))

    return _Plan(sample, evaluate)


# ---------------------------------------------------------------------------
# ww families


def _ww_plan(req, F, idx, U):
    """Window-window plan: per-trajectory numerators Qbar_{nn,mm} for every state m.

    The family supplies a frame sampler, an optional density window of
    the starting actions e0 and the observable windows of the actions e
    at each time, (nb, F).  The block sums hold the per-state numerator
    sums plus the smallest single numerator; estimate_tcf forms the ratio
    to the summed denominator.
    """
    n0 = idx[0]
    fam = req.method.family
    g = req.method.gamma
    rho = None
    if fam == "triangle_ww":
        draw = lambda rng, nb: _triangle_population_sampler(rng, nb, F, n0)[:, None, :]
        obs = lambda e, aux: _triangle_obs_windows(e)
        measure = 1.0
    else:
        draw = lambda rng, nb: sample_sphere_batch(F, g, rng, nb)[:, None, :]
        measure = float(F)
        if fam == "triangle_f2_single":
            rho = lambda e0: e0[:, n0]
            obs = lambda e, e0_n: _f2_single_windows(e0_n, e, (1.0 + 2.0 * g) / 2.0)
        else:
            rho = lambda e0: _hill_rho_window(e0, n0)
            obs = lambda e, rho_w: rho_w[:, None] * _hill_obs_windows(e)

    def sample(rng, nb):
        Z = draw(rng, nb)
        if rho is None:
            return Z, None
        return Z, rho(0.5 * np.abs(Z[:, 0, :]) ** 2)

    def evaluate(Zt, aux, ti):
        vals = obs(0.5 * np.abs(Zt[:, 0, :]) ** 2, aux)
        return np.append(np.sum(vals, axis=0), vals.min())

    return _Plan(sample, evaluate, width=F + 1, dtype=np.float64, measure=measure)


# ---------------------------------------------------------------------------
# windows: batched functions of the actions e (..., F)


def _triangle_rho_window(e, n0):
    """Density-side triangle window of state n0: e_n >= 1 and e_n + e_i <= 2 for i != n."""
    others = np.delete(e, n0, axis=-1)
    e_n = e[..., n0]
    return ((e_n >= 1.0) & np.all(2.0 - e_n[..., None] - others >= 0.0, axis=-1)) * 1.0


def _triangle_obs_windows(e):
    """Observable triangle windows of every state: e_m >= 1 with no other action above 1."""
    above = e > 1.0
    n_above = np.sum(above, axis=-1)
    return ((e >= 1.0) & ((n_above[..., None] - above) == 0)).astype(np.float64)


def _f2_single_windows(e0_n, e, cut):
    """triangle_f2_single numerators of every state m: 2 - 2 cut^2 / min(e0_n, e_m)^2.

    e0_n is the starting action of the initial state, one per row; the
    value is zero unless both actions reach cut.
    """
    passing = (e0_n[:, None] >= cut) & (e >= cut)
    safe = np.where(passing, np.minimum(e0_n[:, None], e), 1.0)
    return np.where(passing, 2.0 - 2.0 * cut**2 / safe**2, 0.0)


def _hill_rho_window(e, n0):
    """Hill density window of state n0: 1 where e_n0 is the largest action."""
    return np.all(e[..., n0, None] >= e, axis=-1).astype(np.float64)


def _hill_obs_windows(e):
    """Hill observable windows of every state m, prod_{j != m} max(e_m - e_j, 0)^B(F)."""
    F = e.shape[-1]
    diffs = e[..., :, None] - e[..., None, :]
    clipped = np.where(diffs >= 0.0, diffs, 0.0)
    idx = np.arange(F)
    clipped[..., idx, idx] = 1.0
    return np.prod(clipped ** hill_exponent(F), axis=-1)


def _cornered_window(e_n, F, g):
    """Cornered-simplex window [e_n >= 1] of one state's actions, normalized on the sphere at g.

    The normalization is F (F gamma / (1 + F gamma))^(F-1).
    """
    return (1.0 / (F * (F * g / (1.0 + F * g)) ** (F - 1))) * (e_n >= 1.0)


_WINDOWS = {
    "triangle": _triangle_rho_window,
    "hill_obs": lambda e, n0: _hill_obs_windows(e)[..., n0],
    "hill_rho": _hill_rho_window,
}


def eval_window(kind, point, n):
    """Evaluate one window function at an r=1 point for state n (1-based).

    kinds: triangle (the density-side triangle window), hill_obs and
    hill_rho (the hill pair), cornered (the normalized cornered-simplex
    window, using the point's sphere parameter).  The point's actions
    are a batch of one for the estimators' window functions.
    """
    if point.r != 1:
        raise ValueError("windows are defined on single-frame points")
    F = point.F
    if not 1 <= n <= F:
        raise ValueError(f"state index {n} outside 1..{F}")
    e = point.actions()
    if kind == "cornered":
        g = point.signature.gamma
        if g <= 0:
            raise ValueError("cornered window needs a gamma > 0 sphere")
        return float(_cornered_window(e[:, n - 1], F, g)[0])
    if kind not in _WINDOWS:
        raise ValueError(f"unknown window kind {kind!r}")
    return float(_WINDOWS[kind](e, n - 1)[0])


# ---------------------------------------------------------------------------
# family table and dispatch


_PLANS = {
    "cmm": _cmm_plan,
    "wmm": _wmm_plan,
    "cmmcv": _cmmcv_plan,
    "cornered_simplex": _cx_plan,
    "triangle_sqc": _triangle_sqc_plan,
    "ehrenfest": _focused_plan,
    "lambda_point": _focused_plan,
    "dtwa": _discrete_plan,
    "gdtwa": _discrete_plan,
    "triangle_ww": _ww_plan,
    "triangle_f2_single": _ww_plan,
    "hill_ww": _ww_plan,
}


def estimate_tcf(req):
    """Estimate a TCF: the family's plan, the block driver, then the reduction.

    The cc/cx/xc families reduce to the block mean; a ww plan (one with a
    measure) to the ratio of the observed state's numerator to the summed
    denominator over the same trajectories.
    """
    make_plan = _PLANS.get(req.method.family)
    if make_plan is None:
        raise ValueError(f"unknown method family {req.method.family!r}")
    H, F, t_grid, (n0, m0, k0, l0) = _prepare(req)
    U = grid_march(H, t_grid, req.backend, req.dt)
    plan = make_plan(req, F, (n0, m0, k0, l0), U)
    out, sizes = _drive(req, U, plan)
    if plan.measure is None:
        total = np.sum(out[:, :, 0], axis=0)
        se = _jackknife(out[:, :, 0], sizes[:, None], total, req.n_traj, sizes)
        return TCFResult(t_grid, total / req.n_traj, np.ones(t_grid.size), se, req.n_traj)
    sums = np.ascontiguousarray(out[:, :, :F])
    num_total = np.sum(sums, axis=0)
    den_total = np.sum(num_total, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        estimates = (num_total[:, k0] / den_total).astype(np.complex128)
    den_blocks = np.sum(sums, axis=2)
    se = _jackknife(sums[:, :, k0], den_blocks, num_total[:, k0], den_total, sizes)
    normalization = plan.measure * den_total / req.n_traj
    min_num = float(np.nanmin(out[sizes > 0, :, F]))
    return TCFResult(t_grid, estimates, normalization, se, req.n_traj, min_num)


# ---------------------------------------------------------------------------
# intra-electron correlation check


@dataclass
class IntraElectronReport:
    """Exact versus Monte Carlo sides of the intra-electron identity."""

    lhs: float
    rhs: float
    rhs_se: float
    n_traj: int
    cubic_moment: float
    cubic_target: float
    cubic_satisfied: bool


def intra_electron_check(weight, H, rho, A, n_traj, seed):
    """Compare (1/2)Tr[rho {A, H}] with its self-dual phase space average.

    The right side is the Monte Carlo integral of
    Tr[rho K] Tr[A K] Tr[H K] over the weighted spheres; the identity
    requires the weight to satisfy both the exact-mapping condition and
    the cubic moment condition int w (1+F gamma)^3 = (1+F)(2+F)/2.
    """
    H = require_hermitian(H)
    F = H.shape[0]
    rho = np.asarray(rho, dtype=np.complex128)
    A = np.asarray(A, dtype=np.complex128)
    lhs = float(np.real(0.5 * np.trace(rho @ (A @ H + H @ A))))
    tot = weight.abs_total()
    rng = _block_rng(seed, 0)
    gam, sgn = weight.sample_batch(rng, n_traj)
    Z = sample_sphere_batch(F, gam, rng, n_traj)[:, None, :]
    traces = [kernel_trace(Z, M, gam) for M in (rho, A, H)]
    vals = np.real((F * tot * sgn) * traces[0] * traces[1] * traces[2])
    rhs = float(np.mean(vals))
    rhs_se = float(np.std(vals, ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else math.nan
    cubic = weight.moment(lambda g: (1.0 + F * g) ** 3)
    target = 0.5 * (1.0 + F) * (2.0 + F)
    return IntraElectronReport(
        lhs, rhs, rhs_se, n_traj, float(cubic), float(target), abs(cubic - target) <= 1e-6
    )
