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

Every family is a small plan (_Plan) run by one block driver (_drive).
estimate_tcf takes one request or a list of requests that differ only
in their index pairs, and splits the list into ensembles: the requests
that draw the same frames (every request of a cc or cx family, the
requests with one density side (n, m) of an xc or ww family).  Each
ensemble is one plan: its sampler draws a block once, on one component
of the phase space (a sphere, or the gdtwa two-frame Stiefel
component), together with the density-side weights of every density
side it serves, and the maps U of dynamics.grid_march, built once per
call by either backend, carry the block to every grid time at once: a
covariant observable kernel (cc and xc), described by its frame weight
and shift, as one F x F moment matrix per block and density side
carried as U M U^dagger (one einsum per request over all blocks, after
the groups), formed from the frames (nb, F) the plan draws or, for
dtwa and gdtwa, in closed form from the drawn signs; a window (cx and
ww) by one gemm of the frames with the map rows it reads (per bounded
chunk of grid times).  Plans are looked up by family in one
table (_PLANS).  The cc families share one plan: each is a signed comb
of sphere terms (_comb), whose exact mapping identity _prepare checks
in closed form, drawn by the one sphere sampler (_comb_density), which
draws each block's frames in polar form (cps.sphere_normals): float64
exponential actions and float32 phases.  Every density-side kernel
entry comes from kernels.kernel_entries; every window is one batched
function of the actions (..., F) in this module.

Each ensemble also checks its own sampler: every group returns each
block's frame moment sum_i w z_i z_i^dagger at t = 0 (for dtwa and
gdtwa, sum_i (K_i + gamma I) of the drawn points' kernels), and
_reduce judges its mean against the closed form that the plan carries
(mean) with the estimates' block jackknife SE, from the same one pass
over a table of the frame moments and the estimates' columns
(MomentCheck).

Trajectories are generated in 100 fixed blocks, which double as
jackknife resampling units for the standard errors.  Block b draws from
the stream Generator(SFC64(SeedSequence(seed, spawn_key=(b,)))), which
cpsmap.streams seeds for all blocks at once and serves each worker
thread from one re-keyed SFC64 generator.  The driver samples blocks
in groups: a group is a run of consecutive blocks of equal size with at
most GROUP_ENTRIES rows times F in all, or POOL_ROWS rows on a pool of
workers (a larger block is a group of one), drawn block by block from
the blocks' own streams and then transformed and reduced per block as
one stacked array, in scratch arrays that each worker keeps from group
to group.  Every per-block sum is bitwise what the block alone gives,
whatever group it is in, and the reduction over blocks runs in a fixed
order, so results are bitwise reproducible for a given (seed, n_traj)
regardless of the worker thread count.  That rests on the float32 cos
and sin of NumPy's SIMD loops giving an element the same bits at any
place in an array, which the tests check.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernels import inverse_kernel_coefficients, kernel_entries, kernel_trace

# The maps of dynamics.grid_march own the propagators and the rk4 steps, the sphere plans draw
# through _comb_density, and the gdtwa plan forms its moments from the drawn signs without the
# point set: sample_sphere_batch, propagator_from_decomposition, _rk4_arrays and gdtwa_points
# are imported here only because perfbench/spans.py wraps these names in this module.
from .cps import GammaWeight, gdtwa_signature, onto_sphere, sample_sphere_batch, sphere_normals  # noqa: F401
from .dynamics import _check_grid, _check_step, _march, _rk4_arrays, check_rk4_edge  # noqa: F401
from .kernels import gdtwa_points  # noqa: F401
from .qcore import hermitian_eig, propagator_from_decomposition, require_hermitian  # noqa: F401
from .streams import BlockStreams, block_keys, check_seed, is_integer

N_BLOCKS = 100
# Entries (rows times F) of consecutive equal blocks sampled and carried as
# one group on one thread, which bounds a group's memory; a pool's groups
# hold POOL_ROWS rows, so fewer calls that hold the GIL are made.
GROUP_ENTRIES = 8192
POOL_ROWS = 8192
# Marched frame entries a window block holds at once (8 MB of complex).
MARCH_ENTRIES = 1 << 19
# A standard error at most this times max(1, |estimate|) is rounding noise.
ZERO_VARIANCE_REL = 1e-12
# The frame moment check: a zero-variance entry may miss its closed form by
# ZERO_VARIANCE_TOL times max(1, |closed form|), any other by MOMENT_SE_LIMIT
# standard errors when all N_BLOCKS blocks hold trajectories (see
# _moment_limit for fewer).
ZERO_VARIANCE_TOL = 1e-12
MOMENT_SE_LIMIT = 5.0
# The largest miss of the exact mapping identity a cc comb may have.
EXACT_MAPPING_TOL = 1e-8
# The cc families: signed combs of covariant kernel pairs on spheres (see _comb).
COMB_FAMILIES = ("cmm", "wmm", "cmmcv")

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
        for i, (w, G) in enumerate(components, start=1):
            w, G = float(w), np.asarray(G, dtype=np.complex128)
            if not math.isfinite(w):
                raise ValueError(f"cmmcv component {i} has a non-finite weight {w!r}")
            require_hermitian(G, name="cmmcv Gamma")
            comps.append((w, G))
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
    selects A = |k><l|, both 1-based.  backend is "exact" (exp(-i H t))
    or "rk4" (equal rk4 steps h of at most dt between grid times, with
    max|lambda| h at most 2 sqrt(2), rk4's stability edge); both build
    their maps from one decomposition of H (dynamics.grid_march).
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


class MomentCheck(NamedTuple):
    """An ensemble's mean frame moment w z z^dagger at t = 0 against its sampler's closed form.

    Each entry's SE comes from the block jackknife pass that gives the
    ensemble's block-mean estimates theirs (_reduce).
    worst_over_se is the largest |dev| / SE over the entries with a
    spread, which may be at most limit (_moment_limit of the nonempty
    blocks), zero_variance_dev the largest |dev| / max(1, |mean|) over
    the entries whose SE is at the ZERO_VARIANCE_REL floor, whose
    rounding grows with their size (0 when there is none, and when some
    block is empty: a discrete sampler's entry then takes one value in
    every block by chance, a gdtwa entry one of two values with
    probability 1/2 each).  worst_over_se and limit are nan with fewer
    than 2 nonempty blocks.
    """

    worst_over_se: float
    zero_variance_dev: float
    limit: float

    @property
    def passed(self):
        return self.worst_over_se <= self.limit and self.zero_variance_dev <= ZERO_VARIANCE_TOL


@dataclass
class TCFResult:
    """Estimates on the time grid with jackknife standard errors.

    normalization holds Cbar(t) (all ones for the constant-normalization
    families); min_numerator records the smallest per-trajectory
    numerator contribution seen by a ww estimate (nan otherwise).
    moment_check is the MomentCheck of the ensemble the request was
    drawn in.  zero_variance flags the times whose standard error is at
    most ZERO_VARIANCE_REL max(1, |estimate|): every trajectory carried
    the same value, so the SE there is rounding noise, not a spread.
    """

    t_grid: np.ndarray
    estimates: np.ndarray
    normalization: np.ndarray
    standard_errors: np.ndarray
    n_traj: int
    min_numerator: float = math.nan
    moment_check: MomentCheck = None
    zero_variance: np.ndarray = field(init=False)

    def __post_init__(self):
        floor = ZERO_VARIANCE_REL * np.maximum(1.0, np.abs(self.estimates))
        self.zero_variance = self.standard_errors <= floor


# ---------------------------------------------------------------------------
# blocks, groups, jackknife


def _block_sizes(n_traj):
    base, extra = divmod(n_traj, N_BLOCKS)
    return base + (np.arange(N_BLOCKS) < extra)


def _groups(sizes, max_rows):
    """Runs (lo, hi) of consecutive nonempty blocks of equal size and at most max_rows rows in all.

    A block of max_rows rows or more is a group of its own.
    """
    edges = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(sizes)]
    runs = [(lo, hi, max(1, max_rows // int(sizes[lo]))) for lo, hi in zip(edges, edges[1:]) if sizes[lo]]
    return [(b, min(b + step, hi)) for lo, hi, step in runs for b in range(lo, hi, step)]


def _run_blocks(work, blocks, n_threads):
    """[work(b) for b in blocks], on a pool of n_threads workers when n_threads > 1."""
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(work, blocks))
    return [work(b) for b in blocks]


def _jackknife(num_blocks, den_blocks, num_total, den_total, sizes):
    """SE of num_total / den_total from leave-one-block-out ratios, formed in place on one copy of the live blocks."""
    live = sizes > 0
    B = int(np.count_nonzero(live))
    if B < 2:
        return np.full(num_total.shape, np.nan)
    den_loo = den_total - den_blocks[live]
    den_loo = np.where(den_loo == 0.0, np.nan, den_loo)
    theta = num_blocks[live]
    np.subtract(num_total, theta, out=theta)
    theta /= den_loo
    theta -= np.mean(theta, axis=0)
    return np.sqrt((B - 1) / B * np.sum(theta.real**2 + theta.imag**2, axis=0))


# ---------------------------------------------------------------------------
# request validation


def _check_count(name, value):
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer (bool excluded) of at least 1, got {value!r}")


def _check_scale(H, t_last, name):
    """Reject H by name unless 2 F max|H_ij| t_last, a bound of each phase lambda t and gap (lambda_b - lambda_a) t, is finite."""
    F, top, t_last = H.shape[0], float(np.max(np.abs(H))), float(t_last)
    if not 2.0 * F * top * t_last < np.finfo(float).max:
        raise ValueError(f"{name} has max|H_ij| = {top:.4g}, whose phases 2 F max|H_ij| t overflow at F = {F} by "
                         f"t = {t_last:.4g}; max|H_ij| must be below {np.finfo(float).max / (2.0 * F * t_last):.4g}")


def _prepare(req):
    """Check the fields a call's requests share, on its first request; return its H, F and t_grid."""
    fam = req.method.family
    if fam not in _PLANS:
        raise ValueError(f"unknown method family {fam!r}")
    H = require_hermitian(req.hamiltonian, name="hamiltonian")
    F = H.shape[0]
    for name in ("n_traj", "n_threads"):
        _check_count(name, getattr(req, name))
    check_seed(req.seed)
    t_grid = _check_grid(req.t_grid, "t_grid")
    _check_scale(H, t_grid[-1], "hamiltonian")
    if req.backend not in ("exact", "rk4"):
        raise ValueError(f"unknown backend {req.backend!r}")
    _check_step(req.dt)
    # the jackknife squares frame moments of order 1 + F gamma; a hill window multiplies F - 1 gaps of up to that
    power = max(2, F - 1) if fam == "hill_ww" else 2
    limit = (np.finfo(float).max ** (1 / power) - 1) / F
    if fam != "triangle_f2_single" and not (req.method.gamma or 0.0) < limit:
        raise ValueError(f"{fam} gamma = {req.method.gamma!r} overflows (1 + F gamma)^{power} at F = {F}; "
                         f"it must be below {limit:.4g}")
    if fam == "cornered_simplex" and F > 1:
        # the window divides by F x^(F-1), x = F gamma / (1 + F gamma), which the jackknife squares
        x = (np.finfo(float).max ** -0.5 / F) ** (1 / (F - 1))
        low = x / (F * (1.0 - x))
        if not req.method.gamma >= low:
            raise ValueError(f"cornered_simplex gamma = {req.method.gamma!r} overflows its window normalization "
                             f"1 / (F (F gamma / (1 + F gamma))^(F-1)) at F = {F}; it must be at least {low:.4g}")
    if fam in COMB_FAMILIES:
        miss, where = _mapping_miss(F, _comb(req.method, F))
        if not miss <= EXACT_MAPPING_TOL:
            raise ValueError(
                f"{fam} comb violates the exact mapping condition: F sum_c w_c E_c[K_mn K_lk] misses "
                f"delta_mk delta_nl by {miss:.3e} at (m, n, l, k) = {where}, tolerance {EXACT_MAPPING_TOL:.0e}"
            )
    if fam == "dtwa" and F != 2:
        raise ValueError("dtwa is the F=2 method; use gdtwa for F >= 3")
    if fam == "gdtwa" and F < 2:
        raise ValueError("gdtwa needs F >= 2: a point's signs sit on the states besides its focus")
    if fam == "gdtwa" and F > 32:
        raise ValueError(
            f"gdtwa at F = {F} needs 2(F-1) = {2 * (F - 1)} sign bits per point, "
            "more than the 2(F-1) <= 62 of one 64-bit draw; F must be at most 32"
        )
    if fam == "hill_ww" and F < 2:
        raise ValueError("hill_ww needs F >= 2: the hill exponent B(F) is singular at F = 1")
    if fam == "triangle_f2_single" and F != 2:
        raise ValueError("triangle_f2_single is defined for F = 2 only")
    return H, F, t_grid


def _indices(req, F):
    """A request's 0-based (n, m, k, l), checked against 1..F and its family's index rules."""
    for name in ("rho_indices", "obs_indices"):
        pair = getattr(req, name)
        if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2 and all(map(is_integer, pair))):
            raise ValueError(f"{name} must be a pair of integers (bool excluded), got {pair!r}")
        if not all(1 <= idx <= F for idx in pair):
            raise ValueError(f"{name}: index outside 1..{F} in {pair!r}")
    (n, m), (k, l) = req.rho_indices, req.obs_indices
    fam = req.method.family
    if fam == "cornered_simplex" and k != l:
        raise ValueError("cornered_simplex supports population observables only (k = l)")
    if _PLANS[fam] is _ww_plan and (n != m or k != l):
        raise ValueError(
            f"{fam} is a window-window family: it estimates population-population "
            "correlation functions only (n = m and k = l)"
        )
    return n - 1, m - 1, k - 1, l - 1


def _pair_deltas(F):
    """delta_mn delta_lk and delta_mk delta_nl as tensors indexed [m, n, l, k]."""
    I = np.eye(F)
    return np.multiply.outer(I, I), np.einsum("mk,nl->mnlk", I, I)


def _mapping_tensor(F, terms):
    """F sum_c w_c E_c[(z z^dagger/2 - A_c)_mn (b_c z z^dagger - B_c)_lk], indexed [m, n, l, k], in closed form.

    terms holds the (w_c, A_c, b_c, B_c), with A_c and B_c scalars
    (times I) or F x F.  Term c averages over the sphere of squared
    radius R^2 = 2(1 + Re Tr A_c), where E[z_a z_b*] = (R^2/F) delta_ab
    and E[z_a z_b* z_c z_d*] = R^4/(F(F+1)) (delta_ab delta_cd + delta_ad delta_cb).
    A comb of kernel pairs is exact when this is delta_mk delta_nl; _comb
    gives the terms of the cc families.
    """
    I = np.eye(F)
    same, cross = _pair_deltas(F)
    T = np.zeros((F, F, F, F), dtype=np.complex128)
    for w, A, b, B in terms:
        A, B = (X * I if np.ndim(X) == 0 else X for X in (A, B))
        R2 = 2.0 * (1.0 + np.real(np.trace(A)))
        T += w * (
            b * R2 * R2 / (2.0 * F * (F + 1)) * (same + cross)
            - R2 / (2.0 * F) * (np.multiply.outer(I, B) + 2.0 * b * np.multiply.outer(A, I))
            + np.multiply.outer(A, B)
        )
    return F * T


def _mapping_miss(F, terms):
    """The largest |miss| of the closed-form mapping tensor of terms against delta_mk delta_nl, and its 1-based (m, n, l, k)."""
    miss = np.abs(_mapping_tensor(F, terms) - _pair_deltas(F)[1])
    worst = np.unravel_index(np.argmax(miss), miss.shape)
    return float(miss[worst]), tuple(int(i) + 1 for i in worst)


# ---------------------------------------------------------------------------
# the block driver


class _Plan(NamedTuple):
    """One ensemble's sampler and the data of its requests' observables.

    An ensemble is the requests of one call that draw the same frames;
    idxs lists their 0-based (n, m, k, l) and _sides(idxs) their
    distinct density sides (n, m).  sample(rngs, nb) draws a group of
    len(rngs) blocks of nb trajectories, each block from its own stream
    of rngs in block order, and returns the group's frames Z0
    (len(rngs) * nb, F), block after block, once for all requests.

    A kernel plan (window None) gives request (n, m, k, l) the
    observable kernel w z z^dagger - shift read at (l, k), with the one
    frame weight w = weights.  Its sample returns (Z0, Ws, S): one
    density weight vector W per density side in Ws, and shift
    coordinates S (broadcastable to (rows, C)).  Trajectory i's shift at
    time t has (l, k) entry sum_c S_ic shift_lk(l, k)[t, c]; shift_lk
    None means the one column delta_lk of a gamma*I shift.
    moments(rngs, nb) gives the group's block frame moments, then each
    density side's block moments M and shifts, which _carry carries (see
    _frame_moments, which forms them from the frames of sample when
    moments is None); a plan that has them in closed form gives moments
    and no sample.

    A window plan's sample returns (Z0, aux).  rows lists the sets of
    map rows it marches, and window(E, aux, j) turns the actions E
    (blocks, nb, n_times, len(rows[j])) of row set j into that set's
    block sums (blocks, n_times, w_j); the sets' sums stand side by
    side, width columns in all.  columns[i] is request i's column; a ww
    plan (columns None) holds the numerators of every state and, last,
    the smallest numerator.  measure is the phase space measure factor
    of a ww plan, whose block sums are real, and None for the complex
    block means of the other families.

    mean is the closed-form expectation (F, F) of one trajectory's frame
    moment w z z^dagger (w = 1/2 for a window plan, K + gamma I of the
    drawn point for dtwa and gdtwa), which the ensemble's own frames
    are checked against (MomentCheck).
    """

    sample: Callable
    mean: np.ndarray
    weights: float = 0.5
    shift_lk: Callable = None
    rows: list = None
    window: Callable = None
    width: int = 1
    columns: list = None
    measure: float = None
    moments: Callable = None


def _sides(idxs):
    """The distinct density sides (n, m) of an ensemble's requests, in request order."""
    return list(dict.fromkeys(idx[:2] for idx in idxs))


def _draw_group(rngs, nb, draw=None, F=None):
    """Draw a group block by block, each block from its own stream in block order.

    draw(rng, nb) returns a tuple of nb-row arrays, which come back
    concatenated item by item over the group.  With F given, each block
    then draws its sphere normals into the rows of one scratch array,
    which comes back last (see _comb_density).
    """
    w = None if F is None else rngs.scratch("frames", (len(rngs) * nb, F))
    parts = []
    for i, rng in enumerate(rngs):
        if draw is not None:
            parts.append(draw(rng, nb))
        if w is not None:
            sphere_normals(rng, w[i * nb:(i + 1) * nb], rngs.scratch("actions", (nb, F), np.float64),
                           rngs.scratch("phases", (nb, F), np.float32))
    items = [np.concatenate(p) for p in zip(*parts)]
    return items if w is None else items + [w]


def _frame_moments(plan):
    """The block moments of a kernel plan from the frames it draws (see _Plan).

    Per density side, every block's M = sum_i W_i w z_i z_i^dagger as one
    stacked matmul over the group, with the blocks' weighted shift
    coordinates (blocks, C, 1); the frame moment w A^T conj(A) per block
    comes from one more stacked matmul, on the first side's conj(A)
    before its density weight.
    """
    w, F = plan.weights, len(plan.mean)

    def moments(rngs, nb):
        nblk = len(rngs)
        # W w conj(A) in place, in scratch taken before the draw's temporaries so that it sits below
        # them on the heap (BlockStreams.scratch): taken after, it cost 0.5 MB of two-thread peak RSS
        vAc = rngs.scratch("temp", (nblk, nb, F))
        Z0, Ws, S = plan.sample(rngs, nb)
        A = Z0.reshape(nblk, nb, F)
        At = A.transpose(0, 2, 1)
        out = []
        for W in Ws:
            np.conjugate(A, out=vAc)
            if not out:
                out.append(w * (At @ vAc))
            np.multiply((W * w).reshape(nblk, nb, 1), vAc, out=vAc)
            shifts = np.sum((W[:, None] * S).reshape(nblk, nb, -1), axis=1)
            out += [At @ vAc, shifts[..., None]]
        return out

    return moments


def _carry(U, plan, idxs, moments, out):
    """Write the block sums of covariant observable kernels at every grid time into out, one column per request.

    Every frame obeys z(t) = U_t z(0), so the kernel is carried as
    K(X_t) = U_t K(X_0) U_t^dagger, shift aside.  The block sum
    sum_i W_i K_lk(X_i(t)) is therefore [U_t M U_t^dagger]_lk minus the
    weighted shifts, with one F x F moment matrix
    M = sum_i W_i w z_i z_i^dagger per block and density side,
    which the plan's moments give (see _Plan): moments holds each
    side's M (blocks, F, F) and shifts (blocks, C, 1) in turn.  Every
    request reads its own (l, k) entry off its side's M, in one einsum
    over all blocks, which gives each block the bits it has alone.
    """
    sides = _sides(idxs)
    for i, (n0, m0, k0, l0) in enumerate(idxs):
        d = 2 * sides.index((n0, m0))
        M, S = moments[d], moments[d + 1]
        shift_lk = np.full((len(U), 1), float(l0 == k0)) if plan.shift_lk is None else plan.shift_lk(l0, k0)
        out[..., i] = np.einsum("ta,xab,tb->xt", U[:, l0], M, U[:, k0].conj())
        out[..., i] -= (shift_lk @ S)[..., 0]


def _window_group(U, plan):
    """Block sums of a window observable: a group's frames marched by one stacked matmul per row set and chunk of grid times.

    The stacked matmul makes each block's own BLAS call: a block of one
    row is a gemv, which rounds differently from the rows of a gemm.  A
    chunk holds at most MARCH_ENTRIES marched entries, so a group's
    memory does not grow with the number of grid times; the usual grid
    is one chunk.  Each row set has its own march, as in a call that
    reads only that set: one wider gemm rounds a column differently,
    and every request of a list must equal its own call bitwise.  The
    group returns each block's frame moment sum_i (1/2) z_i z_i^dagger,
    then its sums.
    """
    n_times, F = len(U), U.shape[-1]
    marches = [
        np.ascontiguousarray(U[:, rows, :].transpose(2, 0, 1).reshape(F, -1)) for rows in plan.rows
    ]

    def group(rngs, nb):
        # scratch before the draw's temporaries, as in _frame_moments
        Zc = rngs.scratch("temp", (len(rngs), nb, F))
        Z0, aux = plan.sample(rngs, nb)
        Z0 = Z0.reshape(len(rngs), nb, F)
        sums = []
        for j, UT in enumerate(marches):
            R = UT.shape[1] // n_times
            step = max(1, MARCH_ENTRIES // (len(rngs) * nb * R))
            parts = []
            for lo in range(0, n_times, step):
                Zt = (Z0 @ UT[:, lo * R:(lo + step) * R]).reshape(*Z0.shape[:2], -1, R)
                parts.append(plan.window(0.5 * np.abs(Zt) ** 2, aux, j))
            sums.append(np.concatenate(parts, axis=1))
        np.conjugate(Z0, out=Zc)
        return plan.weights * (Z0.transpose(0, 2, 1) @ Zc), np.concatenate(sums, axis=2)

    return group


def _drive(req, U, plan, idxs):
    """Sample and evaluate every block of one ensemble at every grid time; returns the block sums, frame moments and sizes.

    The maps U of grid_march carry the blocks to all grid times at once:
    a window plan's groups march their frames by the rows they read, and
    a kernel plan's moment matrices of every block are carried after the
    groups (_carry).  Each block is drawn once for every request of the
    ensemble, from its own SFC64 stream; the groups write their own rows
    of frame moments (and window sums) and return their kernel moments,
    joined in block order, all bitwise the same in any group, so the
    result does not depend on the thread count.  Empty blocks sum to zero.
    """
    sizes = _block_sizes(req.n_traj)
    kernel = plan.window is None
    group = (plan.moments or _frame_moments(plan)) if kernel else _window_group(U, plan)
    width = len(idxs) if kernel else plan.width
    F = U.shape[-1]
    sums = np.zeros((N_BLOCKS, len(U), width), dtype=np.complex128 if plan.measure is None else np.float64)
    frames = np.zeros((N_BLOCKS, F, F), dtype=np.complex128)
    streams = BlockStreams(block_keys(req.seed, N_BLOCKS))

    def work(span):
        lo, hi = span
        frames[lo:hi], *rest = group(streams[lo:hi], int(sizes[lo]))
        if kernel:
            return rest
        sums[lo:hi] = rest[0]

    max_rows = GROUP_ENTRIES // F if req.n_threads == 1 else POOL_ROWS
    parts = _run_blocks(work, _groups(sizes, max_rows), req.n_threads)
    if kernel:
        moments = [np.concatenate(items) for items in zip(*parts)]
        # the nonempty blocks come first (_block_sizes)
        _carry(U, plan, idxs, moments, sums[:len(moments[0])])
    return sums, frames, sizes


def _t_tail(x, dof):
    """P(|T| > x) for Student's t with an integer number of degrees of freedom (Abramowitz & Stegun 26.7.3-4)."""
    theta = math.atan(x / math.sqrt(dof))
    c2 = math.cos(theta) ** 2
    term = series = 1.0
    if dof % 2:
        for j in range(1, (dof - 1) // 2):
            term *= 2 * j / (2 * j + 1) * c2
            series += term
        inside = 2.0 / math.pi * (theta + (math.sin(theta) * math.cos(theta) * series if dof > 1 else 0.0))
    else:
        for j in range(1, dof // 2):
            term *= (2 * j - 1) / (2 * j) * c2
            series += term
        inside = math.sin(theta) * series
    return 1.0 - inside


@functools.lru_cache(maxsize=N_BLOCKS + 1)
def _moment_limit(B):
    """The |dev| / SE limit of the frame moment check over B nonempty blocks.

    The jackknife SE of a block mean over B blocks has B - 1 degrees
    of freedom, so the limit is the Student t quantile with B - 1
    degrees of freedom whose two-sided tail is that of MOMENT_SE_LIMIT
    over N_BLOCKS blocks: each entry fails by chance equally rarely at
    any tcf.n_traj, and fewer blocks make a wider limit.  Each B is
    bisected once per process: B counts nonempty blocks, so the cache
    holds at most N_BLOCKS + 1 floats, about 12 KB at any F.
    """
    if B < 2:
        return math.nan
    if B == N_BLOCKS:
        return MOMENT_SE_LIMIT
    tail = _t_tail(MOMENT_SE_LIMIT, N_BLOCKS - 1)
    lo, hi = 0.0, math.pi / 2  # bisect on the angle atan(x / sqrt(B - 1))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _t_tail(math.sqrt(B - 1) * math.tan(mid), B - 1) > tail:
            lo = mid
        else:
            hi = mid
    return math.sqrt(B - 1) * math.tan(hi)


def _moment_check(total, se, sizes, mean):
    """The MomentCheck of an ensemble's flattened frame moment total (F^2,) and its jackknife SE, against mean."""
    n = int(sizes.sum())
    got, mean = total / n, mean.ravel()
    dev = np.abs(got - mean)
    zero = se <= ZERO_VARIANCE_REL * np.maximum(1.0, np.abs(got))
    B = int(np.count_nonzero(sizes))
    return MomentCheck(
        float((dev / np.where(zero, np.inf, se)).max()),
        float(np.where(zero, dev / np.maximum(1.0, np.abs(mean)), 0.0).max()) if B == N_BLOCKS else 0.0,
        _moment_limit(B),
    )


def _reduce(req, plan, idxs, t_grid, out, frames, sizes):
    """Each request's TCFResult from its ensemble's block sums and frame moments, in one pass.

    One sum and one jackknife over a table of the blocks' frame moments,
    then each block-mean request's T columns (none for a ww plan), give
    the ensemble's MomentCheck, off the first F^2 entries, and the
    cc/cx/xc estimates with their SEs.  A ww plan (one with a measure)
    forms every state's ratio to the summed denominator, and its SE, in
    one more jackknife over (blocks, T, F); each request takes its column.
    """
    n, T, F2 = req.n_traj, t_grid.size, frames[0].size
    blocks = frames.reshape(N_BLOCKS, -1)
    if plan.measure is None:
        # take keeps the table C-ordered where fancy indexing may not (T = F = 1): numpy sums the columns
        # of an F-ordered table pairwise, not block by block, so a list would round unlike its calls
        cols = range(len(idxs)) if plan.columns is None else plan.columns
        blocks = np.concatenate([blocks, np.take(out, cols, axis=2).transpose(0, 2, 1).reshape(N_BLOCKS, -1)], 1)
    total = np.sum(blocks, axis=0)
    se = _jackknife(blocks, sizes[:, None], total, n, sizes)
    check = _moment_check(total[:F2], se[:F2], sizes, plan.mean)
    if plan.measure is None:
        return [TCFResult(t_grid, total[c:c + T] / n, np.ones(T), se[c:c + T], n, moment_check=check) for c in range(F2, total.size, T)]
    sums = np.ascontiguousarray(out[:, :, :-1])
    num_total = np.sum(sums, axis=0)
    den_total = np.sum(num_total, axis=1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (num_total / den_total).astype(np.complex128)
    se = _jackknife(sums, np.sum(sums, axis=2)[..., None], num_total, den_total, sizes)
    normalization = plan.measure * den_total[:, 0] / n
    min_num = float(np.nanmin(out[sizes > 0, :, -1]))
    return [TCFResult(t_grid, ratio[:, k0].copy(), normalization.copy(), se[:, k0].copy(), n, min_num, check)
            for _, _, k0, _ in idxs]


# ---------------------------------------------------------------------------
# sphere combs: the cc families, and the sphere draws of the cx and ww plans


def _sphere_gamma(A, F):
    """The sphere parameter of a comb term's density shift A: A itself (times I), or Re Tr A / F."""
    return A if np.ndim(A) == 0 else np.real(np.trace(A)) / F


def _sphere_mean(F, terms, b=0.5):
    """The frame moment E[b z z^dagger] of a comb's sampler: b R^2 / F times I, R^2 = 2(1 + F gamma_c) mixed by |w_c| / sum|w|."""
    ws = np.abs([w for w, _, _, _ in terms])
    R2 = np.array([2.0 * (1.0 + F * _sphere_gamma(A, F)) for _, A, _, _ in terms])
    return (b * float(ws @ R2 / np.sum(ws)) / F) * np.eye(F)


def _focus_mean(F, side, on, off):
    """diag(on at state f, off elsewhere), averaged over the distinct states f of a density side (n, m).

    The frame moment of a sampler whose actions have these means, when
    it draws the focus n or m with probability 1/2 each.
    """
    focus = list(set(side))
    actions = np.full(F, float(off))
    actions[focus] += (on - off) / len(focus)
    return np.diag(actions)


def _comb(method, F):
    """The terms (w_c, A_c, b_c, B_c) of a cc method's comb (see _mapping_tensor), after the domain check.

    cmm is the one term (1, gamma, c1, c2) of its kernel and inverse
    kernel, wmm the terms (w, gamma_c, 1/2, gamma_c) of its pairs and
    cmmcv the terms (w, Gamma_c, 1/2, Gamma_c) of its components.  Term
    c samples the sphere of squared radius 2(1 + Re Tr A_c) > 0.
    """
    fam = method.family
    if fam == "cmm":
        terms = [(1.0, method.gamma, None, None)]
    elif fam == "wmm":
        terms = [(w, g, 0.5, g) for g, w in method.weight.pairs]
    else:
        terms = [(w, G, 0.5, G) for w, G in method.components]
    for i, (_, A, _, _) in enumerate(terms, start=1):
        if np.ndim(A) and np.shape(A) != (F, F):
            raise ValueError(f"{fam} Gamma {i} has shape {np.shape(A)}, not ({F}, {F})")
        if not (g := _sphere_gamma(A, F)) > -1.0 / F:
            raise ValueError(f"{fam} sphere {i}: gamma = Re Tr Gamma / F = {g!r} must exceed -1/F = {-1.0 / F}")
    if fam == "cmm":  # the inverse kernel divides by the shell 1 + F gamma, checked above
        terms = [(1.0, method.gamma, *inverse_kernel_coefficients(F, method.gamma))]
    return terms


def _comb_density(F, terms, sides):
    """Sampler of a comb's spheres with the density weights F sum|w| sgn(w_c) K_mn(z; A_c) of every side (n, m).

    A trajectory draws its term c with probability |w_c| / sum|w| (a
    comb of one term draws none), then its frame z on the sphere of
    term c.  Its shift coordinates are B_c, the one delta_lk column, for
    scalar B, and otherwise the one-hot row of c (see _comb_plan).
    """
    ws, As, _, Bs = (np.array(x) for x in zip(*terms))
    probs = np.abs(ws) / np.sum(np.abs(ws))
    scales = F * float(np.sum(np.abs(ws))) * np.where(ws < 0.0, -1.0, 1.0)
    gammas = np.array([_sphere_gamma(A, F) for A in As])
    shifts = np.stack([np.diag(np.full(F, A)) if A.ndim == 0 else A for A in As]).astype(np.complex128)
    coords = Bs[:, None] if Bs.ndim == 1 else np.eye(len(terms))

    draw = (lambda rng, nb: (rng.choice(len(terms), size=nb, p=probs),)) if len(terms) > 1 else None

    def sample(rngs, nb):
        *c, w = _draw_group(rngs, nb, draw, F)
        c = c[0] if c else 0
        Z = onto_sphere(w, F, gammas[c])
        return Z, [scales[c] * kernel_entries(Z[:, None], m0, n0, Gamma=shifts[c, m0, n0]) for n0, m0 in sides], coords[c]

    return sample


def _comb_plan(req, F, idxs, U):
    """cmm, wmm and cmmcv: the observable kernel b z z^dagger - B_c of each trajectory's term c.

    Every term of these combs has the same b.  A scalar B_c is the one
    delta_lk column; a matrix B_c is shared by the trajectories of term
    c, so its (l, k) entry of U_t B_c U_t^dagger is read off the maps
    once per request.
    """
    terms = _comb(req.method, F)
    Bs = np.array([B for _, _, _, B in terms])
    shift_lk = None if Bs.ndim == 1 else lambda l0, k0: np.einsum("ta,cab,tb->tc", U[:, l0], Bs, U[:, k0].conj())
    b = terms[0][2]
    return _Plan(_comb_density(F, terms, _sides(idxs)), _sphere_mean(F, terms, b), weights=b, shift_lk=shift_lk)


# ---------------------------------------------------------------------------
# cx family


def _cx_plan(req, F, idxs, U):
    """cornered_simplex: row set j is the observed state ks[j], with one column per density side."""
    g = req.method.gamma
    sides = _sides(idxs)
    ks = list(dict.fromkeys(idx[2] for idx in idxs))

    def window(E, Ws, j):
        cw = _cornered_window(E[..., 0], F, g)
        return np.stack([(W.reshape(E.shape[0], 1, -1) @ cw)[:, 0] for W in Ws], axis=-1)

    columns = [ks.index(idx[2]) * len(sides) + sides.index(idx[:2]) for idx in idxs]
    density = _comb_density(F, [(1.0, g, None, None)], sides)
    return _Plan(
        lambda rngs, nb: density(rngs, nb)[:2], _sphere_mean(F, [(1.0, g, None, None)]),
        rows=[[k0] for k0 in ks], window=window, width=len(ks) * len(sides), columns=columns,
    )


# ---------------------------------------------------------------------------
# xc families


def _triangle_draws(F, pick=False):
    """A block's draws for the triangle population sampler, after a pick draw if asked."""

    def draw(rng, nb):
        picks = (rng.random(nb),) if pick else ()
        return (*picks, rng.random(nb), rng.random((nb, F - 1)), rng.random((nb, F)))

    return draw


def _triangle_population(u, spect, theta, focus):
    """Frames for the triangle density kernel focused on one state per row, from uniform draws.

    focus is a state index, shared or one per row.  The focus action has
    density proportional to (2 - e) on [1, 2], the spectators are uniform
    on [0, 2 - e_focus] in state order, angles are uniform.
    """
    nb, F = theta.shape
    focus = np.broadcast_to(focus, (nb,))
    e_focus = 2.0 - np.sqrt(1.0 - u)
    spect = spect * (2.0 - e_focus)[:, None]
    theta = theta * (2.0 * np.pi)
    e = np.empty((nb, F))
    e[np.arange(nb), focus] = e_focus
    cols = np.arange(F - 1)[None, :]
    np.put_along_axis(e, cols + (cols >= focus[:, None]), spect, axis=1)
    return np.sqrt(2.0 * e) * np.exp(1j * theta)


def _triangle_sqc_plan(req, F, idxs, U):
    n0, m0 = idxs[0][:2]
    third = req.method.obs_gamma == "third"

    def sample(rngs, nb):
        if n0 == m0:
            z = _triangle_population(*_draw_group(rngs, nb, _triangle_draws(F)), n0)
            W = np.ones(len(z), dtype=np.complex128)
        else:
            u_pick, *draws = _draw_group(rngs, nb, _triangle_draws(F, pick=True))
            z = _triangle_population(*draws, np.where(u_pick < 0.5, n0, m0))
            W = kernel_entries(z[:, None, :], m0, n0, weights=1.2)
        gobs = 1.0 / 3.0 if third else ((np.sum(0.5 * np.abs(z) ** 2, axis=1) - 1.0) / F)[:, None]
        return z, [W], gobs

    return _Plan(sample, _focus_mean(F, (n0, m0), 4.0 / 3.0, 1.0 / 3.0))


def _focused_plan(req, F, idxs, U):
    """ehrenfest (gamma = 0) and lambda_point: the focused density kernel."""
    n0, m0 = idxs[0][:2]
    g = 0.0 if req.method.family == "ehrenfest" else req.method.gamma

    def sample(rngs, nb):
        (theta,) = _draw_group(rngs, nb, lambda rng, nb: (rng.random((nb, F)),))
        theta = theta * (2.0 * np.pi)
        e = np.full(theta.shape, g)
        if n0 == m0:
            e[:, n0] = 1.0 + g
        else:
            e[:, [n0, m0]] = (1.0 + 2.0 * g) / 2.0
        Z = np.sqrt(2.0 * e) * np.exp(1j * theta)
        if n0 == m0:
            return Z, [np.ones(len(Z), dtype=np.complex128)], g
        return Z, [kernel_entries(Z[:, None], m0, n0, weights=2.0) / (1.0 + 2.0 * g) ** 2], g

    return _Plan(sample, _focus_mean(F, (n0, m0), 1.0 + g, g))


@functools.lru_cache(maxsize=4)
def _placement(F, foci):
    """The read-only (len(foci) (2F - 1), F^2) map from each focus's sums of W [1 | delta | sigma] to sum W (K + gamma I).

    Per focus f, row 0 places gamma I + e_f e_f^dagger; with j the i-th
    state other than f, row i places delta_j / 2 at (j, f) and (f, j),
    and row F - 1 + i places sigma_j i/2 at (j, f) and -i/2 at (f, j)
    (see _discrete_plan).  An entry is 2 (2F - 1) F^2 complex numbers
    for two foci, 2.1 MB at F = 32, so the 4 entries retain at most
    8.3 MB.
    """
    gamma = gdtwa_signature(F).gamma
    place = np.zeros((len(foci), 2 * F - 1, F, F), dtype=np.complex128)
    for p, f in enumerate(foci):
        rows, others = np.arange(1, F), [i for i in range(F) if i != f]
        place[p, 0] = gamma * np.eye(F)
        place[p, 0, f, f] += 1.0
        place[p, rows, others, f] = place[p, rows, f, others] = 0.5
        place[p, rows + F - 1, others, f], place[p, rows + F - 1, f, others] = 0.5j, -0.5j
    place = place.reshape(-1, F * F)
    place.flags.writeable = False
    return place


def _discrete_plan(req, F, idxs, U):
    """dtwa and gdtwa: uniform draws from the discrete point sets, as block moments in closed form.

    A point of focus state f is its signs (delta_i, sigma_i), i != f, and
    its frame moment is K + gamma I, K = e_f e_f^dagger + u e_f^dagger +
    e_f u^dagger with u = (delta + i sigma)/2 (see kernels.gdtwa_points).
    A block's moment sum_i W_i (K_i + gamma I) is thus a fixed placement
    of the sums of W_i [1 | delta_i | sigma_i] over each focus's rows,
    which one stacked product forms for the density weights W (one of
    +-1 +- i) and for W = 1 (the frame moment): whole numbers, exact in
    any order.  The draws are rng.random(nb) < 0.5 for focus n of an
    off-diagonal side, then rng.integers(4^(F-1), size=nb), whose bits
    are the signs, deltas outer and sigmas inner, +1 first, both read off
    raw words (BlockStreams.bit_draws).
    """
    n0, m0 = idxs[0][:2]
    gamma = gdtwa_signature(F).gamma
    foci, bits = tuple(dict.fromkeys((n0, m0))), 2 * (F - 1)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)[:, None, None]
    place = _placement(F, foci)
    # a row's X = [1 | delta | sigma]; its density weight 2 u_m = delta + i sigma
    # (focus n) or 2 conj(u_n) (focus m) reads the columns of state m or n
    q_m, q_n = m0 - (m0 > n0), n0 - (n0 > m0)

    def moments(rngs, nb):
        nblk = len(rngs)
        pick, points = rngs.bit_draws(nb, bits, coins=len(foci) > 1)
        X = np.empty((2 * F - 1, nblk, nb))
        X[0] = 1.0
        np.subtract(1.0, (points.astype(np.uint64) << np.uint64(1)) >> shifts & np.uint64(2), out=X[1:])
        if pick is None:
            M = (X.sum(axis=2).T @ place).reshape(nblk, F, F)
            return M, M, np.full((nblk, 1, 1), gamma * nb)
        # the rows of L hold Re W, Im W and 1 per focus, so L @ X sums X over
        # them: X's column times the pick of focus n, or X's column less that
        L, Xc = np.empty((6, nblk, nb)), X[[1 + q_m, 1 + q_n, F + q_m, F + q_n]]
        L[4], L[5] = pick, ~pick
        np.multiply(Xc, L[4], out=L[:4])
        np.subtract(Xc[1::2], L[1:4:2], out=L[1:4:2])
        L[3] *= -1.0
        LX = (L.transpose(1, 0, 2) @ X.transpose(1, 2, 0)).reshape(nblk, 3, -1)
        out = (LX.reshape(3 * nblk, -1) @ place).reshape(nblk, 3, F, F)
        sum_w = LX[:, 0, 0] + LX[:, 0, 2 * F - 1] + 1j * (LX[:, 1, 0] + LX[:, 1, 2 * F - 1])
        return out[:, 2], out[:, 0] + 1j * out[:, 1], (gamma * sum_w)[:, None, None]

    # each point's frame moment is its kernel plus gamma I, and E[K] = |n><n|
    return _Plan(None, _focus_mean(F, (n0, m0), 1.0 + gamma, gamma), moments=moments)


# ---------------------------------------------------------------------------
# ww families


def _ww_plan(req, F, idxs, U):
    """Window-window plan: per-trajectory numerators Qbar_{nn,mm} for every state m.

    The family supplies a frame sampler, an optional density window of
    the starting actions e0 and the observable windows of the actions e
    at every time, (blocks, nb, n_times, F).  The block sums hold the
    per-state numerator sums plus the smallest single numerator at each
    time; estimate_tcf forms the ratio to the summed denominator.  The
    triangle_f2_single windows depend on the actions only through
    e / (1 + 2 gamma) against the cut 1/2, so that plan draws the
    gamma = 0 sphere and never reads gamma.
    """
    n0 = idxs[0][0]
    fam = req.method.family
    rho = None
    if fam == "triangle_ww":
        draw = lambda rngs, nb: _triangle_population(*_draw_group(rngs, nb, _triangle_draws(F)), n0)
        obs = lambda e, aux: _triangle_obs_windows(e)
        measure = 1.0
        mean = _focus_mean(F, (n0, n0), 4.0 / 3.0, 1.0 / 3.0)
    else:
        g = 0.0 if fam == "triangle_f2_single" else req.method.gamma
        sphere = _comb_density(F, [(1.0, g, None, None)], [])
        mean = _sphere_mean(F, [(1.0, g, None, None)])
        draw = lambda rngs, nb: sphere(rngs, nb)[0]
        measure = float(F)
        if fam == "triangle_f2_single":
            rho = lambda e0: e0[:, n0]
            obs = lambda e, e0_n: _f2_single_windows(e0_n, e, 0.5)
        else:
            rho = lambda e0: _hill_rho_window(e0, n0)
            obs = lambda e, rho_w: rho_w * _hill_obs_windows(e)

    def sample(rngs, nb):
        z = draw(rngs, nb)
        return z, None if rho is None else rho(0.5 * np.abs(z) ** 2).reshape(len(rngs), nb, 1, 1)

    def window(E, aux, j):
        vals = obs(E, aux)
        # The smallest numerator in two reductions: numpy is about 20x
        # slower reducing the trajectory and state axes in one call.
        low = np.min(vals, axis=1).min(axis=-1, keepdims=True)
        return np.concatenate([np.sum(vals, axis=1), low], axis=-1)

    return _Plan(sample, mean, rows=[slice(None)], window=window, width=F + 1, measure=measure)


# ---------------------------------------------------------------------------
# windows: batched functions of the actions e (..., F)


def _triangle_obs_windows(e):
    """Observable triangle windows of every state: e_m >= 1 with no other action above 1."""
    above = e > 1.0
    n_above = np.sum(above, axis=-1)
    return ((e >= 1.0) & ((n_above[..., None] - above) == 0)).astype(np.float64)


def _f2_single_windows(e0_n, e, cut):
    """triangle_f2_single numerators of every state m: 2 - 2 cut^2 / min(e0_n, e_m)^2.

    e0_n is the starting action of the initial state, broadcastable
    against e; the value is zero unless both actions reach cut.
    """
    passing = (e0_n >= cut) & (e >= cut)
    safe = np.where(passing, np.minimum(e0_n, e), 1.0)
    return np.where(passing, 2.0 - 2.0 * cut**2 / safe**2, 0.0)


def _hill_rho_window(e, n0):
    """Hill density window of state n0: 1 where e_n0 is the largest action."""
    return np.all(e[..., n0, None] >= e, axis=-1).astype(np.float64)


def _hill_obs_windows(e):
    """Hill observable windows of every state m, prod_{j != m} max(e_m - e_j, 0)^B(F).

    Only the state with the largest action can be nonzero, so the
    product is formed once, at m = argmax e; a tie at the maximum gives
    it a zero factor.
    """
    top = np.argmax(e, axis=-1)[..., None]
    diffs = np.take_along_axis(e, top, axis=-1) - e
    np.put_along_axis(diffs, top, 1.0, axis=-1)
    out = np.zeros_like(e)
    value = np.prod(diffs, axis=-1, keepdims=True) ** hill_exponent(e.shape[-1])
    np.put_along_axis(out, top, value, axis=-1)
    return out


def _cornered_window(e_n, F, g):
    """Cornered-simplex window [e_n >= 1] of one state's actions, normalized on the sphere at g.

    The normalization is F (F gamma / (1 + F gamma))^(F-1).
    """
    return (1.0 / (F * (F * g / (1.0 + F * g)) ** (F - 1))) * (e_n >= 1.0)


# ---------------------------------------------------------------------------
# family table and dispatch


_PLANS = {
    **dict.fromkeys(COMB_FAMILIES, _comb_plan),
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


# Plans whose frames do not depend on the density side: all of a call's
# requests are one ensemble.  Every other plan samples from its density
# side (n, m), so its ensembles are the requests sharing one.
_SHARED_FRAMES = {_comb_plan, _cx_plan}


def _same(a, b):
    """Equal values: arrays element by element, dataclasses field by field, sequences item by item."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, (tuple, list)):
        return isinstance(b, (tuple, list)) and len(a) == len(b) and all(map(_same, a, b))
    return bool(a == b)


def _check_shared(reqs):
    """Raise unless the requests agree on every field but their index pairs."""
    for f in fields(TCFRequest):
        if f.name in ("rho_indices", "obs_indices"):
            continue
        first = getattr(reqs[0], f.name)
        if not all(_same(first, getattr(req, f.name)) for req in reqs[1:]):
            raise ValueError(
                f"requests differ in {f.name}; a list of requests may differ "
                "only in rho_indices and obs_indices"
            )


def estimate_tcf(requests):
    """Estimate TCFs: the maps, one plan and block driver run per ensemble, then the reduction.

    requests is one TCFRequest, which returns one TCFResult, or a list of
    requests that agree on every field but rho_indices and obs_indices,
    which returns their results in request order.  The maps are built
    once per call, and each ensemble (the requests that draw the same
    frames) is sampled and carried once for all its requests.  Every
    result is bitwise equal to that request's own call.
    """
    single = isinstance(requests, TCFRequest)
    reqs = [requests] if single else list(requests)
    if not reqs:
        raise ValueError("estimate_tcf needs at least one request")
    req = reqs[0]
    H, F, t_grid = _prepare(req)
    _check_shared(reqs)
    every_idx = [_indices(r, F) for r in reqs]
    make_plan = _PLANS[req.method.family]
    dec = hermitian_eig(H, tol=None)
    if req.backend == "rk4":
        check_rk4_edge(dec.eigenvalues, t_grid, req.dt)
    U = _march(dec, t_grid, req.backend, req.dt)
    ensembles = {}
    for i, idx in enumerate(every_idx):
        key = () if make_plan in _SHARED_FRAMES else idx[:2]
        ensembles.setdefault(key, []).append(i)
    results = [None] * len(reqs)
    for members in ensembles.values():
        idxs = [every_idx[i] for i in members]
        plan = make_plan(req, F, idxs, U)
        out, frames, sizes = _drive(req, U, plan, idxs)
        for i, res in zip(members, _reduce(req, plan, idxs, t_grid, out, frames, sizes)):
            results[i] = res
    return results[0] if single else results


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

    The right side is the Monte Carlo integral of Tr[rho K] Tr[A K]
    Tr[H K] over the weighted spheres, drawn by _comb_density on one
    block stream; the identity requires the weight to satisfy both the
    exact-mapping condition and the cubic moment condition
    int w (1+F gamma)^3 = (1+F)(2+F)/2.  weight must be a GammaWeight,
    rho and A F x F, n_traj an integer of at least 1.
    """
    if not isinstance(weight, GammaWeight):
        raise ValueError(f"weight must be a GammaWeight, got {weight!r}")
    weight.validate()
    H = require_hermitian(H, name="H")
    F = H.shape[0]
    rho = np.asarray(rho, dtype=np.complex128)
    A = np.asarray(A, dtype=np.complex128)
    for name, M in (("rho", rho), ("A", A)):
        if M.shape != (F, F):
            raise ValueError(f"{name} must be {F} x {F} like H, got shape {M.shape}")
    _check_count("n_traj", n_traj)
    lhs = float(np.real(0.5 * np.trace(rho @ (A @ H + H @ A))))
    sides = list(zip(*np.nonzero(rho)))
    Z, Ws, S = _comb_density(F, _comb(MethodSpec.wmm(weight), F), sides)(BlockStreams(block_keys(seed, 1)), n_traj)
    # sum_nm rho_nm W_nm = F sum|w| sgn(w_c) Tr[rho K]; a wmm row's shift coordinate is its gamma
    density = sum(rho[side] * W for side, W in zip(sides, Ws))
    vals = np.real(density * kernel_trace(Z[:, None], A, S[..., 0]) * kernel_trace(Z[:, None], H, S[..., 0]))
    rhs = float(np.mean(vals))
    rhs_se = float(np.std(vals, ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else math.nan
    cubic = weight.moment(lambda g: (1.0 + F * g) ** 3)
    target = 0.5 * (1.0 + F) * (2.0 + F)
    return IntraElectronReport(lhs, rhs, rhs_se, n_traj, float(cubic), float(target), abs(cubic - target) <= 1e-6)
