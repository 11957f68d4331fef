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
ensemble is one plan: its sampler draws a block of frames (nb, r, F)
once, on one component of the phase space (a sphere, or the gdtwa
two-frame Stiefel component), together with the density-side weights
of every density side it serves, and the maps U of
dynamics.grid_march, built once per call by either backend, carry the
block to every grid time at once: a covariant observable kernel (cc and
xc), described by its frame weights and shift, as one F x F moment
matrix per block and density side carried as U M U^dagger; a window (cx
and ww) by one gemm of the frames with the map rows it reads (per
bounded chunk of grid times).  Plans are looked up by family in one
table (_PLANS).  Every density-side kernel entry comes from
kernels.kernel_entries; every window is one batched function of the
actions (..., F) in this module.

Trajectories are generated in 100 fixed blocks, which double as
jackknife resampling units for the standard errors.  Block b draws from
the stream Generator(Philox(SeedSequence(seed, spawn_key=(b,)))), which
cpsmap.streams keys for all blocks at once and serves each worker
thread from one re-keyed Philox generator.  The driver samples and
carries blocks in groups: a group is a run of consecutive blocks of
equal size with at most GROUP_ROWS rows in all, or POOL_ROWS when a
pool of workers runs them (a larger block is a group of one), drawn
block by block from the blocks' own streams and then transformed,
carried and reduced per block as one stacked array, in scratch arrays
that each worker keeps from group to group.  Every per-block sum is
bitwise what the block alone gives, whatever group it is in, and the
reduction over blocks runs in a fixed order, so results are bitwise
reproducible for a given (seed, n_traj) regardless of the worker thread
count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cps import GammaWeight, gdtwa_signature, onto_sphere, sample_sphere_batch, sphere_normals
from .kernels import gdtwa_points, inverse_kernel_coefficients, kernel_entries, kernel_trace

# The maps of dynamics.grid_march own the propagators and the rk4 steps;
# hermitian_eig, propagator_from_decomposition and _rk4_arrays are
# imported here only because perfbench/spans.py wraps these names in
# this module.
from .dynamics import _check_grid, _check_step, _rk4_arrays, grid_march  # noqa: F401
from .qcore import hermitian_eig, propagator_from_decomposition, require_hermitian  # noqa: F401
from .streams import BlockStreams, block_keys, check_seed

N_BLOCKS = 100
# Rows of consecutive equal blocks sampled and carried as one group on one
# thread; a pool's groups (and the CLI validation chunks) hold POOL_ROWS, so
# fewer calls that hold the GIL are made.
GROUP_ROWS = 1024
POOL_ROWS = 8192
# Marched frame entries a window block holds at once (8 MB of complex).
MARCH_ENTRIES = 1 << 19
# A standard error at most this times max(1, |estimate|) is rounding noise.
ZERO_VARIANCE_REL = 1e-12
# The largest miss of the exact mapping identity a cmmcv comb, or the CLI's
# cmm kernel pair, may have.
EXACT_MAPPING_TOL = 1e-8

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
    selects A = |k><l|, both 1-based.  backend is "exact" (every grid
    time's exp(-i H t) in one broadcast of the decomposition of H) or
    "rk4" (each grid segment's map as one rk4 step map of step <= dt,
    raised to the segment's step count); see dynamics.grid_march.
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
    zero_variance flags the times whose standard error is at most
    ZERO_VARIANCE_REL max(1, |estimate|): every trajectory carried the
    same value, so the SE there is rounding noise, not a spread.
    """

    t_grid: np.ndarray
    estimates: np.ndarray
    normalization: np.ndarray
    standard_errors: np.ndarray
    n_traj: int
    min_numerator: float = math.nan
    zero_variance: np.ndarray = field(init=False)

    def __post_init__(self):
        floor = ZERO_VARIANCE_REL * np.maximum(1.0, np.abs(self.estimates))
        self.zero_variance = self.standard_errors <= floor


# ---------------------------------------------------------------------------
# blocks, groups, jackknife


def _block_sizes(n_traj):
    base, extra = divmod(n_traj, N_BLOCKS)
    return np.array([base + (1 if b < extra else 0) for b in range(N_BLOCKS)])


def _groups(sizes, max_rows):
    """Runs (lo, hi) of consecutive nonempty blocks of equal size and at most max_rows rows in all.

    A block of max_rows rows or more is a group of its own.
    """
    groups = []
    for b in np.flatnonzero(sizes).tolist():
        lo = groups[-1][0] if groups else b
        if groups and sizes[lo] == sizes[b] and (b + 1 - lo) * sizes[b] <= max_rows:
            groups[-1] = (lo, b + 1)
        else:
            groups.append((b, b + 1))
    return groups


def _run_blocks(work, blocks, n_threads):
    """[work(b) for b in blocks], on a pool of n_threads workers when n_threads > 1."""
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(work, blocks))
    return [work(b) for b in blocks]


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
    check_seed(req.seed)
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
        miss = np.abs(_mapping_tensor(F, [(w, G, 0.5, G) for w, G in method.components]) - _pair_deltas(F)[1])
        worst = np.unravel_index(np.argmax(miss), miss.shape)
        if not miss[worst] <= EXACT_MAPPING_TOL:
            where = ", ".join(str(i + 1) for i in worst)
            raise ValueError(
                "cmmcv comb violates the exact mapping condition: "
                f"F sum_c w_c E_c[K_mn K_lk] misses delta_mk delta_nl by {miss[worst]:.3e} "
                f"at (m, n, l, k) = ({where}), tolerance {EXACT_MAPPING_TOL:.0e}"
            )
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


def _pair_deltas(F):
    """delta_mn delta_lk and delta_mk delta_nl as tensors indexed [m, n, l, k]."""
    I = np.eye(F)
    return np.multiply.outer(I, I), np.einsum("mk,nl->mnlk", I, I)


def _mapping_tensor(F, terms):
    """F sum_c w_c E_c[(z z^dagger/2 - A_c)_mn (b_c z z^dagger - B_c)_lk], indexed [m, n, l, k], in closed form.

    terms holds the (w_c, A_c, b_c, B_c), with A_c and B_c F x F.  Term
    c averages over the sphere of squared radius R^2 = 2(1 + Re Tr A_c),
    where E[z_a z_b*] = (R^2/F) delta_ab and
    E[z_a z_b* z_c z_d*] = R^4/(F(F+1)) (delta_ab delta_cd + delta_ad delta_cb).
    A pair of kernels is exact when this is delta_mk delta_nl: a cmmcv
    comb is the terms (w_c, Gamma_c, 1/2, Gamma_c), and the cmm kernel
    with its inverse at gamma the one term (1, gamma I, c1, c2 I).
    """
    I = np.eye(F)
    same, cross = _pair_deltas(F)
    T = np.zeros((F, F, F, F), dtype=np.complex128)
    for w, A, b, B in terms:
        R2 = 2.0 * (1.0 + np.real(np.trace(A)))
        T += w * (
            b * R2 * R2 / (2.0 * F * (F + 1)) * (same + cross)
            - R2 / (2.0 * F) * (np.multiply.outer(I, B) + 2.0 * b * np.multiply.outer(A, I))
            + np.multiply.outer(A, B)
        )
    return F * T


# ---------------------------------------------------------------------------
# the block driver


class _Plan(NamedTuple):
    """One ensemble's sampler and the data of its requests' observables.

    An ensemble is the requests of one call that draw the same frames;
    idxs lists their 0-based (n, m, k, l) and _sides(idxs) their
    distinct density sides (n, m).  sample(rngs, nb) draws a group of
    len(rngs) blocks of nb trajectories, each block from its own stream
    of rngs in block order, and returns the group's frames Z0
    (len(rngs) * nb, r, F), block after block, once for all requests.

    A kernel plan (window None) gives request (n, m, k, l) the
    observable kernel sum_f w_f z_f z_f^dagger - shift read at (l, k),
    with w_f = weights.  Its sample returns (Z0, Ws, S): one density
    weight vector W per density side in Ws, and shift coordinates S
    (broadcastable to (rows, C)).  Trajectory i's shift at time t has
    (l, k) entry sum_c S_ic shift_lk(l, k)[t, c]; shift_lk None means
    the one column delta_lk of a gamma*I shift.

    A window plan's sample returns (Z0, aux) with r = 1.  rows lists
    the sets of map rows it marches, and window(E, aux, j) turns the
    actions E (blocks, nb, n_times, len(rows[j])) of row set j into that
    set's block sums (blocks, n_times, w_j); the sets' sums stand side
    by side, width columns in all.  columns[i] is request i's column; a
    ww plan (columns None) holds the numerators of every state and,
    last, the smallest numerator.  measure is None for the block-mean
    families and the phase space measure factor of a ww plan.
    """

    sample: Callable
    weights: object = 0.5
    shift_lk: Callable = None
    rows: list = None
    window: Callable = None
    width: int = 1
    columns: list = None
    dtype: type = np.complex128
    measure: float = None


def _sides(idxs):
    """The distinct density sides (n, m) of an ensemble's requests, in request order."""
    return list(dict.fromkeys(idx[:2] for idx in idxs))


def _draw_group(rngs, nb, draw=None, F=None):
    """Draw a group block by block, each block from its own stream in block order.

    draw(rng, nb) returns a tuple of nb-row arrays, which come back
    concatenated item by item over the group.  With F given, each block
    then draws its sphere normals into the rows of one scratch array,
    which comes back last (see _onto_sphere).
    """
    w = None if F is None else rngs.scratch("frames", (len(rngs) * nb, F))
    parts = []
    for i, rng in enumerate(rngs):
        if draw is not None:
            parts.append(draw(rng, nb))
        if w is not None:
            sphere_normals(rng, w[i * nb:(i + 1) * nb], rngs.scratch("normals", (nb, F), np.float64))
    items = [np.concatenate(p) for p in zip(*parts)]
    return items if w is None else items + [w]


def _onto_sphere(rngs, w, F, gamma):
    """The group's normals w scaled onto the sphere at gamma in place, with a scratch |w|^2."""
    return onto_sphere(w, F, gamma, rngs.scratch("temp", w.shape))


def _kernel_group(U, plan, idxs):
    """Block sums of covariant observable kernels at every grid time, one column per request.

    Every frame obeys z(t) = U_t z(0), so the kernel is carried as
    K(X_t) = U_t K(X_0) U_t^dagger, shift aside.  The block sum
    sum_i W_i K_lk(X_i(t)) is therefore [U_t M U_t^dagger]_lk minus the
    weighted shifts, with one F x F moment matrix
    M = sum_i W_i sum_f w_f z_if z_if^dagger per block and density side,
    formed for a group of blocks as one stacked matmul; every request
    reads its own (l, k) entry off its side's M.
    """
    F = U.shape[-1]
    sides = _sides(idxs)
    reads = []
    for n0, m0, k0, l0 in idxs:
        if plan.shift_lk is None:
            shift_lk = np.full((len(U), 1), float(l0 == k0))
        else:
            shift_lk = plan.shift_lk(l0, k0)
        reads.append((sides.index((n0, m0)), U[:, l0], U[:, k0].conj(), shift_lk))

    def group(rngs, nb):
        Z0, Ws, S = plan.sample(rngs, nb)
        nblk = len(rngs)
        A = Z0.reshape(nblk, -1, F)
        moments = []
        for W in Ws:
            v = np.broadcast_to(W[:, None] * plan.weights, Z0.shape[:2]).reshape(nblk, -1, 1)
            # v * conj(A) in place, in a scratch array (see BlockStreams.scratch)
            vAc = np.conjugate(A, out=rngs.scratch("temp", A.shape))
            np.multiply(v, vAc, out=vAc)
            shifts = np.sum((W[:, None] * S).reshape(nblk, nb, -1), axis=1)
            moments.append((A.transpose(0, 2, 1) @ vAc, shifts[..., None]))
        return np.stack(
            [
                np.einsum("ta,xab,tb->xt", Ul, moments[d][0], Ukc) - (shift_lk @ moments[d][1])[..., 0]
                for d, Ul, Ukc, shift_lk in reads
            ],
            axis=-1,
        )

    return group


def _window_group(U, plan):
    """Block sums of a window observable: a group's frames marched by one stacked matmul per row set and chunk of grid times.

    The stacked matmul makes each block's own BLAS call: a block of one
    row is a gemv, which rounds differently from the rows of a gemm.  A
    chunk holds at most MARCH_ENTRIES marched entries, so a group's
    memory does not grow with the number of grid times; the usual grid
    is one chunk.  Each row set has its own march, as in a call that
    reads only that set: one wider gemm rounds a column differently,
    and every request of a list must equal its own call bitwise.
    """
    n_times, F = len(U), U.shape[-1]
    marches = [
        np.ascontiguousarray(U[:, rows, :].transpose(2, 0, 1).reshape(F, -1)) for rows in plan.rows
    ]

    def group(rngs, nb):
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
        return np.concatenate(sums, axis=2)

    return group


def _drive(req, U, plan, idxs):
    """Sample and evaluate every block of one ensemble at every grid time; returns the block sums and sizes.

    The maps U of grid_march carry each group of blocks to all grid
    times at once: a kernel plan through its moment matrices, a window
    plan through a march of its frames by the rows it reads.  Each
    block is drawn once for every request of the ensemble, from its own
    Philox stream, and the groups write only their own rows of sums,
    bitwise the same in any group, so the result does not depend on the
    thread count.
    """
    sizes = _block_sizes(req.n_traj)
    if plan.window is None:
        group, width = _kernel_group(U, plan, idxs), len(idxs)
    else:
        group, width = _window_group(U, plan), plan.width
    sums = np.zeros((N_BLOCKS, len(U), width), dtype=plan.dtype)
    streams = BlockStreams(block_keys(req.seed, N_BLOCKS))

    def work(span):
        lo, hi = span
        sums[lo:hi] = group(streams[lo:hi], int(sizes[lo]))

    max_rows = GROUP_ROWS if req.n_threads == 1 else POOL_ROWS
    _run_blocks(work, _groups(sizes, max_rows), req.n_threads)
    return sums, sizes


def _reduce(req, plan, idxs, t_grid, out, sizes):
    """Each request's TCFResult from its ensemble's block sums.

    The cc/cx/xc families reduce to the block mean of the request's
    column; a ww plan (one with a measure) to the ratio of the observed
    state's numerator to the summed denominator over the same
    trajectories.
    """
    n = req.n_traj
    if plan.measure is None:
        results = []
        for c in range(len(idxs)) if plan.columns is None else plan.columns:
            col = np.ascontiguousarray(out[:, :, c])
            total = np.sum(col, axis=0)
            se = _jackknife(col, sizes[:, None], total, n, sizes)
            results.append(TCFResult(t_grid, total / n, np.ones(t_grid.size), se, n))
        return results
    F = out.shape[2] - 1
    sums = np.ascontiguousarray(out[:, :, :F])
    num_total = np.sum(sums, axis=0)
    den_total = np.sum(num_total, axis=1)
    den_blocks = np.sum(sums, axis=2)
    normalization = plan.measure * den_total / n
    min_num = float(np.nanmin(out[sizes > 0, :, F]))
    results = []
    for k0 in (idx[2] for idx in idxs):
        with np.errstate(divide="ignore", invalid="ignore"):
            estimates = (num_total[:, k0] / den_total).astype(np.complex128)
        se = _jackknife(sums[:, :, k0], den_blocks, num_total[:, k0], den_total, sizes)
        results.append(TCFResult(t_grid, estimates, normalization.copy(), se, n, min_num))
    return results


# ---------------------------------------------------------------------------
# the single-sphere density side


def _sphere_density(F, g, sides):
    """Sampler of the sphere at g with the density weights F K_mn(z) of every side (n, m)."""

    def sample(rngs, nb):
        (w,) = _draw_group(rngs, nb, F=F)
        Z = _onto_sphere(rngs, w, F, g)[:, None, :]
        return Z, [F * kernel_entries(Z, m0, n0, g) for n0, m0 in sides]

    return sample


# ---------------------------------------------------------------------------
# cc families


def _cmm_plan(req, F, idxs, U):
    g = req.method.gamma
    c1, c2 = inverse_kernel_coefficients(F, g)
    density = _sphere_density(F, g, _sides(idxs))
    return _Plan(lambda rngs, nb: (*density(rngs, nb), c2), weights=c1)


def _wmm_plan(req, F, idxs, U):
    weight = req.method.weight
    tot = weight.abs_total()
    sides = _sides(idxs)

    def sample(rngs, nb):
        gam, sgn, w = _draw_group(rngs, nb, weight.sample_batch, F)
        Z = _onto_sphere(rngs, w, F, gam)[:, None, :]
        Ws = [kernel_entries(Z, m0, n0, gam) * (F * tot * sgn) for n0, m0 in sides]
        return Z, Ws, gam[:, None]

    return _Plan(sample)


def _cmmcv_plan(req, F, idxs, U):
    """cmmcv: self-dual Gamma-comb kernels, K = (1/2) z z^dagger - Gamma_c.

    Each trajectory carries one frame z on the sphere of its component c
    (squared radius 2(1 + Tr Gamma_c)), drawn with probability
    |w_c| / sum|w|.  Both backends march z by the maps U_t, and
    U K U^dagger = (1/2)(U z)(U z)^dagger - U Gamma_c U^dagger.  The last
    term is shared by every trajectory of component c, so its (l, k)
    entry is read off the maps once per request, and a trajectory's
    shift coordinates pick its component.
    """
    comps = req.method.components
    sides = _sides(idxs)
    weights = np.array([w for w, _ in comps])
    tot = float(np.sum(np.abs(weights)))
    probs = np.abs(weights) / tot
    comp_signs = np.sign(weights)
    comp_signs[comp_signs == 0] = 1.0
    gstack = np.stack([G for _, G in comps])
    shells = np.array([np.real(np.trace(G)) for G in gstack]) / F
    pick = np.eye(len(comps))

    def sample(rngs, nb):
        ci, w = _draw_group(rngs, nb, lambda rng, nb: (rng.choice(len(comps), size=nb, p=probs),), F)
        Z = _onto_sphere(rngs, w, F, shells[ci])[:, None, :]
        Ws = [
            (F * tot * comp_signs[ci]) * kernel_entries(Z, m0, n0, Gamma=gstack[ci, m0, n0])
            for n0, m0 in sides
        ]
        return Z, Ws, pick[ci]

    def gamma_lk(l0, k0):
        return np.einsum("ta,cab,tb->tc", U[:, l0], gstack, U[:, k0].conj())

    return _Plan(sample, shift_lk=gamma_lk)


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
    return _Plan(
        _sphere_density(F, g, sides), rows=[[k0] for k0 in ks], window=window,
        width=len(ks) * len(sides), columns=columns,
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
        if third:
            gobs = 1.0 / 3.0
        else:
            gobs = ((np.sum(0.5 * np.abs(z) ** 2, axis=1) - 1.0) / F)[:, None]
        return z[:, None, :], [W], gobs

    return _Plan(sample)


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
        Z = (np.sqrt(2.0 * e) * np.exp(1j * theta))[:, None, :]
        if n0 == m0:
            return Z, [np.ones(len(Z), dtype=np.complex128)], g
        W = kernel_entries(Z, m0, n0, weights=2.0) / (1.0 + 2.0 * g) ** 2
        return Z, [W], g

    return _Plan(sample)


def _discrete_plan(req, F, idxs, U):
    """dtwa and gdtwa: uniform draws from the discrete point sets."""
    n0, m0 = idxs[0][:2]
    sig = gdtwa_signature(F)
    set_n = gdtwa_points(F, n0 + 1)
    frames_n = set_n.frames
    npts = frames_n.shape[0]
    if n0 == m0:

        def sample(rngs, nb):
            (pts,) = _draw_group(rngs, nb, lambda rng, nb: (rng.integers(npts, size=nb),))
            return frames_n[pts], [np.ones(len(pts), dtype=np.complex128)], sig.gamma

    else:
        set_m = gdtwa_points(F, m0 + 1)
        frames_m = set_m.frames
        kv_n = set_n.kernel_values[:, m0, n0]
        kv_m = set_m.kernel_values[:, m0, n0]

        def draw(rng, nb):
            return rng.random(nb), rng.integers(npts, size=nb)

        def sample(rngs, nb):
            u_pick, pts = _draw_group(rngs, nb, draw)
            pick = u_pick < 0.5
            Z = np.where(pick[:, None, None], frames_n[pts], frames_m[pts])
            return Z, [2.0 * np.where(pick, kv_n[pts], kv_m[pts])], sig.gamma

    signs = np.asarray(sig.signs, dtype=np.float64)
    return _Plan(sample, weights=0.5 * signs)


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
    else:
        g = 0.0 if fam == "triangle_f2_single" else req.method.gamma
        draw = lambda rngs, nb: _onto_sphere(rngs, _draw_group(rngs, nb, F=F)[0], F, g)
        measure = float(F)
        if fam == "triangle_f2_single":
            rho = lambda e0: e0[:, n0]
            obs = lambda e, e0_n: _f2_single_windows(e0_n, e, 0.5)
        else:
            rho = lambda e0: _hill_rho_window(e0, n0)
            obs = lambda e, rho_w: rho_w * _hill_obs_windows(e)

    def sample(rngs, nb):
        z = draw(rngs, nb)
        if rho is None:
            return z[:, None, :], None
        return z[:, None, :], rho(0.5 * np.abs(z) ** 2).reshape(len(rngs), nb, 1, 1)

    def window(E, aux, j):
        vals = obs(E, aux)
        # The smallest numerator in two reductions: numpy is about 20x
        # slower reducing the trajectory and state axes in one call.
        low = np.min(vals, axis=1).min(axis=-1, keepdims=True)
        return np.concatenate([np.sum(vals, axis=1), low], axis=-1)

    return _Plan(
        sample, rows=[slice(None)], window=window, width=F + 1, dtype=np.float64, measure=measure
    )


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


# Plans whose frames do not depend on the density side: all of a call's
# requests are one ensemble.  Every other plan samples from its density
# side (n, m), so its ensembles are the requests sharing one.
_SHARED_FRAMES = {_cmm_plan, _wmm_plan, _cmmcv_plan, _cx_plan}


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
    for req in reqs:
        if req.method.family not in _PLANS:
            raise ValueError(f"unknown method family {req.method.family!r}")
    prepared = [_prepare(req) for req in reqs]
    _check_shared(reqs)
    req = reqs[0]
    make_plan = _PLANS[req.method.family]
    H, F, t_grid, _ = prepared[0]
    U = grid_march(H, t_grid, req.backend, req.dt)
    ensembles = {}
    for i, (_, _, _, idx) in enumerate(prepared):
        key = () if make_plan in _SHARED_FRAMES else idx[:2]
        ensembles.setdefault(key, []).append(i)
    results = [None] * len(reqs)
    for members in ensembles.values():
        idxs = [prepared[i][3] for i in members]
        plan = make_plan(req, F, idxs, U)
        out, sizes = _drive(req, U, plan, idxs)
        for i, res in zip(members, _reduce(req, plan, idxs, t_grid, out, sizes)):
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

    The right side is the Monte Carlo integral of
    Tr[rho K] Tr[A K] Tr[H K] over the weighted spheres; the identity
    requires the weight to satisfy both the exact-mapping condition and
    the cubic moment condition int w (1+F gamma)^3 = (1+F)(2+F)/2.
    """
    weight.validate()
    H = require_hermitian(H)
    F = H.shape[0]
    rho = np.asarray(rho, dtype=np.complex128)
    A = np.asarray(A, dtype=np.complex128)
    lhs = float(np.real(0.5 * np.trace(rho @ (A @ H + H @ A))))
    tot = weight.abs_total()
    rng = BlockStreams(block_keys(seed, 1))[0]
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
