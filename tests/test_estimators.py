"""Monte Carlo TCF estimators across all method families."""

import dataclasses
import itertools
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsmap import dynamics, estimators, kernels, qcore, streams
from cpsmap.cps import GammaWeight, gamma_wigner, gdtwa_signature, sample_sphere_batch
from cpsmap.dynamics import grid_march
from cpsmap.estimators import (
    _PLANS,
    GROUP_ENTRIES,
    N_BLOCKS,
    POOL_ROWS,
    MethodSpec,
    TCFRequest,
    _block_sizes,
    _comb,
    _comb_density,
    _cornered_window,
    _groups,
    _hill_obs_windows,
    _hill_rho_window,
    _indices,
    _prepare,
    _triangle_obs_windows,
    estimate_tcf,
    hill_exponent,
    intra_electron_check,
)
from cpsmap.kernels import gdtwa_points, inverse_kernel_coefficients, kernel_entries
from cpsmap.models import ModelSpec, build_hamiltonian
from cpsmap.qcore import HERMITIAN_TOL, exact_tcf, hermitian_eig
from cpsmap.streams import BlockStreams, block_keys

RABI = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_h(F, seed=42):
    return build_hamiltonian(ModelSpec.random(F, seed=seed))


def two_delta_comb(F=2):
    """Weight solving both the quadratic and the cubic moment conditions.

    One node at gamma = 0 (quadratic term vanishes there) plus a second
    node fixed by the pair of linear equations in (w1, w2).
    """
    a2 = (3.0 + math.sqrt(33.0)) / 4.0  # 1 + F*gamma2 for F = 2
    g2 = (a2 - 1.0) / 2.0
    w2 = 2.0 / (a2**2 - 1.0)
    return GammaWeight.delta_comb([(0.0, 1.0 - w2), (g2, w2)])


def exact_cmmcv_comb(F):
    """A signed three-sphere cmmcv comb with non-scalar Gammas that is exact.

    Gamma_c = g_c I + h_c A with A traceless.  The weights (1.5, -0.6,
    0.1) sum to 1 and, with h = (1, 2, -3), give sum_c w_c h_c = 0 and
    sum_c w_c h_c^2 = 0; the g_c solve sum_c w_c (F g_c^2 + 2 g_c) = 1.
    """
    A = np.diag(np.linspace(0.1, -0.1, F))
    g2 = (math.sqrt(1.0 + 5.0 * F / 6.0) - 1.0) / F
    return [
        (1.5, gamma_wigner(F) * np.eye(F) + A),
        (-0.6, g2 * np.eye(F) + 2.0 * A),
        (0.1, -3.0 * A),
    ]


def request(H, method, nmkl=(1, 1, 1, 1), n_traj=40000, seed=5, t_grid=None, **kw):
    if t_grid is None:
        t_grid = np.linspace(0.0, 3.0, 4)
    n, m, k, l = nmkl
    return TCFRequest(H, (n, m), (k, l), t_grid, n_traj, seed, method, **kw)


def exact_series(H, nmkl, t_grid):
    F = H.shape[0]
    n, m, k, l = [i - 1 for i in nmkl]
    rho = np.zeros((F, F), dtype=complex)
    rho[n, m] = 1.0
    A = np.zeros((F, F), dtype=complex)
    A[k, l] = 1.0
    return exact_tcf(rho, A, H, t_grid)


def assert_matches_exact(res, ref, slack=1e-3):
    err = np.abs(res.estimates - ref)
    bound = 5.0 * res.standard_errors + slack
    assert np.all(err <= bound), (err, bound)


def test_hill_exponent_values():
    assert hill_exponent(2) == pytest.approx(1.0)
    assert hill_exponent(3) == pytest.approx(0.75)


# -- constructor / request validation --------------------------------


def test_wmm_needs_weight_object():
    with pytest.raises(ValueError, match="GammaWeight"):
        MethodSpec.wmm(0.5)


def test_cornered_needs_positive_gamma():
    with pytest.raises(ValueError, match="gamma > 0"):
        MethodSpec.cornered_simplex(0.0)


def test_lambda_needs_positive_gamma():
    with pytest.raises(ValueError, match="gamma > 0"):
        MethodSpec.lambda_point(-0.1)


def test_cmmcv_rejects_non_hermitian_component():
    with pytest.raises(ValueError):
        MethodSpec.cmmcv([(1.0, [[0.0, 1.0], [0.0, 0.0]])])


def test_triangle_sqc_obs_gamma_choices():
    MethodSpec.triangle_sqc("third")
    with pytest.raises(ValueError, match="obs_gamma"):
        MethodSpec.triangle_sqc("half")


def test_index_validation():
    with pytest.raises(ValueError, match="outside 1..2"):
        estimate_tcf(request(RABI, MethodSpec.cmm(0.0), nmkl=(0, 1, 1, 1)))
    with pytest.raises(ValueError, match="outside 1..2"):
        estimate_tcf(request(RABI, MethodSpec.cmm(0.0), nmkl=(1, 1, 3, 1)))


def test_t_grid_validation():
    with pytest.raises(ValueError, match="increasing"):
        estimate_tcf(request(RABI, MethodSpec.cmm(0.0), t_grid=[0.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="increasing"):
        estimate_tcf(request(RABI, MethodSpec.cmm(0.0), t_grid=[-1.0, 0.0]))


def test_backend_validation():
    with pytest.raises(ValueError, match="backend"):
        estimate_tcf(request(RABI, MethodSpec.cmm(0.0), backend="verlet"))
    with pytest.raises(ValueError, match="dt"):
        estimate_tcf(request(RABI, MethodSpec.cmm(0.0), backend="rk4", dt=0.0))


def test_n_traj_validation():
    with pytest.raises(ValueError, match="n_traj"):
        estimate_tcf(request(RABI, MethodSpec.cmm(0.0), n_traj=0))


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, True, "3", None])
def test_bad_seed_is_rejected_by_field(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        estimate_tcf(request(RABI, MethodSpec.cmm(0.0), seed=seed))


def test_dtwa_needs_two_levels():
    with pytest.raises(ValueError, match="gdtwa"):
        estimate_tcf(request(random_h(3), MethodSpec.dtwa()))


def test_gdtwa_beyond_62_sign_bits_is_rejected():
    # a point's 2(F-1) signs are the bits of one 64-bit draw
    with pytest.raises(ValueError, match=r"gdtwa at F = 33 needs 2\(F-1\) = 64 sign bits.*<= 62"):
        estimate_tcf(request(random_h(33), MethodSpec.gdtwa(), nmkl=(1, 2, 2, 1), n_traj=10))


def test_hill_ww_needs_two_levels():
    with pytest.raises(ValueError, match="hill_ww needs F >= 2"):
        estimate_tcf(request(np.array([[0.5]]), MethodSpec.hill_ww()))


def test_f2_transform_needs_two_levels():
    with pytest.raises(ValueError, match="F = 2"):
        estimate_tcf(request(random_h(3), MethodSpec.triangle_f2_single()))


def test_cornered_rejects_offdiagonal_observable():
    with pytest.raises(ValueError, match="population"):
        estimate_tcf(request(RABI, MethodSpec.cornered_simplex(1.0), nmkl=(1, 1, 1, 2)))


def test_ww_rejects_offdiagonal_indices():
    with pytest.raises(ValueError, match="population-population"):
        estimate_tcf(request(RABI, MethodSpec.triangle_ww(), nmkl=(1, 2, 1, 1)))


def test_wmm_rejects_weight_violating_mapping_condition():
    bad = GammaWeight.delta_comb([(0.25, 1.0)])  # normalized but wrong moment
    with pytest.raises(ValueError, match="exact mapping condition"):
        estimate_tcf(request(RABI, MethodSpec.wmm(bad)))


def test_unknown_family_dispatch():
    with pytest.raises(ValueError, match="unknown method family"):
        estimate_tcf(request(RABI, MethodSpec("bogus")))


def test_cmm_gamma_domain():
    with pytest.raises(ValueError, match="exceed"):
        estimate_tcf(request(RABI, MethodSpec.cmm(-0.5)))


@pytest.mark.parametrize(
    "field, make",
    [
        ("hamiltonian", lambda: request(np.array([[0.0, np.nan], [np.nan, 0.0]]), MethodSpec.cmm(0.0))),
        ("t_grid", lambda: request(RABI, MethodSpec.cmm(0.0), t_grid=[0.0, np.nan, 1.0])),
        ("t_grid", lambda: request(RABI, MethodSpec.cmm(0.0), t_grid=[0.0, np.inf])),
        ("dt", lambda: request(RABI, MethodSpec.cmm(0.0), backend="rk4", dt=np.nan)),
        ("gamma", lambda: request(RABI, MethodSpec.cmm(np.nan))),
        ("n_threads", lambda: request(RABI, MethodSpec.cmm(0.0), n_threads=0)),
        ("n_threads", lambda: request(RABI, MethodSpec.cmm(0.0), n_threads=-4)),
        # once accepted: n_traj = 1.5 drew two rows and divided their sums by 1.5
        ("n_traj", lambda: request(RABI, MethodSpec.cmm(0.0), n_traj=1.5)),
        ("n_traj", lambda: request(RABI, MethodSpec.cmm(0.0), n_traj=True)),
        ("n_threads", lambda: request(RABI, MethodSpec.cmm(0.0), n_threads=1.5)),
        ("n_threads", lambda: request(RABI, MethodSpec.cmm(0.0), n_threads=True)),
        # once failed with messages that did not name the field
        ("n_traj", lambda: request(RABI, MethodSpec.cmm(0.0), n_traj="100")),
        ("t_grid", lambda: request(RABI, MethodSpec.cmm(0.0), t_grid=[[0.0, 1.0]])),
        ("t_grid", lambda: request(RABI, MethodSpec.cmm(0.0), t_grid=1.0)),
        ("t_grid", lambda: request(RABI, MethodSpec.cmm(0.0), t_grid="abc")),
        ("t_grid", lambda: request(RABI, MethodSpec.cmm(0.0), t_grid=[[0.0, 1.0], [2.0]])),
        ("rho_indices", lambda: dataclasses.replace(request(RABI, MethodSpec.cmm(0.0)), rho_indices=(1, 1, 1))),
        ("rho_indices", lambda: request(RABI, MethodSpec.cmm(0.0), nmkl=(True, 1, 1, 1))),
        ("obs_indices", lambda: request(RABI, MethodSpec.cmm(0.0), nmkl=(1, 1, 1, 1.0))),
        ("obs_indices", lambda: dataclasses.replace(request(RABI, MethodSpec.cmm(0.0)), obs_indices=2)),
    ],
    ids=[
        "hamiltonian-nan", "t_grid-nan", "t_grid-inf", "dt-nan", "gamma-nan",
        "n_threads-zero", "n_threads-negative",
        "n_traj-fraction", "n_traj-bool", "n_threads-fraction", "n_threads-bool",
        "n_traj-str", "t_grid-2d", "t_grid-scalar", "t_grid-str", "t_grid-ragged",
        "rho_indices-triple", "rho_indices-bool", "obs_indices-float", "obs_indices-scalar",
    ],
)
def test_non_finite_input_is_rejected_by_field(field, make):
    with pytest.raises(ValueError, match=field):
        estimate_tcf(make())


# once NaN at every point with overflow warnings (1e308), or finite with a
# failed MomentCheck (lambda_point 1e160), at F = 3 with 200 trajectories
@pytest.mark.parametrize(
    "method, nmkl",
    [
        (MethodSpec.lambda_point(1e308), (1, 2, 2, 1)),
        (MethodSpec.cornered_simplex(1e308), (1, 1, 2, 2)),
        (MethodSpec.hill_ww(1e308), (1, 1, 2, 2)),
        (MethodSpec.lambda_point(1e160), (1, 1, 2, 2)),
        # once NaN at every point: the window normalization overflowed at the tiniest gamma
        (MethodSpec.cornered_simplex(5e-324), (1, 1, 2, 2)),
    ],
    ids=["lambda_point-1e308", "cornered_simplex-1e308", "hill_ww-1e308", "lambda_point-1e160", "cornered_simplex-5e-324"],
)
def test_overflowing_gamma_is_rejected_by_name(method, nmkl):
    with pytest.raises(ValueError, match="gamma"):
        estimate_tcf(request(random_h(3), method, nmkl=nmkl, n_traj=200))


def test_gamma_just_below_its_overflow_bound_gives_finite_estimates():
    for F, family, nmkl in ((3, "lambda_point", (1, 2, 2, 1)), (3, "cornered_simplex", (1, 1, 2, 2)), (8, "hill_ww", (1, 1, 2, 2))):
        power = max(2, F - 1) if family == "hill_ww" else 2
        limit = (np.finfo(np.float64).max ** (1.0 / power) - 1.0) / F
        with np.errstate(over="raise", invalid="raise"):
            res = estimate_tcf(request(random_h(F), getattr(MethodSpec, family)(0.99 * limit), nmkl=nmkl, n_traj=200))
        assert np.all(np.isfinite(res.estimates)) and np.all(np.isfinite(res.standard_errors)), family
        with pytest.raises(ValueError, match="gamma"):
            estimate_tcf(request(random_h(F), getattr(MethodSpec, family)(1.01 * limit), nmkl=nmkl, n_traj=200))


@pytest.mark.parametrize("t_last", [10.0, 1e300])
def test_hamiltonian_whose_phases_overflow_is_rejected_by_name(t_last):
    # every phase lambda t is at most F max|H_ij| t, and the exact reference's gaps twice that:
    # at F = 2 the bound on max|H_ij| is max / (4 t)
    limit = np.finfo(np.float64).max / (4.0 * t_last)
    t_grid = np.linspace(0.0, t_last, 3)
    with np.errstate(all="raise"):
        res = estimate_tcf(request(0.99 * limit * RABI, MethodSpec.cmm(0.0), t_grid=t_grid, n_traj=200))
    assert np.all(np.isfinite(res.estimates)) and np.all(np.isfinite(res.standard_errors))
    with pytest.raises(ValueError, match=r"^hamiltonian has max\|H_ij\| = .* must be below "):
        estimate_tcf(request(1.01 * limit * RABI, MethodSpec.cmm(0.0), t_grid=t_grid, n_traj=200))


def test_rk4_past_its_stability_edge_is_rejected_by_name():
    # F = 3, scale 1000, dt 1e-2: once 0.99, then 1e112, then NaN, with no error
    H = random_h(3, seed=0) * 1000.0
    req = request(H, MethodSpec.cmm(gamma_wigner(3)), t_grid=np.linspace(0.0, 10.0, 5), n_traj=2000,
                  backend="rk4", dt=1e-2)
    with pytest.raises(ValueError, match=r"^dt = 0.01 is past rk4's stability edge: max\|lambda\| h = .* exceeds 2 sqrt\(2\)"):
        estimate_tcf(req)
    with np.errstate(over="ignore", invalid="ignore"):  # grid_march marches past the edge
        assert not np.all(np.isfinite(grid_march(H, req.t_grid, "rk4", req.dt)))
    # the bound reads the steps h = span / ceil(span / dt) that the march takes, not dt:
    # lambda = 3 with dt = 1 steps 2.5 in three steps of 5/6, and 3 in three steps of 1
    H = np.diag([3.0, -1.0])
    estimate_tcf(request(H, MethodSpec.cmm(0.0), t_grid=[0.0, 2.5], n_traj=200, backend="rk4", dt=1.0))
    with pytest.raises(ValueError, match=r"^dt = 1.0 is past rk4's stability edge: max\|lambda\| h = 3 exceeds"):
        estimate_tcf(request(H, MethodSpec.cmm(0.0), t_grid=[0.0, 3.0], n_traj=200, backend="rk4", dt=1.0))


@pytest.mark.parametrize("backend", ["exact", "rk4"])
def test_estimate_tcf_decomposes_the_hamiltonian_once(backend, monkeypatch):
    # one hermitian_eig serves the maps and the rk4 stability check of every ensemble of the call
    calls = []

    def counted(H, tol=HERMITIAN_TOL):
        calls.append(1)
        return hermitian_eig(H, tol)

    for module in (estimators, dynamics, qcore, kernels):
        monkeypatch.setattr(module, "hermitian_eig", counted)
    H = random_h(3, seed=2)
    for method, pairs in ((MethodSpec.cmm(0.2), [(1, 2, 2, 1)]), (MethodSpec.gdtwa(), [(1, 1, 2, 2), (2, 1, 1, 2)])):
        calls.clear()
        estimate_tcf([request(H, method, nmkl=nmkl, n_traj=300, backend=backend, dt=0.05) for nmkl in pairs])
        assert len(calls) == 1, method.family


def _not_an_integer_from(low):
    return st.one_of(
        st.integers(max_value=low - 1), st.booleans(), st.floats(), st.text(max_size=2), st.none(),
        st.integers(1, 9).map(float), st.integers(1, 9).map(str),
    )


def _bad_pair(F):
    index, outside = st.integers(-3, F + 3), st.integers(-3, F + 3).filter(lambda i: not 1 <= i <= F)
    return st.one_of(
        st.tuples(outside, index),
        st.tuples(index, outside),
        st.lists(index, max_size=4).filter(lambda p: len(p) != 2).map(tuple),
        st.tuples(st.one_of(st.booleans(), st.floats(), st.text(max_size=1), st.none()), st.integers(1, F)),
        st.one_of(index, st.none(), st.text(max_size=2)),
    )


BAD_REQUEST_FIELDS = {
    "n_traj": _not_an_integer_from(1),
    "n_threads": _not_an_integer_from(1),
    "seed": _not_an_integer_from(0),
    "t_grid": st.one_of(
        st.floats(0.0, 5.0),
        st.integers(2, 3).flatmap(lambda d: st.lists(st.floats(0.0, 5.0), min_size=2 ** d, max_size=2 ** d).map(
            lambda v: np.reshape(v, (2,) * d))),
    ),
    "rho_indices": _bad_pair(2),
    "obs_indices": _bad_pair(2),
    "backend": st.one_of(st.text(max_size=6), st.integers(), st.none()).filter(lambda b: b not in ("exact", "rk4")),
    "dt": st.one_of(
        st.floats().filter(lambda x: not 0.0 < x < math.inf), st.booleans(), st.text(max_size=3), st.none(),
        st.integers(max_value=0),
    ),
}


@settings(max_examples=12, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("field", sorted(BAD_REQUEST_FIELDS))
def test_bad_request_field_is_rejected_by_name(field, data):
    value = data.draw(BAD_REQUEST_FIELDS[field], label=field)
    req = dataclasses.replace(request(RABI, MethodSpec.cmm(0.0), nmkl=(1, 2, 2, 1), n_traj=10), **{field: value})
    with pytest.raises(ValueError, match=field):
        estimate_tcf(req)


# -- t = 0 identity and frozen-nuclei exactness (light versions) -----


def test_t0_kronecker_identity_subset():
    # estimate(0) = delta_mk delta_nl for representative families
    H = random_h(2, seed=3)
    t_grid = np.array([0.0, 1.0])
    methods = [
        MethodSpec.cmm(gamma_wigner(2)),
        MethodSpec.cornered_simplex(1.0),
        MethodSpec.triangle_sqc(),
        MethodSpec.ehrenfest(),
        MethodSpec.dtwa(),
    ]
    for method in methods:
        res = estimate_tcf(request(H, method, nmkl=(1, 1, 1, 1), t_grid=t_grid, n_traj=60000))
        err = abs(res.estimates[0] - 1.0)
        assert err <= 5.0 * res.standard_errors[0] + 1e-3, (method.family, err)


def test_t0_offdiagonal_pairs():
    # rho = |1><2| pairs with A = |2><1| and annihilates A = |1><2|
    H = random_h(2, seed=3)
    t_grid = np.array([0.0])
    for method in [MethodSpec.cmm(0.0), MethodSpec.ehrenfest(), MethodSpec.gdtwa()]:
        hit = estimate_tcf(request(H, method, nmkl=(1, 2, 2, 1), t_grid=t_grid, n_traj=60000))
        miss = estimate_tcf(request(H, method, nmkl=(1, 2, 1, 2), t_grid=t_grid, n_traj=60000))
        assert abs(hit.estimates[0] - 1.0) <= 5.0 * hit.standard_errors[0] + 1e-3
        assert abs(miss.estimates[0]) <= 5.0 * miss.standard_errors[0] + 1e-3


def test_cmm_tracks_exact_dynamics():
    H = random_h(2, seed=9)
    t_grid = np.linspace(0.0, 5.0, 6)
    nmkl = (1, 1, 2, 2)
    res = estimate_tcf(request(H, MethodSpec.cmm(1.0), nmkl=nmkl, t_grid=t_grid, n_traj=200000))
    assert_matches_exact(res, exact_series(H, nmkl, t_grid))


def test_gdtwa_tracks_exact_dynamics_three_levels():
    H = random_h(3, seed=9)
    t_grid = np.linspace(0.0, 5.0, 6)
    nmkl = (1, 1, 2, 2)
    res = estimate_tcf(request(H, MethodSpec.gdtwa(), nmkl=nmkl, t_grid=t_grid, n_traj=200000))
    assert_matches_exact(res, exact_series(H, nmkl, t_grid))


@pytest.mark.parametrize("F", [16, 32])
def test_gdtwa_runs_beyond_the_point_table(F):
    # 4^(F-1) points per state: the moments come from the drawn signs, so
    # memory holds the group's rows (n_traj * F) and each block's F x F moment
    tracemalloc = pytest.importorskip("tracemalloc")
    H = random_h(F, seed=3)
    t_grid = np.linspace(0.0, 1.0, 4)
    n_traj = 2000
    for nmkl in ((1, 2, 2, 1), (2, 2, 1, 1)):
        req = request(H, MethodSpec.gdtwa(), nmkl=nmkl, t_grid=t_grid, n_traj=n_traj, seed=11)
        tracemalloc.start()
        try:
            res = estimate_tcf(req)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.moment_check.passed, (nmkl, res.moment_check)
        live = ~res.zero_variance
        assert live[1:].all()
        assert_matches_exact(
            dataclasses.replace(res, estimates=res.estimates[live], standard_errors=res.standard_errors[live]),
            exact_series(H, nmkl, t_grid)[live],
        )
        assert peak <= 128 * (n_traj * F + N_BLOCKS * F * F), (nmkl, peak)


def test_hill_tracks_exact_rabi():
    t_grid = np.linspace(0.0, 5.0, 6)
    res = estimate_tcf(
        request(RABI, MethodSpec.hill_ww(0.0), nmkl=(1, 1, 2, 2), t_grid=t_grid, n_traj=200000)
    )
    ref = 0.5 * (1.0 - np.cos(2.0 * t_grid))  # sin^2(t) transfer probability
    assert_matches_exact(res, ref)


def test_zero_hamiltonian_freezes_estimates():
    H = np.zeros((2, 2))
    t_grid = np.linspace(0.0, 4.0, 5)
    res = estimate_tcf(request(H, MethodSpec.cmm(0.5), t_grid=t_grid, n_traj=20000))
    assert np.max(np.abs(res.estimates - res.estimates[0])) < 1e-12


# -- backend agreement and determinism -------------------------------


def test_rk4_backend_matches_exact_backend():
    H = random_h(2, seed=13)
    t_grid = np.linspace(0.0, 2.0, 3)
    a = estimate_tcf(request(H, MethodSpec.cmm(0.0), t_grid=t_grid, n_traj=5000))
    b = estimate_tcf(request(H, MethodSpec.cmm(0.0), t_grid=t_grid, n_traj=5000, backend="rk4"))
    assert np.max(np.abs(a.estimates - b.estimates)) < 1e-9


def test_rk4_backend_multiframe_gdtwa():
    H = random_h(3, seed=13)
    t_grid = np.linspace(0.0, 2.0, 3)
    a = estimate_tcf(request(H, MethodSpec.gdtwa(), t_grid=t_grid, n_traj=5000))
    b = estimate_tcf(request(H, MethodSpec.gdtwa(), t_grid=t_grid, n_traj=5000, backend="rk4"))
    assert np.max(np.abs(a.estimates - b.estimates)) < 1e-9


def test_same_seed_is_bitwise_reproducible():
    H = random_h(2, seed=21)
    a = estimate_tcf(request(H, MethodSpec.triangle_sqc(), n_traj=8000))
    b = estimate_tcf(request(H, MethodSpec.triangle_sqc(), n_traj=8000))
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.standard_errors, b.standard_errors)


SHORT_RK4 = dict(t_grid=[0.0, 0.1], backend="rk4", dt=1e-2)
CMMCV_COMB = exact_cmmcv_comb(2)
THREAD_CASES = {
    "hill_ww": (2, MethodSpec.hill_ww(0.0), dict(n_traj=8000)),
    "cmmcv-exact": (2, MethodSpec.cmmcv(CMMCV_COMB), dict(nmkl=(1, 2, 2, 1), n_traj=3000)),
    "cmmcv-rk4": (2, MethodSpec.cmmcv(CMMCV_COMB), dict(nmkl=(1, 2, 2, 1), n_traj=3000, **SHORT_RK4)),
    "wmm": (2, MethodSpec.wmm(two_delta_comb()), dict(nmkl=(1, 2, 2, 1), n_traj=3000)),
    "cornered_simplex": (3, MethodSpec.cornered_simplex(0.5), dict(nmkl=(1, 1, 2, 2), n_traj=3000)),
    "triangle_sqc-offdiag": (3, MethodSpec.triangle_sqc(), dict(nmkl=(1, 2, 2, 1), n_traj=3000)),
    "gdtwa-rk4": (3, MethodSpec.gdtwa(), dict(nmkl=(1, 2, 2, 1), n_traj=2000, **SHORT_RK4)),
    "cmm": (3, MethodSpec.cmm(gamma_wigner(3)), dict(nmkl=(1, 2, 2, 1), n_traj=3000)),
    "ehrenfest": (3, MethodSpec.ehrenfest(), dict(nmkl=(1, 1, 2, 2), n_traj=3000)),
    "lambda_point-offdiag": (3, MethodSpec.lambda_point(0.5), dict(nmkl=(1, 2, 2, 1), n_traj=3000)),
    "dtwa": (2, MethodSpec.dtwa(), dict(nmkl=(1, 2, 2, 1), n_traj=3000)),
    "triangle_ww": (3, MethodSpec.triangle_ww(), dict(nmkl=(1, 1, 2, 2), n_traj=3000)),
    "triangle_f2_single": (2, MethodSpec.triangle_f2_single(0.3), dict(nmkl=(1, 1, 2, 2), n_traj=3000)),
}


# n_traj values with blocks of mixed sizes, of one trajectory, and empty.
GROUPING_N_TRAJ = (5037, 150, 7)
# Blocks of 1200 rows: groups of one on one thread, of six in a pool.
LARGE_BLOCK_CASES = {"cmm": (120_000,), "triangle_ww": (120_000,)}


@pytest.mark.parametrize("case", list(THREAD_CASES))
def test_thread_count_does_not_change_results(case):
    F, method, kw = THREAD_CASES[case]
    H = random_h(F, seed=21)
    for n_traj in (kw["n_traj"], *GROUPING_N_TRAJ, *LARGE_BLOCK_CASES.get(case, ())):
        run = {**kw, "n_traj": n_traj}
        a = estimate_tcf(request(H, method, **run))
        for n_threads in (2, 4):
            b = estimate_tcf(request(H, method, n_threads=n_threads, **run))
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.normalization, b.normalization)
            assert np.array_equal(a.standard_errors, b.standard_errors)
            assert np.array_equal(a.min_numerator, b.min_numerator, equal_nan=True)
            assert a.moment_check == b.moment_check


GROUPS_N_TRAJ = (7, 150, 5037, 120_000, 200_000)


# the one-thread cap at F = 8 keeps the ids [n_traj], F = 3's is [n_traj-F3]
# and the pool's cap [n_traj-pool]
@pytest.mark.parametrize(
    "n_traj, max_rows",
    [(n, GROUP_ENTRIES // 8) for n in GROUPS_N_TRAJ]
    + [(n, GROUP_ENTRIES // 3) for n in GROUPS_N_TRAJ]
    + [(n, POOL_ROWS) for n in GROUPS_N_TRAJ],
    ids=[str(n) for n in GROUPS_N_TRAJ] + [f"{n}-F3" for n in GROUPS_N_TRAJ] + [f"{n}-pool" for n in GROUPS_N_TRAJ],
)
def test_groups_are_runs_of_equal_blocks_within_group_rows(n_traj, max_rows):
    sizes = _block_sizes(n_traj)
    groups = _groups(sizes, max_rows)
    assert [b for lo, hi in groups for b in range(lo, hi)] == list(np.flatnonzero(sizes))
    for lo, hi in groups:
        assert len(set(sizes[lo:hi].tolist())) == 1
        assert hi - lo == 1 or np.sum(sizes[lo:hi]) <= max_rows
    # a group stops only at a new block size or where one more block would pass max_rows
    for (lo, hi), (nxt, _) in zip(groups, groups[1:]):
        assert sizes[nxt] != sizes[lo] or (hi - lo + 1) * sizes[lo] > max_rows


def greedy_groups(sizes, max_rows):
    """Groups grown block by block: the next nonempty block joins the last group while sizes match and rows fit."""
    groups = []
    for b in np.flatnonzero(sizes).tolist():
        lo = groups[-1][0] if groups else b
        if groups and sizes[lo] == sizes[b] and (b + 1 - lo) * sizes[b] <= max_rows:
            groups[-1] = (lo, b + 1)
        else:
            groups.append((b, b + 1))
    return groups


@pytest.mark.parametrize("n_traj", GROUPS_N_TRAJ + (1, 99, 100, 101, 4999))
def test_groups_equal_the_greedy_block_by_block_groups(n_traj):
    sizes = _block_sizes(n_traj)
    for max_rows in (0, 1, 2, 49, 50, 51, 1000, GROUP_ENTRIES // 3, GROUP_ENTRIES // 8, POOL_ROWS, 10**9):
        assert _groups(sizes, max_rows) == greedy_groups(sizes, max_rows), max_rows


@pytest.mark.parametrize("F", [2, 3, 5, 8])
def test_discrete_estimates_do_not_depend_on_the_grouping(F, monkeypatch):
    # GROUP_ENTRIES = 1 makes every block its own group, 10**9 one group per block size
    H = random_h(F, seed=23)
    method = MethodSpec.dtwa() if F == 2 else MethodSpec.gdtwa()
    kw = dict(n_traj=1537, seed=4, t_grid=np.linspace(0.0, 2.0, 5), backend="rk4", dt=0.05)
    for nmkl in ((1, 1, 2, 2), (1, 2, 2, 1), (2, 1, 1, 2)):
        runs = []
        for entries in (GROUP_ENTRIES, 1, 10**9):
            monkeypatch.setattr(estimators, "GROUP_ENTRIES", entries)
            runs.append(estimate_tcf(request(H, method, nmkl=nmkl, **kw)))
        for res in runs[1:]:
            assert res.estimates.tobytes() == runs[0].estimates.tobytes(), nmkl
            assert res.standard_errors.tobytes() == runs[0].standard_errors.tobytes(), nmkl
            assert res.moment_check == runs[0].moment_check, nmkl


SPHERE_GROUPING_CASES = {
    "cmm": (8, lambda: MethodSpec.cmm(gamma_wigner(8)), ((1, 2, 2, 1), (3, 3, 1, 1))),
    "wmm": (3, lambda: MethodSpec.wmm(signed_comb(3)), ((1, 2, 2, 1), (2, 2, 3, 3))),
    "hill_ww": (3, lambda: MethodSpec.hill_ww(0.2), ((1, 1, 2, 2), (3, 3, 3, 3))),
    "cornered_simplex": (3, lambda: MethodSpec.cornered_simplex(0.5), ((1, 1, 2, 2), (1, 2, 3, 3))),
}


@pytest.mark.parametrize("case", list(SPHERE_GROUPING_CASES))
def test_sphere_estimates_do_not_depend_on_the_grouping(case, monkeypatch):
    # the polar draw's float32 cos and sin must give a block the same bits
    # in any group: GROUP_ENTRIES = 1 makes every block its own group,
    # 10**9 one group per block size, and POOL_ROWS bounds a pool's groups
    F, make, pairs = SPHERE_GROUPING_CASES[case]
    H, method = random_h(F, seed=23), make()
    kw = dict(n_traj=1537, seed=4, t_grid=np.linspace(0.0, 2.0, 5))
    for nmkl in pairs:
        runs = []
        for name, entries, threads in (("GROUP_ENTRIES", GROUP_ENTRIES, 1), ("GROUP_ENTRIES", 1, 1),
                                       ("GROUP_ENTRIES", 10**9, 1), ("POOL_ROWS", 1, 2), ("POOL_ROWS", 10**9, 2)):
            monkeypatch.setattr(estimators, name, entries)
            runs.append(estimate_tcf(request(H, method, nmkl=nmkl, n_threads=threads, **kw)))
            monkeypatch.undo()
        for res in runs[1:]:
            assert res.estimates.tobytes() == runs[0].estimates.tobytes(), nmkl
            assert res.standard_errors.tobytes() == runs[0].standard_errors.tobytes(), nmkl
            assert res.normalization.tobytes() == runs[0].normalization.tobytes(), nmkl
            assert res.moment_check == runs[0].moment_check, nmkl


def fresh_stream(seed, b):
    """Block b's stream built from scratch, as every block stream is defined."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


def discrete_draw(F, side, rng, nb):
    """A dtwa/gdtwa block drawn as frames: (Z0, [W], gamma) and the frame weights 0.5 * signs.

    An off-diagonal side picks focus n where rng.random(nb) < 0.5; every
    row takes point rng.integers(4^(F-1)) of its focus's gdtwa_points,
    with density weight 2 u_m (focus n) or 2 conj(u_n) (focus m).
    """
    n0, m0 = side
    sig = gdtwa_signature(F)
    weights = 0.5 * np.array(sig.signs, dtype=float)
    frames_n, column_n = gdtwa_points(F, n0 + 1)
    if n0 == m0:
        return (frames_n[rng.integers(len(frames_n), size=nb)], [np.ones(nb)], sig.gamma), weights
    frames_m, column_m = gdtwa_points(F, m0 + 1)
    pick = rng.random(nb) < 0.5
    pts = rng.integers(len(frames_n), size=nb)
    Z = np.where(pick[:, None, None], frames_n[pts], frames_m[pts])
    W = 2.0 * np.where(pick, column_n[pts, m0], np.conj(column_m[pts, n0]))
    return (Z, [W], sig.gamma), weights


def placement_loop(F, foci):
    """_discrete_plan's focus placement built as each call once built it, the reference for the cached one."""
    gamma = gdtwa_signature(F).gamma
    place = np.zeros((len(foci), 2 * F - 1, F, F), dtype=np.complex128)
    for p, f in enumerate(foci):
        rows, others = np.arange(1, F), [i for i in range(F) if i != f]
        place[p, 0] = gamma * np.eye(F)
        place[p, 0, f, f] += 1.0
        place[p, rows, others, f] = place[p, rows, f, others] = 0.5
        place[p, rows + F - 1, others, f], place[p, rows + F - 1, f, others] = 0.5j, -0.5j
    return place.reshape(-1, F * F)


@pytest.mark.parametrize("F", range(2, 7))
def test_cached_placement_is_read_only_and_equals_the_per_call_loop(F):
    for side in itertools.product(range(F), repeat=2):
        foci = tuple(dict.fromkeys(side))
        place, want = estimators._placement(F, foci), placement_loop(F, foci)
        assert place.shape == want.shape and place.tobytes() == want.tobytes(), side
        with pytest.raises(ValueError):
            place[0, 0] = 2.0
        assert place.tobytes() == want.tobytes() and estimators._placement(F, foci) is place


def test_a_repeated_gdtwa_call_builds_no_generator_and_misses_no_cache(monkeypatch):
    # an off-diagonal side with fewer than N_BLOCKS trajectories reaches every cache
    req = request(random_h(3), MethodSpec.gdtwa(), nmkl=(1, 2, 2, 1), n_traj=50, **SHORT_RK4)
    caches = (gdtwa_signature, estimators._placement, estimators._moment_limit, streams._hash_constants)
    first = estimate_tcf(req)
    misses = [cache.cache_info().misses for cache in caches]
    built, sfc64 = [], np.random.SFC64
    monkeypatch.setattr(np.random, "SFC64", lambda *args: built.append(args) or sfc64(*args))
    second = estimate_tcf(req)
    assert built == [] and [cache.cache_info().misses for cache in caches] == misses
    assert second.estimates.tobytes() == first.estimates.tobytes()
    assert second.standard_errors.tobytes() == first.standard_errors.tobytes()
    # the count sees the generator a new thread builds
    worker = threading.Thread(target=estimate_tcf, args=(req,))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(built) == 1


def per_trajectory_estimates(req):
    """Oracle of the block driver: every block marched by Z0 @ U_t.T, one grid time at a time.

    Kernel plans sum W_i (kernel_entries of the marched frames minus the
    trajectory's shift) per time; window plans evaluate their window on
    the actions of one time.  The reduction repeats estimate_tcf's.
    The dtwa/gdtwa plan forms its moments without frames, so their
    blocks are drawn as frames by discrete_draw.
    """
    H, F, t_grid = _prepare(req)
    idx = _indices(req, F)
    U = grid_march(H, t_grid, req.backend, req.dt)
    plan = _PLANS[req.method.family](req, F, [idx], U)
    discrete = req.method.family in ("dtwa", "gdtwa")
    l0, k0 = idx[3], idx[2]
    if plan.shift_lk is None:
        shift_lk = np.full((len(U), 1), float(l0 == k0))
    else:
        shift_lk = plan.shift_lk(l0, k0)
    sizes = _block_sizes(req.n_traj)
    sums = np.zeros((N_BLOCKS, len(U), plan.width), dtype=np.complex128 if plan.measure is None else np.float64)
    for b in range(N_BLOCKS):
        nb = int(sizes[b])
        if nb == 0:
            continue
        if discrete:
            drawn, weights = discrete_draw(F, idx[:2], fresh_stream(req.seed, b), nb)
        else:
            words = np.random.SeedSequence(req.seed, spawn_key=(b,)).generate_state(3, np.uint64)
            drawn, weights = plan.sample(BlockStreams(np.append(words, np.uint64(1))[None]), nb), plan.weights
        Z0 = drawn[0].reshape(nb, -1, F)
        for ti, Ut in enumerate(U):
            Zt = np.matmul(Z0, Ut.T)
            if plan.window is None:
                W, S = drawn[1][0], np.broadcast_to(drawn[2], (nb, shift_lk.shape[1]))
                K = kernel_entries(Zt, l0, k0, weights=weights) - S @ shift_lk[ti]
                sums[b, ti] = np.sum(W * K)
            else:
                e = 0.5 * np.abs(Zt[:, 0, :]) ** 2
                sums[b, ti] = plan.window(e[None, :, None, plan.rows[0]], drawn[1], 0)[0, 0]
    if plan.measure is None:
        return np.sum(sums[:, :, 0], axis=0) / req.n_traj
    num = np.sum(sums[:, :, :F], axis=0)
    return num[:, idx[2]] / np.sum(num, axis=1)


def signed_comb(F, g2=0.2):
    """A two-node comb with a negative node at gamma = 0 that solves the exact mapping condition."""
    w2 = 1.0 / (F * g2 * g2 + 2.0 * g2)
    return GammaWeight.delta_comb([(0.0, 1.0 - w2), (g2, w2)])


ORACLE_METHODS = {
    "cmm": lambda F: MethodSpec.cmm(gamma_wigner(F)),
    "wmm": lambda F: MethodSpec.wmm(signed_comb(F)),
    "cmmcv": lambda F: MethodSpec.cmmcv(exact_cmmcv_comb(F)),
    "cornered_simplex": lambda F: MethodSpec.cornered_simplex(0.5),
    "triangle_sqc": lambda F: MethodSpec.triangle_sqc(),
    "ehrenfest": lambda F: MethodSpec.ehrenfest(),
    "lambda_point": lambda F: MethodSpec.lambda_point(0.5),
    "dtwa": lambda F: MethodSpec.dtwa(),
    "gdtwa": lambda F: MethodSpec.gdtwa(),
    "triangle_ww": lambda F: MethodSpec.triangle_ww(),
    "triangle_f2_single": lambda F: MethodSpec.triangle_f2_single(0.3),
    "hill_ww": lambda F: MethodSpec.hill_ww(0.2),
}
ORACLE_PAIRS = {
    "cornered_simplex": ((1, 1, 2, 2), (1, 2, 2, 2)),
    "triangle_ww": ((1, 1, 2, 2), (2, 2, 2, 2)),
    "triangle_f2_single": ((1, 1, 2, 2), (2, 2, 2, 2)),
    "hill_ww": ((1, 1, 2, 2), (2, 2, 2, 2)),
}
# dtwa and triangle_f2_single are F = 2 methods.
ORACLE_CASES = [
    (family, F, backend)
    for family in ORACLE_METHODS
    for F in (2, 3)
    for backend in ("exact", "rk4")
    if F == 2 or family not in ("dtwa", "triangle_f2_single")
]


# the gamma of each single-gamma family, drawn from its whole valid domain
# below the overflow bound; the other families take their ORACLE_METHODS spec
VALID_GAMMAS = {
    "cmm": lambda F: st.floats(-1.0 / F, 1e3, exclude_min=True),
    "cornered_simplex": lambda F: st.floats(0.0, 1e3, exclude_min=True),
    "lambda_point": lambda F: st.floats(0.0, 1e3, exclude_min=True),
    "triangle_f2_single": lambda F: st.floats(0.0, 1e3),
    "hill_ww": lambda F: st.floats(0.0, 1e3),
}


@settings(max_examples=8, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("family", sorted(ORACLE_METHODS))
def test_valid_request_gives_finite_estimates_or_a_named_rejection(family, data):
    F = data.draw(st.integers(1, 4), label="F")
    nmkl = data.draw(st.tuples(*[st.integers(1, F)] * 4), label="nmkl")
    if family in VALID_GAMMAS:
        method = getattr(MethodSpec, family)(data.draw(VALID_GAMMAS[family](F), label="gamma"))
    else:
        method = ORACLE_METHODS[family](F)
    if F == 1:
        H = np.array([[data.draw(st.floats(-5.0, 5.0), label="H")]])
    else:
        H = random_h(F, seed=data.draw(st.integers(0, 99), label="H seed"))
    req = request(
        H, method, nmkl=nmkl,
        n_traj=data.draw(st.integers(1, 300), label="n_traj"), seed=data.draw(st.integers(0, 2**70), label="seed"),
        t_grid=np.linspace(0.0, 1.0, data.draw(st.integers(1, 4), label="n_times")),
        backend=data.draw(st.sampled_from(["exact", "rk4"]), label="backend"), dt=0.05,
    )
    try:
        res = estimate_tcf(req)
    except ValueError as err:
        assert family in str(err), err
        return
    # a ww ratio is 0/0 where no trajectory reaches a window
    assert np.all(np.isfinite(res.estimates) | (res.normalization == 0.0)), res
    assert np.all(np.isfinite(res.normalization)), res


@pytest.mark.parametrize("family, F, backend", ORACLE_CASES)
def test_driver_matches_per_trajectory_march(family, F, backend):
    H = random_h(F, seed=17)
    for nmkl, n_traj in itertools.product(
        ORACLE_PAIRS.get(family, ((1, 1, 2, 2), (1, 2, 2, 1))), (1500, *GROUPING_N_TRAJ)
    ):
        req = request(
            H, ORACLE_METHODS[family](F), nmkl=nmkl, n_traj=n_traj, seed=9,
            t_grid=np.linspace(0.0, 1.0, 4), backend=backend, dt=1e-2,
        )
        got = estimate_tcf(req).estimates
        want = per_trajectory_estimates(req)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, (nmkl, got, want)


@pytest.mark.parametrize("family", ["cornered_simplex", "triangle_ww", "triangle_f2_single", "hill_ww"])
def test_window_march_in_time_chunks_changes_nothing(family, monkeypatch):
    req = request(random_h(2, seed=17), ORACLE_METHODS[family](2), nmkl=(1, 1, 2, 2), n_traj=3000)
    whole = estimate_tcf(req)
    monkeypatch.setattr(estimators, "MARCH_ENTRIES", 1)  # one grid time per gemm
    chunked = estimate_tcf(req)
    # a narrower gemm may round differently, so equal to float64 rounding
    for field in ("estimates", "standard_errors", "normalization"):
        assert np.allclose(getattr(whole, field), getattr(chunked, field), rtol=0, atol=1e-14)


# Index lists that mix density sides, off-diagonal pairs and a repeated pair.
LIST_PAIRS = {
    "kernel": [(1, 1, 2, 2), (1, 2, 2, 1), (2, 1, 1, 2), (1, 1, 2, 2), (2, 2, 1, 1), (1, 2, 1, 1)],
    "cornered_simplex": [(1, 1, 2, 2), (1, 2, 2, 2), (2, 1, 1, 1), (1, 1, 2, 2), (2, 2, 1, 1)],
    "ww": [(1, 1, 2, 2), (2, 2, 2, 2), (1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 1, 1)],
}
LIST_EXTRA_F3 = {"kernel": [(1, 3, 3, 2)], "cornered_simplex": [(3, 1, 3, 3)], "ww": [(3, 3, 1, 1)]}
WW_FAMILIES = ("triangle_ww", "triangle_f2_single", "hill_ww")


def list_pairs(family, F):
    kind = family if family == "cornered_simplex" else "ww" if family in WW_FAMILIES else "kernel"
    return LIST_PAIRS[kind] + (LIST_EXTRA_F3[kind] if F == 3 else [])


@pytest.mark.parametrize("family, F, backend", ORACLE_CASES)
def test_request_list_equals_single_calls_bitwise(family, F, backend):
    H = random_h(F, seed=17)
    pairs = list_pairs(family, F)
    method = ORACLE_METHODS[family](F)
    # a one-time grid reduces each request's lone column beside the frame moments
    for t_grid in (np.linspace(0.0, 1.0, 4), [0.7]):
        kw = dict(n_traj=1500, seed=9, t_grid=t_grid, backend=backend, dt=1e-2)
        singles = [estimate_tcf(request(H, ORACLE_METHODS[family](F), nmkl=p, **kw)) for p in pairs]
        for threads in (1, 3):
            grouped = estimate_tcf(
                [request(H, method, nmkl=p, n_threads=threads, **kw) for p in pairs]
            )
            assert len(grouped) == len(pairs)
            for p, got, want in zip(pairs, grouped, singles):
                for field in ("estimates", "standard_errors", "normalization", "zero_variance"):
                    assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (p, field, len(t_grid))
                assert np.float64(got.min_numerator).tobytes() == np.float64(want.min_numerator).tobytes()
                assert got.moment_check == want.moment_check, (p, len(t_grid))


LIST_FIELD_CHANGES = {
    "hamiltonian": random_h(2, seed=22),
    "t_grid": np.linspace(0.0, 3.0, 5),
    "n_traj": 2000,
    "seed": 6,
    "method": MethodSpec.cmm(0.1),
    "backend": "rk4",
    "dt": 2e-3,
    "n_threads": 2,
}


@pytest.mark.parametrize("field", list(LIST_FIELD_CHANGES))
def test_request_list_must_share_every_field_but_the_indices(field):
    first = request(random_h(2, seed=21), MethodSpec.cmm(gamma_wigner(2)), n_traj=1000)
    other = dataclasses.replace(
        first, rho_indices=(1, 2), obs_indices=(2, 1), **{field: LIST_FIELD_CHANGES[field]}
    )
    with pytest.raises(ValueError, match=f"differ in {field}"):
        estimate_tcf([first, other])


def test_request_list_accepts_equal_methods_and_rejects_empty():
    # every request gets its own MethodSpec object with equal values
    H = random_h(2, seed=21)
    reqs = [
        request(H, MethodSpec.cmmcv(CMMCV_COMB), nmkl=p, n_traj=1000)
        for p in ((1, 1, 2, 2), (1, 2, 2, 1))
    ]
    assert len(estimate_tcf(reqs)) == 2
    with pytest.raises(ValueError, match="at least one request"):
        estimate_tcf([])


def test_request_list_checks_its_shared_fields_once(monkeypatch):
    # the Hermitian check of H and the F^4 exactness pass of the comb run
    # once per call, not once per request
    calls = []

    def count(name):
        original = getattr(estimators, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimators, name, counted)

    count("_mapping_miss")
    count("require_hermitian")
    H = random_h(3, seed=21)
    pairs = ((1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1))
    reqs = [request(H, MethodSpec.cmm(gamma_wigner(3)), nmkl=p, n_traj=1000) for p in pairs]
    assert len(estimate_tcf(reqs)) == 4
    assert sorted(calls) == ["_mapping_miss", "require_hermitian"]


@pytest.mark.parametrize("backend", ["exact", "rk4"])
def test_an_estimate_checks_its_hamiltonian_once(monkeypatch, backend):
    # _prepare checks H under the request's field name; the march and the
    # eigensolver take it as checked
    from cpsmap import dynamics, qcore

    checks = []
    original = qcore.require_hermitian

    def counted(H, tol=qcore.HERMITIAN_TOL, name="matrix"):
        checks.append(name)
        return original(H, tol, name)

    for module in (estimators, dynamics, qcore):
        monkeypatch.setattr(module, "require_hermitian", counted)
    H = random_h(3, seed=21)
    estimate_tcf(request(H, MethodSpec.cmm(gamma_wigner(3)), n_traj=100, backend=backend))
    assert checks == ["hamiltonian"]
    H[0, 1] += 1e-3
    with pytest.raises(ValueError, match="hamiltonian is not Hermitian"):
        estimate_tcf(request(H, MethodSpec.cmm(gamma_wigner(3)), n_traj=100, backend=backend))


def test_result_flags_zero_variance_points():
    # the perfbench rk4_xc request: at t = 0 every trajectory carries the
    # same value, so the SE there (1.7e-18) is rounding noise
    H = build_hamiltonian(ModelSpec.random(3, seed=3002))
    req = request(
        H, MethodSpec.gdtwa(), nmkl=(1, 2, 2, 1), n_traj=5000, seed=3002,
        t_grid=np.linspace(0.0, 1.0, 21), backend="rk4", dt=1e-2,
    )
    res = estimate_tcf(req)
    assert res.standard_errors[0] <= 1e-12
    assert res.zero_variance[0]
    assert not np.any(res.zero_variance[1:])


def test_single_trajectory_has_nan_se():
    res = estimate_tcf(request(RABI, MethodSpec.cmm(0.0), n_traj=1, t_grid=[0.0]))
    assert np.isnan(res.standard_errors).all()
    assert np.isfinite(res.estimates).all()


# -- estimator-level physics properties -------------------------------


def test_hermiticity_conjugate_pairs():
    H = random_h(2, seed=33)
    t_grid = np.linspace(0.0, 3.0, 4)
    a = estimate_tcf(request(H, MethodSpec.cmm(0.0), nmkl=(1, 2, 2, 1), t_grid=t_grid, n_traj=50000))
    b = estimate_tcf(request(H, MethodSpec.cmm(0.0), nmkl=(2, 1, 1, 2), t_grid=t_grid, n_traj=50000))
    err = np.abs(a.estimates - np.conj(b.estimates))
    bound = 5.0 * np.sqrt(a.standard_errors**2 + b.standard_errors**2) + 1e-12
    assert np.all(err <= bound)


def test_cmm_gamma_invariance():
    H = random_h(2, seed=35)
    t_grid = np.linspace(0.0, 4.0, 5)
    ref = exact_series(H, (1, 1, 1, 1), t_grid)
    for i, gamma in enumerate((0.0, gamma_wigner(2), 1.0)):
        res = estimate_tcf(
            request(H, MethodSpec.cmm(gamma), t_grid=t_grid, n_traj=100000, seed=10 + i)
        )
        assert_matches_exact(res, ref)


def test_population_conservation_xc():
    # sum over final states is 1 within 5 SE at every time
    H = random_h(3, seed=37)
    t_grid = np.linspace(0.0, 4.0, 5)
    total = np.zeros(t_grid.size, dtype=complex)
    var = np.zeros(t_grid.size)
    for k in (1, 2, 3):
        res = estimate_tcf(
            request(H, MethodSpec.triangle_sqc(), nmkl=(1, 1, k, k), t_grid=t_grid, n_traj=60000)
        )
        total += res.estimates
        var += res.standard_errors**2
    assert np.all(np.abs(total.real - 1.0) <= 5.0 * np.sqrt(var) + 1e-3)
    assert np.all(np.abs(total.imag) <= 5.0 * np.sqrt(var) + 1e-3)


def test_ww_population_sum_is_exact():
    H = random_h(3, seed=39)
    t_grid = np.linspace(0.0, 4.0, 5)
    total = np.zeros(t_grid.size, dtype=complex)
    for k in (1, 2, 3):
        res = estimate_tcf(
            request(H, MethodSpec.triangle_ww(), nmkl=(1, 1, k, k), t_grid=t_grid, n_traj=30000)
        )
        total += res.estimates
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_ww_positivity_and_normalization_at_t0():
    H = random_h(2, seed=41)
    t_grid = np.array([0.0, 1.0, 2.0])
    ww = {
        "triangle_ww": MethodSpec.triangle_ww(),
        "triangle_f2_single": MethodSpec.triangle_f2_single(0.0),
        "hill_ww": MethodSpec.hill_ww(0.0),
    }
    for name, method in ww.items():
        res = estimate_tcf(request(H, method, n_traj=50000, t_grid=t_grid))
        assert res.min_numerator >= 0.0, name
        assert np.all(res.normalization > 0.0), name
    # the triangle constructions are normalized at t = 0, the hill pair is not
    tri = estimate_tcf(request(H, ww["triangle_ww"], n_traj=50000, t_grid=t_grid))
    assert tri.normalization[0] == pytest.approx(1.0, abs=1e-12)
    f2 = estimate_tcf(request(H, ww["triangle_f2_single"], n_traj=50000, t_grid=t_grid))
    assert abs(f2.normalization[0] - 1.0) < 0.05
    hill = estimate_tcf(request(H, ww["hill_ww"], n_traj=50000, t_grid=t_grid))
    assert abs(hill.normalization[0] - 0.5) < 0.05


def test_f2_transform_gamma_choice_changes_nothing():
    # the transformed estimator is algebraically gamma-free, so the same
    # seed gives bitwise identical output at different gamma
    H = random_h(2, seed=43)
    a = estimate_tcf(request(H, MethodSpec.triangle_f2_single(0.0), n_traj=20000))
    b = estimate_tcf(request(H, MethodSpec.triangle_f2_single(0.5), n_traj=20000))
    assert np.array_equal(a.estimates, b.estimates)


def test_cmmcv_single_component_wigner():
    # the self-dual pair is exact exactly when the scalar comb satisfies
    # the quadratic moment condition; one sphere does so at the Wigner-
    # like gamma
    H = random_h(2, seed=45)
    t_grid = np.linspace(0.0, 4.0, 5)
    comps = [(1.0, gamma_wigner(2) * np.eye(2))]
    res = estimate_tcf(
        request(H, MethodSpec.cmmcv(comps), nmkl=(1, 1, 2, 2), t_grid=t_grid, n_traj=200000)
    )
    assert_matches_exact(res, exact_series(H, (1, 1, 2, 2), t_grid))


def test_cmmcv_two_component_comb():
    # the two-delta solution of the moment conditions, realized as
    # commutator matrices gamma_j * I
    H = random_h(2, seed=45)
    t_grid = np.linspace(0.0, 4.0, 5)
    a2 = (3.0 + math.sqrt(33.0)) / 4.0
    w2 = 2.0 / (a2**2 - 1.0)
    comps = [
        (1.0 - w2, np.zeros((2, 2))),
        (w2, ((a2 - 1.0) / 2.0) * np.eye(2)),
    ]
    res = estimate_tcf(
        request(H, MethodSpec.cmmcv(comps), nmkl=(1, 1, 2, 2), t_grid=t_grid, n_traj=200000)
    )
    assert_matches_exact(res, exact_series(H, (1, 1, 2, 2), t_grid))


def test_cmmcv_rk4_backend_agrees():
    H = random_h(2, seed=45)
    t_grid = np.linspace(0.0, 2.0, 3)
    comps = exact_cmmcv_comb(2)
    a = estimate_tcf(request(H, MethodSpec.cmmcv(comps), t_grid=t_grid, n_traj=5000))
    b = estimate_tcf(request(H, MethodSpec.cmmcv(comps), t_grid=t_grid, n_traj=5000, backend="rk4"))
    assert np.max(np.abs(a.estimates - b.estimates)) < 1e-8


@pytest.mark.parametrize("F", [2, 3, 5])
def test_cmmcv_exact_combs_pass_the_mapping_check(F):
    for comps in ([(1.0, gamma_wigner(F) * np.eye(F))], exact_cmmcv_comb(F)):
        _prepare(request(random_h(F), MethodSpec.cmmcv(comps), nmkl=(1, 2, 2, 1)))


def test_cmmcv_rejects_a_comb_that_breaks_the_exact_mapping():
    # gamma_W I plus a small off-diagonal Hermitian part biases the
    # estimate by many standard errors; the closed form names the worst entry
    F = 3
    off = np.zeros((F, F), dtype=complex)
    off[0, 1], off[1, 0] = 0.05 + 0.02j, 0.05 - 0.02j
    comps = [(1.0, gamma_wigner(F) * np.eye(F) + off)]
    with pytest.raises(ValueError, match=r"exact mapping condition.*\(m, n, l, k\) = \(\d, \d, \d, \d\)"):
        estimate_tcf(request(random_h(F), MethodSpec.cmmcv(comps), nmkl=(1, 2, 2, 1)))


def test_cmmcv_mapping_tensor_matches_monte_carlo():
    # the cmm kernel paired with its inverse kernel, and a cmmcv kernel
    # with an off-diagonal Gamma paired with itself
    F = 3
    off = np.zeros((F, F), dtype=complex)
    off[0, 1], off[1, 0] = 0.1 - 0.05j, 0.1 + 0.05j
    G = gamma_wigner(F) * np.eye(F) + off
    c1, c2 = inverse_kernel_coefficients(F, gamma_wigner(F))
    cmm = (1.0, gamma_wigner(F) * np.eye(F), c1, c2 * np.eye(F))
    n = 200_000
    for term in (cmm, (1.0, G, 0.5, G)):
        _, A, b, B = term
        Z = sample_sphere_batch(F, np.real(np.trace(A)) / F, np.random.default_rng(17), n)
        zz = Z[:, :, None] * np.conj(Z[:, None, :])
        mc = F * np.einsum("imn,ilk->mnlk", 0.5 * zz - A, b * zz - B) / n
        closed = estimators._mapping_tensor(F, [term])
        assert np.max(np.abs(mc - closed)) < 2e-2
    # the off-diagonal Gamma breaks the identity
    assert np.max(np.abs(closed - estimators._pair_deltas(F)[1])) > 0.05


def test_cmmcv_gamma_trace_domain():
    with pytest.raises(ValueError, match="Tr Gamma"):
        estimate_tcf(request(RABI, MethodSpec.cmmcv([(1.0, -0.6 * np.eye(2))])))


def comb_verdict(method, F):
    """None when _prepare accepts the comb, else the (m, n, l, k) its error names."""
    try:
        _prepare(request(random_h(F), method))
    except ValueError as exc:
        assert "exact mapping condition" in str(exc)
        return re.search(r"\(m, n, l, k\) = (\(.*?\))", str(exc)).group(1)
    return None


@pytest.mark.parametrize("F", [2, 3, 5])
@pytest.mark.parametrize("excess", [0.0, 1e-7])
def test_one_comb_gets_one_verdict_as_wmm_pairs_or_cmmcv_components(F, excess):
    # nodes 0 and 1 normalized; the moment sum_c w_c (F g_c^2 + 2 g_c) is 1 + excess
    w2 = (1.0 + excess) / (F + 2.0)
    pairs = [(0.0, 1.0 - w2), (1.0, w2)]
    wmm = MethodSpec.wmm(GammaWeight.delta_comb(pairs))
    cmmcv = MethodSpec.cmmcv([(w, g * np.eye(F)) for g, w in pairs])
    assert wmm.weight.total_weight() == pytest.approx(1.0, abs=1e-15)
    verdict = comb_verdict(wmm, F)
    assert verdict == comb_verdict(cmmcv, F)
    if excess == 0.0:
        assert verdict is None
    else:
        # the moment check that this replaced accepted a miss of 1e-7 (tolerance 1e-6)
        assert verdict is not None
        miss, _ = estimators._mapping_miss(F, estimators._comb(wmm, F))
        assert estimators.EXACT_MAPPING_TOL < miss < 1e-6


@pytest.mark.parametrize("F", range(1, 17))
def test_cmm_passes_the_mapping_check_across_the_gamma_domain(F):
    for shell in (1e-3, 1e-2, 1.0, 11.0):
        terms = estimators._comb(MethodSpec.cmm((shell - 1.0) / F), F)
        assert estimators._mapping_miss(F, terms)[0] <= estimators.EXACT_MAPPING_TOL


# -- the frame moment check ---------------------------------------------


@pytest.mark.parametrize("F", [2, 3, 4, 5])
def test_discrete_plan_means_are_the_enumerated_frame_moments(F):
    # every point of the set, with the signature's frame weights
    U = grid_march(np.zeros((F, F)), np.zeros(1), "exact", 1e-3)
    weights = 0.5 * np.array(gdtwa_signature(F).signs, dtype=float)
    point_means = [np.mean(kernel_entries(gdtwa_points(F, n)[0], weights=weights), axis=0) for n in range(1, F + 1)]
    for family in ("dtwa", "gdtwa") if F == 2 else ("gdtwa",):
        req = request(np.zeros((F, F)), ORACLE_METHODS[family](F))
        for n0, m0 in itertools.product(range(F), repeat=2):
            plan = _PLANS[family](req, F, [(n0, m0, 0, 0)], U)
            want = 0.5 * (point_means[n0] + point_means[m0])
            assert np.max(np.abs(plan.mean - want)) <= 1e-12, (family, n0, m0)


SAMPLER_CASES = [
    pytest.param(ORACLE_METHODS[family](F), F, 200_000, 5, id=f"{family}-{F}")
    for family in sorted(set(ORACLE_METHODS) - {"dtwa", "gdtwa"})
    for F in (2, 3, 4)
    if F == 2 or family != "triangle_f2_single"
] + [
    # zero-variance entries of size gamma: a rounding miss of 1.8e-12 at
    # 1e4 once failed the check, which now scales it by the entry's size
    pytest.param(MethodSpec.lambda_point(1e4), 3, 20_000, 1, id="lambda_point-3-gamma1e4"),
    pytest.param(MethodSpec.lambda_point(1e6), 3, 200, 1, id="lambda_point-3-gamma1e6"),
]


@pytest.mark.parametrize("method, F, n_traj, seed", SAMPLER_CASES)
def test_every_sampler_passes_its_frame_moment_check(method, F, n_traj, seed):
    # an xc sampler draws from its density side; cx and ww read populations
    sides = [(1, 1)] if method.family in WW_FAMILIES else [(1, 1), (1, 2)]
    for n, m in sides:
        req = request(random_h(F), method, nmkl=(n, m, 2, 2), n_traj=n_traj, seed=seed, t_grid=[0.0])
        check = estimate_tcf(req).moment_check
        assert check.passed, (n, m, check)


def test_moment_check_is_the_block_jackknife_of_each_entry():
    rng = np.random.default_rng(3)
    sizes = _block_sizes(1234)
    frames = rng.normal(size=(N_BLOCKS, 2, 2)) + 1j * rng.normal(size=(N_BLOCKS, 2, 2))
    frames[:, 0, 0] = sizes * 0.75  # the same value in every trajectory
    mean = np.array([[0.75, 0.0], [0.0, 0.1]])
    worst = 0.0
    for a, b in ((0, 1), (1, 0), (1, 1)):
        col = frames[:, a, b]
        loo = (np.sum(col) - col) / (1234 - sizes)
        se = np.sqrt((N_BLOCKS - 1) / N_BLOCKS * np.sum(np.abs(loo - np.mean(loo)) ** 2))
        worst = max(worst, abs(np.sum(col) / 1234 - mean[a, b]) / se)

    def moment_check(sizes):
        blocks = frames.reshape(N_BLOCKS, -1)
        total = blocks.sum(axis=0)
        se = estimators._jackknife(blocks, sizes[:, None], total, int(sizes.sum()), sizes)
        return estimators._moment_check(total, se, sizes, mean)

    check = moment_check(sizes)
    assert check.worst_over_se == pytest.approx(worst, rel=1e-12)
    assert check.zero_variance_dev <= 1e-15
    assert check.limit == estimators.MOMENT_SE_LIMIT
    assert math.isnan(moment_check(_block_sizes(1)).worst_over_se)


def test_moment_limit_keeps_the_full_block_tail_on_fewer_blocks():
    stats = pytest.importorskip("scipy.stats")
    tail = stats.t.sf(estimators.MOMENT_SE_LIMIT, N_BLOCKS - 1)
    for B in (2, 3, 4, 5, 10, 11, 50, 99):
        assert estimators._moment_limit(B) == pytest.approx(stats.t.isf(tail, B - 1), rel=1e-8), B
    assert estimators._moment_limit(N_BLOCKS) == estimators.MOMENT_SE_LIMIT
    assert math.isnan(estimators._moment_limit(1))


def test_memoized_moment_limit_equals_the_uncached_bisection():
    for B in range(2, N_BLOCKS + 1):
        want = estimators._moment_limit.__wrapped__(B).hex()
        # the call that may fill the cache, then one that reads it
        assert estimators._moment_limit(B).hex() == want == estimators._moment_limit(B).hex(), B


@pytest.mark.parametrize("family", ["cmm", "wmm", "gdtwa", "triangle_sqc", "ehrenfest", "lambda_point", "triangle_ww", "hill_ww"])
def test_moment_check_passes_when_trajectories_fill_few_blocks(family):
    # with n_traj < N_BLOCKS each SE rests on n_traj blocks: a fixed limit
    # failed healthy runs at random, one entry in eight at n_traj = 2
    H = random_h(3)
    nmkl = (1, 1, 2, 2) if family in WW_FAMILIES else (1, 2, 2, 2)
    for n_traj in range(2, 11):
        for seed in range(20):
            req = request(H, ORACLE_METHODS[family](3), nmkl=nmkl, n_traj=n_traj, seed=seed, t_grid=[0.0])
            check = estimate_tcf(req).moment_check
            assert check.passed, (n_traj, seed, check)


# -- window functions -------------------------------------------------


# The window functions take actions e of shape (..., F); state n is index n - 1.


def test_triangle_window_examples():
    # state m's window is open when e_m >= 1 and no other action is above 1
    e = np.array([[1.5, 0.2], [1.5, 0.6], [0.9, 0.2], [1.2, 1.1], [1.0, 0.5]])
    want = [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    assert _triangle_obs_windows(e).tolist() == want


def test_hill_window_examples():
    e = np.array([[0.8, 0.2], [0.2, 0.8]])
    assert _hill_obs_windows(e)[0, 0] == pytest.approx(0.6)
    assert _hill_obs_windows(e)[1, 0] == 0.0
    assert _hill_rho_window(e, 0).tolist() == [1.0, 0.0]


def test_hill_obs_uses_fractional_exponent():
    val = _hill_obs_windows(np.array([0.7, 0.2, 0.1]))[0]
    assert val == pytest.approx((0.5**0.75) * (0.6**0.75))


def hill_obs_product_form(e):
    """Oracle: prod_{j != m} max(e_m - e_j, 0)^B(F) for every state m, factor by factor."""
    F = e.shape[-1]
    diffs = e[..., :, None] - e[..., None, :]
    clipped = np.where(diffs >= 0.0, diffs, 0.0)
    idx = np.arange(F)
    clipped[..., idx, idx] = 1.0
    return np.prod(clipped ** hill_exponent(F), axis=-1)


@pytest.mark.parametrize("F", [2, 3, 5])
def test_hill_obs_windows_match_product_form(F):
    rng = np.random.default_rng(F)
    e = rng.random((400, F)) * 2.0
    tied = rng.random((50, F))
    tied[:, 1] = tied[:, 0] = np.max(tied, axis=1) + 0.1  # two states share the largest action
    e = np.concatenate([e, tied, np.full((1, F), 0.4)])
    got = _hill_obs_windows(e)
    want = hill_obs_product_form(e)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.all(got[400:] == 0.0)
    for row in (0, 1, 420):
        assert np.max(np.abs(_hill_obs_windows(e[row]) - want[row])) <= 1e-14


def test_cornered_window_normalization():
    # gamma = 1, F = 2: N = F (F/(1+F))^(F-1) evaluated at F*gamma/(1+F*gamma)
    e = np.array([2.0, 1.0])
    assert _cornered_window(e[0], 2, 1.0) == pytest.approx(0.75)
    assert _cornered_window(e[1], 2, 1.0) == pytest.approx(0.75)
    below = np.array([0.5, 2.5])
    assert _cornered_window(below[0], 2, 1.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    e1=st.floats(min_value=0.0, max_value=3.0),
    e2=st.floats(min_value=0.0, max_value=3.0),
)
def test_window_values_stay_in_range(e1, e2):
    e = np.array([e1, e2])
    for v in (*_triangle_obs_windows(e), _hill_rho_window(e, 0)):
        assert 0.0 <= v <= 1.0
    assert _hill_obs_windows(e)[0] >= 0.0


# -- intra-electron correlation ---------------------------------------


def test_intra_electron_single_gamma_cubic_root():
    g = (6.0 ** (1.0 / 3.0) - 1.0) / 2.0
    rep = intra_electron_check(
        GammaWeight.single(g), RABI, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 20000, 1
    )
    assert rep.cubic_satisfied
    assert rep.cubic_target == pytest.approx(6.0)
    # a single sphere cannot satisfy the quadratic condition at this
    # gamma, so the sides are not asserted equal here
    off = intra_electron_check(
        GammaWeight.single(0.9), RABI, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 100, 1
    )
    assert not off.cubic_satisfied


def test_intra_electron_two_delta_comb_agrees():
    w = two_delta_comb()
    # the comb satisfies both moment conditions by construction
    assert abs(w.moment(lambda g: 2 * g * g + 2 * g) - 1.0) < 1e-12
    assert abs(w.moment(lambda g: (1 + 2 * g) ** 3) - 6.0) < 1e-12
    H = random_h(2, seed=47)
    rho = np.diag([0.7, 0.3]).astype(complex)
    A = random_h(2, seed=48)
    rep = intra_electron_check(w, H, rho, A, 400000, 3)
    assert rep.cubic_satisfied
    assert abs(rep.lhs - rep.rhs) <= 5.0 * rep.rhs_se


def test_intra_electron_identity_hamiltonian():
    # H = I makes Tr[H K] = 1 exactly; only the quadratic condition is
    # exercised and the sides must agree
    w = two_delta_comb()
    rho = np.diag([1.0, 0.0]).astype(complex)
    A = np.array([[0.2, 0.4], [0.4, 0.8]], dtype=complex)
    rep = intra_electron_check(w, np.eye(2), rho, A, 400000, 5)
    assert rep.lhs == pytest.approx(np.trace(rho @ A).real)
    assert abs(rep.lhs - rep.rhs) <= 5.0 * rep.rhs_se


def test_comb_density_draws_signed_terms():
    # the signed comb of test_cps.py::test_delta_comb_signed_weights, drawn by the
    # one comb sampler: importance draws follow |w|, 2/3 at gamma=0, 1/3 at gamma=1
    w = GammaWeight.delta_comb([(0.0, 2.0), (1.0, -1.0)])
    F = 2
    sample = _comb_density(F, _comb(MethodSpec.wmm(w), F), [(0, 0)])
    Z, (W,), S = sample(BlockStreams(block_keys(8, 1)), 60000)
    gam = S[:, 0]
    assert set(np.unique(gam)) == {0.0, 1.0}
    assert abs(np.mean(gam == 0.0) - 2.0 / 3.0) < 0.01
    # a row's density weight is F sum|w| sgn(w_c) K_11(z; gamma_c)
    K = 0.5 * np.abs(Z[:, 0]) ** 2 - gam
    assert np.max(np.abs(W - np.where(gam == 0.0, 1.0, -1.0) * F * 3.0 * K)) <= 1e-12 * F * 3.0
    sgn = np.sign(W.real * K)
    assert np.all(sgn[gam == 0.0] == 1.0)
    assert np.all(sgn[gam == 1.0] == -1.0)
    # the signed average reproduces the signed integral of g
    est = 3.0 * np.mean(sgn * gam)
    assert abs(est - w.moment(lambda g: g)) < 0.02


def test_intra_electron_rejects_an_unnormalized_comb():
    half = GammaWeight.delta_comb([(0.0, 0.5)])
    with pytest.raises(ValueError, match="not normalized"):
        intra_electron_check(half, RABI, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 100, 1)


# once NaN with a RuntimeWarning (n_traj 0), or a TypeError, AttributeError
# or matmul error that did not name the input
@pytest.mark.parametrize(
    "field, value",
    [
        ("n_traj", 0),
        ("n_traj", 1.5),
        ("n_traj", True),
        ("rho", np.eye(3)),
        ("A", np.ones((2, 3))),
        ("H", np.array([[0.0, 1.0], [0.0, 0.0]])),
        ("H", np.ones((2, 3))),
        ("weight", 0.5),
    ],
    ids=["n_traj-zero", "n_traj-fraction", "n_traj-bool", "rho-3x3", "A-2x3", "H-non-hermitian", "H-2x3",
         "weight-float"],
)
def test_intra_electron_check_rejects_bad_input_by_name(field, value):
    args = {"weight": two_delta_comb(), "H": RABI, "rho": np.diag([1.0, 0.0]), "A": np.diag([0.0, 1.0]),
            "n_traj": 100, field: value}
    with pytest.raises(ValueError, match=rf"^{field} "):
        intra_electron_check(args["weight"], args["H"], args["rho"], args["A"], args["n_traj"], 1)


# -- wmm end to end ----------------------------------------------------


def test_wmm_comb_tracks_exact_dynamics():
    H = random_h(2, seed=49)
    t_grid = np.linspace(0.0, 4.0, 5)
    res = estimate_tcf(
        request(H, MethodSpec.wmm(two_delta_comb()), nmkl=(1, 1, 2, 2), t_grid=t_grid, n_traj=200000)
    )
    assert_matches_exact(res, exact_series(H, (1, 1, 2, 2), t_grid))
