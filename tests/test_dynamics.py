"""Trajectory propagation and invariant checks."""

import math

import numpy as np
import pytest

from cpsmap.cps import (
    StiefelPoint,
    check_constraints,
    cmm_signature,
    gdtwa_signature,
    sample_sphere,
    sample_stiefel,
)
from cpsmap.dynamics import (
    classical_energy,
    invariant_drift,
    propagate_exact,
    propagate_rk4,
    propagate_segment,
)

RABI = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def pole_point(gamma=0.0):
    z = np.array([math.sqrt(2.0 * (1.0 + 2.0 * gamma)), 0.0], dtype=complex)
    return StiefelPoint(z.real[None, :], z.imag[None, :], cmm_signature(2, gamma))


def test_classical_energy_single_frame():
    pt = pole_point(0.5)
    H = np.diag([2.0, -1.0]).astype(complex)
    # 1/2 |z_1|^2 * 2 - gamma * Tr H = 2*2 - 0.5*1
    assert classical_energy(pt, H) == pytest.approx(4.0 - 0.5)


def test_exact_rotation_on_rabi():
    pt = pole_point()
    out = propagate_exact(pt, RABI, math.pi / 2.0)
    # exp(-i sigma_x pi/2) = -i sigma_x moves all action to state 2
    assert np.allclose(out.actions(), [[0.0, 1.0]], atol=1e-12)
    assert np.allclose(out.z[0], [0.0, -1j * math.sqrt(2.0)], atol=1e-12)


def test_exact_preserves_constraints_and_energy():
    rng = np.random.default_rng(1)
    pt = sample_sphere(3, 0.8, rng)
    H = np.array([[0.5, 0.2, 0.0], [0.2, -0.1, 0.4], [0.0, 0.4, 0.3]], dtype=complex)
    e0 = classical_energy(pt, H)
    for t in (0.5, 2.0, 10.0):
        out = propagate_exact(pt, H, t)
        assert check_constraints(out, tol=1e-10).passed
        assert abs(classical_energy(out, H) - e0) < 1e-12


def test_exact_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        propagate_exact(pole_point(), np.eye(3), 1.0)


def test_rk4_matches_exact_at_small_step():
    rng = np.random.default_rng(2)
    pt = sample_sphere(2, 0.5, rng)
    H = np.array([[0.3, 0.8 - 0.2j], [0.8 + 0.2j, -0.5]])
    ref = propagate_exact(pt, H, 1.0)
    out = propagate_rk4(pt, H, 1e-3, 1000)
    assert np.max(np.abs(out.x - ref.x)) < 1e-12
    assert np.max(np.abs(out.p - ref.p)) < 1e-12


def test_rk4_fourth_order_convergence():
    rng = np.random.default_rng(3)
    pt = sample_sphere(2, 0.5, rng)
    H = np.array([[0.3, 0.8 - 0.2j], [0.8 + 0.2j, -0.5]])
    ref = propagate_exact(pt, H, 1.0)

    def err(dt):
        out = propagate_rk4(pt, H, dt, round(1.0 / dt))
        return max(np.max(np.abs(out.x - ref.x)), np.max(np.abs(out.p - ref.p)))

    ratio = err(0.05) / err(0.025)
    assert 13.0 < ratio < 19.0


def test_rk4_zero_steps_is_identity():
    pt = pole_point()
    out = propagate_rk4(pt, RABI, 0.1, 0)
    assert np.array_equal(out.x, pt.x)
    assert np.array_equal(out.p, pt.p)


def test_rk4_rejects_nonpositive_step():
    with pytest.raises(ValueError, match="positive"):
        propagate_rk4(pole_point(), RABI, 0.0, 10)
    with pytest.raises(ValueError, match="positive"):
        propagate_rk4(pole_point(), RABI, math.nan, 3)


def test_multiframe_signs_cancel_in_motion():
    # every frame follows dz/dt = -iHz regardless of its sign factor,
    # so rk4 on the two-frame component must track the exact unitary
    sig = gdtwa_signature(3)
    assert sig.signs == (1, -1)
    pt = sample_stiefel(sig, np.random.default_rng(4))
    H = np.array([[0.5, 0.2, 0.0], [0.2, -0.1, 0.4], [0.0, 0.4, 0.3]], dtype=complex)
    ref = propagate_exact(pt, H, 2.0)
    out = propagate_rk4(pt, H, 1e-3, 2000)
    assert np.max(np.abs(out.x - ref.x)) < 1e-10
    assert np.max(np.abs(out.p - ref.p)) < 1e-10
    assert check_constraints(out, tol=1e-9).passed


def test_segment_exact_drift():
    pt = sample_sphere(3, 0.6, np.random.default_rng(5))
    H = np.array([[0.5, 0.2, 0.0], [0.2, -0.1, 0.4], [0.0, 0.4, 0.3]], dtype=complex)
    seg = propagate_segment(pt, H, np.linspace(0.5, 10.0, 20), backend="exact")
    rep = invariant_drift(seg)
    assert rep.passed
    assert rep.max_drift < 1e-10
    assert rep.tol == pytest.approx(1e-8)


def test_segment_rk4_drift():
    pt = sample_sphere(2, 0.0, np.random.default_rng(6))
    seg = propagate_segment(pt, RABI, np.linspace(0.5, 10.0, 20), backend="rk4", dt=1e-3)
    rep = invariant_drift(seg)
    assert rep.passed
    assert rep.max_drift < 1e-6


def test_segment_multiframe_drift():
    sig = gdtwa_signature(4)
    pt = sample_stiefel(sig, np.random.default_rng(7))
    H = np.diag([0.1, 0.4, 0.9, 1.6]).astype(complex)
    H[0, 1] = H[1, 0] = 0.3
    seg = propagate_segment(pt, H, np.linspace(1.0, 10.0, 10), backend="rk4", dt=1e-3)
    rep = invariant_drift(seg)
    assert rep.passed, (rep.max_norm_residual, rep.max_cross_residual, rep.max_energy_drift)


def test_segment_grid_validation():
    pt = pole_point()
    with pytest.raises(ValueError, match="increasing"):
        propagate_segment(pt, RABI, [1.0, 0.5])
    with pytest.raises(ValueError, match="increasing"):
        propagate_segment(pt, RABI, [])
    for backend in ("exact", "rk4"):
        with pytest.raises(ValueError, match="times"):
            propagate_segment(pt, RABI, [0.0, math.nan], backend=backend)
    with pytest.raises(ValueError, match="dt"):
        propagate_segment(pt, RABI, [0.0, 1.0], backend="rk4", dt=math.nan)
    with pytest.raises(ValueError, match="t must be finite"):
        propagate_exact(pt, RABI, math.nan)


def test_segment_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        propagate_segment(pole_point(), RABI, [1.0], backend="verlet")


def test_segment_rk4_respects_grid_offsets():
    # grid times are hit exactly: compare against exact at each grid time
    pt = sample_sphere(2, 0.3, np.random.default_rng(8))
    times = np.array([0.7, 1.9, 3.1])
    seg = propagate_segment(pt, RABI, times, backend="rk4", dt=1e-3)
    for t, got in zip(times, seg.points):
        ref = propagate_exact(pt, RABI, t)
        assert np.max(np.abs(got.z - ref.z)) < 1e-10
