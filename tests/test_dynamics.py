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
    _rk4_arrays,
    classical_energy,
    grid_march,
    invariant_drift,
    propagate_exact,
    propagate_rk4,
    propagate_segment,
)
from cpsmap.models import ModelSpec, build_hamiltonian

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


# complex off-diagonals, so that U and U.T differ
H3 = np.array([[0.5, 0.2 - 0.3j, 0.1j], [0.2 + 0.3j, -0.1, 0.4], [-0.1j, 0.4, 0.3]])


def test_rk4_maps_match_direct_integration():
    # Z @ U.T from the rk4 maps equals rk4 run on the frames themselves,
    # for one-frame points and the signed two-frame gdtwa component
    times = np.array([0.0, 0.35, 1.0, 1.7])
    dt = 1e-2
    maps = grid_march(H3, times, "rk4", dt)
    rng = np.random.default_rng(9)
    one = np.stack([sample_sphere(3, 0.4, rng).z for _ in range(5)])
    sig = gdtwa_signature(3)
    two = np.stack([sample_stiefel(sig, rng).z for _ in range(3)])
    for Z, signs in ((one, (1.0,)), (two, sig.signs)):
        x, p, prev = Z.real, Z.imag, 0.0
        for t, U in zip(times, maps):
            if t > prev:
                steps = max(1, int(np.ceil((t - prev) / dt)))
                x, p = _rk4_arrays(x, p, signs, H3, (t - prev) / steps, steps)
            prev = t
            assert np.max(np.abs(np.matmul(Z, U.T) - (x + 1j * p))) <= 1e-13


def stage_by_stage_rk4(x, p, signs, H, dt, steps):
    """Classic rk4 on the sign-factor equations, one stage at a time (the reference loop)."""
    s = np.asarray(signs, dtype=np.float64)[..., :, None]

    def rhs(x, p):
        hz = (x + 1j * p) @ H.T
        return s * (s * hz.imag), -s * (s * hz.real)

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


def basis_frame_maps(H, times, dt):
    """The rk4 maps from the basis frames integrated step by step between grid times."""
    F = H.shape[0]
    x, p, prev, maps = np.eye(F), np.zeros((F, F)), 0.0, []
    for t in times:
        if t > prev:
            steps = max(1, int(np.ceil((t - prev) / dt)))
            x, p = stage_by_stage_rk4(x, p, np.ones(F), H, (t - prev) / steps, steps)
        maps.append((x + 1j * p).T)
        prev = t
    return np.array(maps)


@pytest.mark.parametrize("F", [3, 8])
def test_rk4_maps_match_stage_by_stage_basis_frames(F):
    # 10 000 steps of 1e-3: the powered segment maps keep the low bits
    # of every step's increment, so they track the step-by-step march
    H = build_hamiltonian(ModelSpec.random(F, seed=80 + F))
    times = np.linspace(0.0, 10.0, 21)
    maps = grid_march(H, times, "rk4", 1e-3)
    assert np.max(np.abs(maps - basis_frame_maps(H, times, 1e-3))) <= 1e-12
    eye = np.eye(F)
    assert max(np.max(np.abs(U.conj().T @ U - eye)) for U in maps) <= 1e-13


def test_rk4_maps_on_step_counts_that_are_not_powers_of_two():
    dt = 0.25
    times = np.array([0.0, 0.25, 2.0, 5.25])
    spans = np.diff(times)
    assert [int(np.ceil(s / dt)) for s in spans] == [1, 7, 13]
    maps = grid_march(H3, times, "rk4", dt)
    assert np.max(np.abs(maps - basis_frame_maps(H3, times, dt))) <= 1e-14


def test_propagate_rk4_is_the_stage_by_stage_loop_bitwise():
    rng = np.random.default_rng(12)
    one = sample_sphere(3, 0.4, rng)
    two = sample_stiefel(gdtwa_signature(3), rng)
    for pt in (one, two):
        out = propagate_rk4(pt, H3, 1e-2, 37)
        x, p = stage_by_stage_rk4(pt.x, pt.p, pt.signature.signs, H3, 1e-2, 37)
        assert out.x.tobytes() == x.tobytes()
        assert out.p.tobytes() == p.tobytes()


def test_exact_maps_are_unitary():
    maps = grid_march(H3, np.linspace(0.0, 10.0, 11))
    assert maps.shape == (11, 3, 3)
    gram = np.conj(np.swapaxes(maps, -1, -2)) @ maps
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12


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
        with pytest.raises(ValueError, match="nonnegative"):
            propagate_segment(pt, RABI, [-1.0, 0.5], backend=backend)
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
