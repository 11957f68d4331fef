"""Trajectory propagation, the grid_march maps, and the invariants read off them."""

import math

import numpy as np
import pytest

from cpsmap.cps import gdtwa_signature, sample_sphere_batch, sample_stiefel
from cpsmap.dynamics import _rk4_arrays, grid_march
from cpsmap.kernels import kernel_trace
from cpsmap.models import ModelSpec, build_hamiltonian
from cpsmap.qcore import NonHermitianError

RABI = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def pole_point(gamma=0.0):
    """The (1, 2) frames of the F = 2 sphere point at gamma with all its action on state 1."""
    return np.array([[math.sqrt(2.0 * (1.0 + 2.0 * gamma)), 0.0]], dtype=complex)


def test_classical_energy_single_frame():
    Z = pole_point(0.5)
    H = np.diag([2.0, -1.0]).astype(complex)
    # 1/2 |z_1|^2 * 2 - gamma * Tr H = 2*2 - 0.5*1
    assert kernel_trace(Z, H, 0.5).real == pytest.approx(4.0 - 0.5)


def test_exact_rotation_on_rabi():
    z = pole_point() @ grid_march(RABI, [math.pi / 2.0])[0].T
    # exp(-i sigma_x pi/2) = -i sigma_x moves all action to state 2
    assert np.allclose(0.5 * np.abs(z) ** 2, [[0.0, 1.0]], atol=1e-12)
    assert np.allclose(z[0], [0.0, -1j * math.sqrt(2.0)], atol=1e-12)


def test_exact_preserves_constraints_and_energy():
    rng = np.random.default_rng(1)
    z = sample_sphere_batch(3, 0.8, rng, 1)[0]
    H = np.array([[0.5, 0.2, 0.0], [0.2, -0.1, 0.4], [0.0, 0.4, 0.3]], dtype=complex)
    U = grid_march(H, [0.5, 2.0, 10.0])
    Ud = np.conj(np.swapaxes(U, -1, -2))
    # |z(t)|^2 - |z|^2 off U^dagger U - I, H_C(t) - H_C(0) off U^dagger H U - H
    assert np.max(np.abs(z.conj() @ (Ud @ U - np.eye(3)) @ z)) < 1e-10
    assert np.max(np.abs(0.5 * z.conj() @ (Ud @ H @ U - H) @ z)) < 1e-12


def test_rk4_matches_exact_at_small_step():
    rng = np.random.default_rng(2)
    Z = sample_sphere_batch(2, 0.5, rng, 1)
    H = np.array([[0.3, 0.8 - 0.2j], [0.8 + 0.2j, -0.5]])
    ref = Z @ grid_march(H, [1.0])[0].T
    x, p = stage_by_stage_rk4(Z.real, Z.imag, (1,), H, 1e-3, 1000)
    assert np.max(np.abs(x - ref.real)) < 1e-12
    assert np.max(np.abs(p - ref.imag)) < 1e-12


def test_rk4_fourth_order_convergence():
    rng = np.random.default_rng(3)
    Z = sample_sphere_batch(2, 0.5, rng, 1)
    H = np.array([[0.3, 0.8 - 0.2j], [0.8 + 0.2j, -0.5]])
    ref = Z @ grid_march(H, [1.0])[0].T

    def err(dt):
        x, p = stage_by_stage_rk4(Z.real, Z.imag, (1,), H, dt, round(1.0 / dt))
        return max(np.max(np.abs(x - ref.real)), np.max(np.abs(p - ref.imag)))

    ratio = err(0.05) / err(0.025)
    assert 13.0 < ratio < 19.0


def test_rk4_zero_steps_is_identity():
    Z = pole_point()
    x, p = _rk4_arrays(Z.real, Z.imag, (1,), RABI, 0.1, 0)
    assert np.array_equal(x, Z.real)
    assert np.array_equal(p, Z.imag)


def test_rk4_rejects_nonpositive_step():
    with pytest.raises(ValueError, match="positive"):
        grid_march(RABI, [1.0], "rk4", dt=0.0)
    with pytest.raises(ValueError, match="positive"):
        grid_march(RABI, [1.0], "rk4", dt=math.nan)


def test_multiframe_signs_cancel_in_motion():
    # every frame follows dz/dt = -iHz regardless of its sign factor,
    # so rk4 on the two-frame component must track the exact unitary
    sig = gdtwa_signature(3)
    assert sig.signs == (1, -1)
    Z = sample_stiefel(sig, np.random.default_rng(4), 1)[0]
    H = np.array([[0.5, 0.2, 0.0], [0.2, -0.1, 0.4], [0.0, 0.4, 0.3]], dtype=complex)
    ref = Z @ grid_march(H, [2.0])[0].T
    x, p = stage_by_stage_rk4(Z.real, Z.imag, sig.signs, H, 1e-3, 2000)
    assert np.max(np.abs(x - ref.real)) < 1e-10
    assert np.max(np.abs(p - ref.imag)) < 1e-10
    # frame constraints: the Gram matrix z_i^dagger z_j is diag(2|lambda_i + gamma|)
    gram = np.conj(x + 1j * p) @ (x + 1j * p).T
    assert np.max(np.abs(gram - np.diag(sig.frame_radii_sq()))) < 1e-9


# complex off-diagonals, so that U and U.T differ
H3 = np.array([[0.5, 0.2 - 0.3j, 0.1j], [0.2 + 0.3j, -0.1, 0.4], [-0.1j, 0.4, 0.3]])


def test_rk4_maps_match_direct_integration():
    # Z @ U.T from the rk4 maps equals rk4 run on the frames themselves,
    # for one-frame points and the signed two-frame gdtwa component
    times = np.array([0.0, 0.35, 1.0, 1.7])
    dt = 1e-2
    maps = grid_march(H3, times, "rk4", dt)
    rng = np.random.default_rng(9)
    one = sample_sphere_batch(3, 0.4, rng, 5)[:, None, :]
    sig = gdtwa_signature(3)
    two = sample_stiefel(sig, rng, 3)
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


@pytest.mark.parametrize("F", [2, 3, 8])
def test_rk4_maps_of_a_grid_prefix_keep_their_bits(F):
    # segments that share a step count are powered as one stack, which
    # leaves each segment's map bitwise what it is without the others
    H = build_hamiltonian(ModelSpec.random(F, seed=7))
    times = np.array([0.0, 0.013, 0.05, 0.051, 0.3, 0.337, 1.7, 1.71, 1.72])
    maps = grid_march(H, times, "rk4", 0.01)
    for k in range(1, times.size):
        assert grid_march(H, times[:k], "rk4", 0.01).tobytes() == maps[:k].tobytes()


def test_rk4_arrays_is_the_stage_by_stage_loop_bitwise():
    rng = np.random.default_rng(12)
    one = sample_sphere_batch(3, 0.4, rng, 1)
    sig = gdtwa_signature(3)
    two = sample_stiefel(sig, rng, 1)[0]
    for Z, signs in ((one, (1,)), (two, sig.signs)):
        got = _rk4_arrays(Z.real, Z.imag, signs, H3, 1e-2, 37)
        x, p = stage_by_stage_rk4(Z.real, Z.imag, signs, H3, 1e-2, 37)
        assert got[0].tobytes() == x.tobytes()
        assert got[1].tobytes() == p.tobytes()


def test_exact_maps_are_unitary():
    maps = grid_march(H3, np.linspace(0.0, 10.0, 11))
    assert maps.shape == (11, 3, 3)
    gram = np.conj(np.swapaxes(maps, -1, -2)) @ maps
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12


def test_segment_exact_drift():
    Z = sample_sphere_batch(3, 0.6, np.random.default_rng(5), 1)
    H = np.array([[0.5, 0.2, 0.0], [0.2, -0.1, 0.4], [0.0, 0.4, 0.3]], dtype=complex)
    U = grid_march(H, np.linspace(0.5, 10.0, 20))
    Ud = np.conj(np.swapaxes(U, -1, -2))
    # frame-norm and cross-frame drift z_i^dagger (U^dagger U - I) z_j, and the
    # H_C drift sum_i (s_i/2) z_i^dagger (U^dagger H U - H) z_i, per grid time
    gram = np.conj(Z) @ (Ud @ U - np.eye(3)) @ Z.T
    energy = 0.5 * (np.conj(Z) @ (Ud @ H @ U - H) @ Z.T).diagonal(0, -2, -1)
    assert max(np.max(np.abs(gram)), np.max(np.abs(energy))) < 1e-10


def test_segment_rk4_drift():
    Z = sample_sphere_batch(2, 0.0, np.random.default_rng(6), 1)
    U = grid_march(RABI, np.linspace(0.5, 10.0, 20), "rk4", 1e-3)
    Ud = np.conj(np.swapaxes(U, -1, -2))
    gram = np.conj(Z) @ (Ud @ U - np.eye(2)) @ Z.T
    energy = 0.5 * (np.conj(Z) @ (Ud @ RABI @ U - RABI) @ Z.T).diagonal(0, -2, -1)
    assert max(np.max(np.abs(gram)), np.max(np.abs(energy))) < 1e-6


def test_segment_multiframe_drift():
    sig = gdtwa_signature(4)
    Z = sample_stiefel(sig, np.random.default_rng(7), 1)[0]
    H = np.diag([0.1, 0.4, 0.9, 1.6]).astype(complex)
    H[0, 1] = H[1, 0] = 0.3
    U = grid_march(H, np.linspace(1.0, 10.0, 10), "rk4", 1e-3)
    Ud = np.conj(np.swapaxes(U, -1, -2))
    gram = np.conj(Z) @ (Ud @ U - np.eye(4)) @ Z.T
    signs = np.asarray(sig.signs, dtype=np.float64)
    energy = 0.5 * (np.conj(Z) @ (Ud @ H @ U - H) @ Z.T).diagonal(0, -2, -1) @ signs
    assert max(np.max(np.abs(gram)), np.max(np.abs(energy))) < 1e-6, (gram, energy)


def test_segment_grid_validation():
    with pytest.raises(ValueError, match="increasing"):
        grid_march(RABI, [1.0, 0.5])
    with pytest.raises(ValueError, match="increasing"):
        grid_march(RABI, [])
    for backend in ("exact", "rk4"):
        with pytest.raises(ValueError, match="times"):
            grid_march(RABI, [0.0, math.nan], backend=backend)
        with pytest.raises(ValueError, match="nonnegative"):
            grid_march(RABI, [-1.0, 0.5], backend=backend)
    with pytest.raises(ValueError, match="dt"):
        grid_march(RABI, [0.0, 1.0], backend="rk4", dt=math.nan)
    with pytest.raises(ValueError, match="times must be finite"):
        grid_march(RABI, [math.nan])


def test_grid_march_validates_its_inputs():
    # rk4 once returned U(0.5) == U(1.0) for reversed times and the identity
    # map for a NaN time, and took a non-Hermitian H; the exact backend
    # returned NaN maps for a NaN time
    for backend in ("exact", "rk4"):
        with pytest.raises(ValueError, match="times must be nonempty, nonnegative, strictly increasing"):
            grid_march(RABI, [1.0, 0.5], backend)
        with pytest.raises(ValueError, match="times must be finite"):
            grid_march(RABI, [math.nan], backend)
        with pytest.raises(NonHermitianError, match="H is not Hermitian"):
            grid_march(np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0], backend)
        with pytest.raises(ValueError, match="H has non-finite entries"):
            grid_march(np.array([[math.inf, 0.0], [0.0, 0.0]]), [1.0], backend)
        with pytest.raises(ValueError, match="dt must be positive"):
            grid_march(RABI, [1.0], backend, dt=-1e-3)


def test_segment_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        grid_march(RABI, [1.0], backend="verlet")


def test_segment_rk4_respects_grid_offsets():
    # grid times are hit exactly: compare against exact at each grid time
    Z = sample_sphere_batch(2, 0.3, np.random.default_rng(8), 1)
    times = np.array([0.7, 1.9, 3.1])
    for t, U in zip(times, grid_march(RABI, times, "rk4", 1e-3)):
        ref = Z @ grid_march(RABI, [t])[0].T
        assert np.max(np.abs(Z @ U.T - ref)) < 1e-10
