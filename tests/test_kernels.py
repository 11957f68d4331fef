"""Mapping kernels, their inverses, classification, and discrete point sets."""

import math

import numpy as np
import pytest

from cpsmap.cps import gdtwa_signature, sample_sphere, sample_sphere_batch, sample_stiefel
from cpsmap.kernels import (
    DiscretePointSet,
    classify_kernel,
    gdtwa_points,
    inverse_kernel_coefficients,
    kernel_entries,
    point_from_kernel,
)


def haar_unitary(F, rng):
    G = rng.standard_normal((F, F)) + 1j * rng.standard_normal((F, F))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))[None, :]


def test_covariant_kernel_pole_point():
    K = kernel_entries(np.array([[math.sqrt(2.0), 0.0]]), gamma=0.0)
    assert np.allclose(K, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_covariant_kernel_gamma_one_pole():
    K = kernel_entries(np.array([[math.sqrt(6.0), 0.0]]), gamma=1.0)
    assert np.allclose(K, [[2.0, 0.0], [0.0, -1.0]], atol=1e-14)
    lam = np.linalg.eigvalsh(K)
    assert np.allclose(sorted(lam), [-1.0, 2.0], atol=1e-12)


def test_covariant_kernel_unit_trace():
    rng = np.random.default_rng(1)
    for _ in range(200):
        gamma = rng.uniform(-0.4, 2.0)
        pt = sample_sphere(2, gamma, rng)
        K = kernel_entries(pt.z, gamma=gamma)
        assert abs(np.trace(K).real - 1.0) < 1e-12
        assert abs(np.trace(K).imag) < 1e-12


@pytest.mark.parametrize("F,gamma", [(2, 0.0), (3, 0.5)])
def test_covariant_kernel_spectrum(F, gamma):
    pt = sample_sphere(F, gamma, np.random.default_rng(2))
    K = kernel_entries(pt.z, gamma=gamma)
    lam = np.sort(np.linalg.eigvalsh(K))
    expect = np.sort([1.0 + (F - 1) * gamma] + [-gamma] * (F - 1))
    assert np.max(np.abs(lam - expect)) < 1e-12


def test_inverse_kernel_gamma_one_pole():
    c1, c2 = inverse_kernel_coefficients(2, 1.0)
    Ki = kernel_entries(np.array([[math.sqrt(6.0), 0.0]]), gamma=c2, weights=c1)
    assert np.allclose(Ki, np.diag([1.0, 0.0]), atol=1e-14)


def test_inverse_kernel_gamma_zero_pole():
    # (1+F)/2 * |z1|^2 - 1 = 3/2 * 2 - 1 = 2 on the gamma=0 pole point
    c1, c2 = inverse_kernel_coefficients(2, 0.0)
    Ki = kernel_entries(np.array([[math.sqrt(2.0), 0.0]]), gamma=c2, weights=c1)
    assert np.allclose(Ki, np.diag([2.0, -1.0]), atol=1e-14)


def test_exact_mapping_montecarlo_single_pair():
    # F * E[K_mn Kinv_lk] = delta_mk delta_nl, spot check two quadruples
    F, gamma, N = 2, 0.3, 100000
    Z = sample_sphere_batch(F, gamma, np.random.default_rng(11), N)
    c1 = (1.0 + F) / (2.0 * (1.0 + F * gamma) ** 2)
    c2 = (1.0 - gamma) / (1.0 + F * gamma)
    K01 = 0.5 * Z[:, 0] * Z[:, 1].conj()
    Ki10 = c1 * Z[:, 1] * Z[:, 0].conj()
    prod = F * K01 * Ki10  # quadruple (m,n,l,k) = (1,2,2,1): expect 1
    se = np.std(prod.real) / math.sqrt(N)
    assert abs(np.mean(prod.real) - 1.0) < 5 * se
    K00 = 0.5 * np.abs(Z[:, 0]) ** 2 - gamma
    Ki11 = c1 * np.abs(Z[:, 1]) ** 2 - c2
    prod = F * K00 * Ki11  # (1,1,2,2): expect 0
    se = np.std(prod.real) / math.sqrt(N)
    assert abs(np.mean(prod.real)) < 5 * se


def test_cmmcv_kernel_entries():
    Gamma = np.array([[0.2, 0.1], [0.1, 0.3]])
    z = np.array([1.0, 1.0j])
    K = kernel_entries(z[None, :], Gamma=Gamma)
    assert np.allclose(K, 0.5 * np.outer(z, z.conj()) - Gamma, atol=1e-14)


def test_covariance_under_unitaries():
    # K(g.X) = g K(X) g^dagger for the covariant kernels
    rng = np.random.default_rng(3)
    for F in (2, 3, 4):
        for _ in range(25):
            pt = sample_sphere(F, 0.7, rng)
            g = haar_unitary(F, rng)
            K = kernel_entries(pt.z, gamma=0.7)
            Kg = kernel_entries((g @ pt.z[0])[None, :], gamma=0.7)
            assert np.max(np.abs(Kg - g @ K @ g.conj().T)) < 1e-9


def test_covariance_multiframe():
    rng = np.random.default_rng(4)
    sig = gdtwa_signature(3)
    weights = 0.5 * np.asarray(sig.signs, dtype=np.float64)
    for _ in range(25):
        pt = sample_stiefel(sig, rng)
        g = haar_unitary(3, rng)
        K = kernel_entries(pt.z, gamma=sig.gamma, weights=weights)
        Kg = kernel_entries(pt.z @ g.T, gamma=sig.gamma, weights=weights)
        assert np.max(np.abs(Kg - g @ K @ g.conj().T)) < 1e-9


def test_classify_projector():
    sig = classify_kernel(np.diag([1.0, 0.0]).astype(complex))
    assert sig.r == 1
    assert sig.gamma == pytest.approx(0.0)
    assert sig.eigenvalues[0] == pytest.approx(1.0)


def test_classify_cmm_kernel():
    K = np.diag([2.0, -1.0]).astype(complex)
    sig = classify_kernel(K)
    assert sig.r == 1
    assert sig.gamma == pytest.approx(1.0)
    assert sig.signs == (1,)


def test_classify_tie_breaks_toward_small_eigenvalue():
    # two eigenvalue groups of equal multiplicity: gamma comes from the
    # one with smaller magnitude
    K = np.diag([3.0, 3.0, -0.5, -0.5]).astype(complex)
    sig = classify_kernel(K)
    assert sig.gamma == pytest.approx(0.5)
    assert sig.r == 2


def test_point_from_kernel_roundtrip_cmm():
    K = np.diag([2.0, -1.0]).astype(complex)
    pt = point_from_kernel(K)
    assert pt.r == 1
    back = kernel_entries(pt.z, gamma=pt.signature.gamma, weights=0.5 * np.asarray(pt.signature.signs))
    assert np.max(np.abs(back - K)) < 1e-10
    assert abs(np.sum(pt.actions()) - 3.0) < 1e-12  # 1 + F*gamma at gamma=1


def test_point_from_kernel_roundtrip_random_covariant():
    rng = np.random.default_rng(9)
    for F, gamma in [(2, 0.0), (3, 0.8), (4, 0.25)]:
        pt0 = sample_sphere(F, gamma, rng)
        K = kernel_entries(pt0.z, gamma=gamma)
        pt = point_from_kernel(K)
        back = kernel_entries(pt.z, gamma=pt.signature.gamma, weights=0.5 * np.asarray(pt.signature.signs))
        assert np.max(np.abs(back - K)) < 1e-10


def test_gdtwa_points_two_level():
    ps = gdtwa_points(2, 1)
    assert isinstance(ps, DiscretePointSet)
    assert len(ps.points) == 4
    lam_expect = np.sort([(1 - math.sqrt(3.0)) / 2, (1 + math.sqrt(3.0)) / 2])
    for K in ps.kernel_values:
        assert abs(np.trace(K).real - 1.0) < 1e-12
        assert abs(np.linalg.det(K).real + 0.5) < 1e-12
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(K)) - lam_expect)) < 1e-12
    # sign-symmetric average collapses to the projector
    avg = np.mean(ps.kernel_values, axis=0)
    assert np.allclose(avg, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_gdtwa_points_three_level():
    ps = gdtwa_points(3, 2)
    assert len(ps.points) == 16
    c = math.sqrt(5.0)
    lam_expect = np.sort([(1 - c) / 2, 0.0, (1 + c) / 2])
    for K in ps.kernel_values:
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(K)) - lam_expect)) < 1e-12
        assert abs(K[1, 1] - 1.0) < 1e-14  # occupied-state entry


def test_gdtwa_points_roundtrip():
    ps = gdtwa_points(3, 1)
    for K, pt in zip(ps.kernel_values, ps.points):
        back = kernel_entries(pt.z, gamma=pt.signature.gamma, weights=0.5 * np.asarray(pt.signature.signs))
        assert np.max(np.abs(back - K)) < 1e-10


@pytest.mark.parametrize("F", [2, 3, 4, 5])
def test_gdtwa_points_equal_one_point_from_kernel_per_kernel(F):
    # one batched eigensolve and one classification give each kernel's
    # own point bit for bit, with gamma read off its own eigenvalues
    for n in range(1, F + 1):
        ps = gdtwa_points(F, n)
        assert len(ps.points) == len(ps.kernel_values) == len(ps.indices) == 4 ** (F - 1)
        for K, pt in zip(ps.kernel_values, ps.points):
            one = point_from_kernel(K)
            assert pt.signature == one.signature
            assert pt.x.tobytes() == one.x.tobytes()
            assert pt.p.tobytes() == one.p.tobytes()
        assert ps.frames.shape == (4 ** (F - 1), gdtwa_signature(F).r, F)


def test_gdtwa_points_rejects_bad_state():
    with pytest.raises(ValueError):
        gdtwa_points(2, 3)
