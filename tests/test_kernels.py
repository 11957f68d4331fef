"""Mapping kernels, their inverses, classification, and discrete point sets."""

import itertools
import math

import numpy as np
import pytest

from cpsmap.cps import gdtwa_signature, sample_sphere_batch, sample_stiefel
from cpsmap.kernels import (
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
        K = kernel_entries(sample_sphere_batch(2, gamma, rng, 1), gamma=gamma)
        assert abs(np.trace(K).real - 1.0) < 1e-12
        assert abs(np.trace(K).imag) < 1e-12


@pytest.mark.parametrize("F,gamma", [(2, 0.0), (3, 0.5)])
def test_covariant_kernel_spectrum(F, gamma):
    K = kernel_entries(sample_sphere_batch(F, gamma, np.random.default_rng(2), 1), gamma=gamma)
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
            z = sample_sphere_batch(F, 0.7, rng, 1)[0]
            g = haar_unitary(F, rng)
            K = kernel_entries(z[None, :], gamma=0.7)
            Kg = kernel_entries((g @ z)[None, :], gamma=0.7)
            assert np.max(np.abs(Kg - g @ K @ g.conj().T)) < 1e-9


def test_covariance_multiframe():
    rng = np.random.default_rng(4)
    sig = gdtwa_signature(3)
    weights = 0.5 * np.asarray(sig.signs, dtype=np.float64)
    for _ in range(25):
        Z = sample_stiefel(sig, rng, 1)[0]
        g = haar_unitary(3, rng)
        K = kernel_entries(Z, gamma=sig.gamma, weights=weights)
        Kg = kernel_entries(Z @ g.T, gamma=sig.gamma, weights=weights)
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
    sig, Z = point_from_kernel(K)
    assert sig.r == 1
    assert Z.shape == (1, 2)
    back = kernel_entries(Z, gamma=sig.gamma, weights=0.5 * np.asarray(sig.signs))
    assert np.max(np.abs(back - K)) < 1e-10
    assert abs(np.sum(0.5 * np.abs(Z) ** 2) - 3.0) < 1e-12  # 1 + F*gamma at gamma=1


def test_point_from_kernel_roundtrip_random_covariant():
    rng = np.random.default_rng(9)
    for F, gamma in [(2, 0.0), (3, 0.8), (4, 0.25)]:
        K = kernel_entries(sample_sphere_batch(F, gamma, rng, 1), gamma=gamma)
        sig, Z = point_from_kernel(K)
        back = kernel_entries(Z, gamma=sig.gamma, weights=0.5 * np.asarray(sig.signs))
        assert np.max(np.abs(back - K)) < 1e-10


def kernels_from_column(column, n):
    """The gdtwa kernel matrices: column n is column, row n its conjugate, zeros elsewhere."""
    K = np.zeros(column.shape + column.shape[-1:], dtype=np.complex128)
    K[:, :, n - 1] = column
    K[:, n - 1, :] = np.conj(column)
    return K


def test_gdtwa_points_two_level():
    frames, column = gdtwa_points(2, 1)
    kernels = kernels_from_column(column, 1)
    assert kernels.shape == (4, 2, 2)
    assert frames.shape == (4, 1, 2)
    lam_expect = np.sort([(1 - math.sqrt(3.0)) / 2, (1 + math.sqrt(3.0)) / 2])
    for K in kernels:
        assert abs(np.trace(K).real - 1.0) < 1e-12
        assert abs(np.linalg.det(K).real + 0.5) < 1e-12
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(K)) - lam_expect)) < 1e-12
    # sign-symmetric average collapses to the projector
    avg = np.mean(kernels, axis=0)
    assert np.allclose(avg, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_gdtwa_points_three_level():
    frames, column = gdtwa_points(3, 2)
    kernels = kernels_from_column(column, 2)
    assert kernels.shape == (16, 3, 3)
    assert frames.shape == (16, 2, 3)
    c = math.sqrt(5.0)
    lam_expect = np.sort([(1 - c) / 2, 0.0, (1 + c) / 2])
    for K in kernels:
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(K)) - lam_expect)) < 1e-12
        assert abs(K[1, 1] - 1.0) < 1e-14  # occupied-state entry


def test_gdtwa_points_roundtrip():
    frames, column = gdtwa_points(3, 1)
    sig = gdtwa_signature(3)
    back = kernel_entries(frames, gamma=sig.gamma, weights=0.5 * np.asarray(sig.signs))
    assert np.max(np.abs(back - kernels_from_column(column, 1))) < 1e-10


@pytest.mark.parametrize("F", [2, 3, 4, 5, 6])
def test_gdtwa_points_equal_one_point_from_kernel_per_kernel(F):
    # the closed-form frames are the paper's kernel -> point map of each
    # kernel, frame by frame up to the eigenvector phase
    sig = gdtwa_signature(F)
    weights = 0.5 * np.asarray(sig.signs)
    # the sign choices (deltas, sigmas) in their documented order
    signs = np.array(list(itertools.product((1, -1), repeat=2 * (F - 1))), dtype=np.float64)
    for n in range(1, F + 1):
        frames, column = gdtwa_points(F, n)
        assert frames.shape == (4 ** (F - 1), sig.r, F)
        expect = np.ones((4 ** (F - 1), F), dtype=np.complex128)
        expect[:, [i for i in range(F) if i != n - 1]] = 0.5 * (signs[:, : F - 1] + 1j * signs[:, F - 1 :])
        assert column.tobytes() == expect.tobytes()
        closed = kernel_entries(frames, gamma=sig.gamma, weights=weights)
        for K, Z, K_closed in zip(kernels_from_column(column, n), frames, closed):
            one_sig, one_Z = point_from_kernel(K)
            assert (one_sig.r, one_sig.signs) == (sig.r, sig.signs)
            back = kernel_entries(one_Z, gamma=one_sig.gamma, weights=weights)
            assert np.max(np.abs(K_closed - back)) < 1e-12
            phase = np.sum(np.conj(one_Z) * Z, axis=-1) / np.sum(np.abs(one_Z) ** 2, axis=-1)
            assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-12
            assert np.max(np.abs(Z - phase[:, None] * one_Z)) < 1e-12


def test_gdtwa_points_rejects_bad_state():
    with pytest.raises(ValueError):
        gdtwa_points(2, 3)
