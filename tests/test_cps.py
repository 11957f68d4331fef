"""Constraint phase space: signatures, points, weights, samplers."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsmap.cps import (
    GammaWeight,
    StiefelPoint,
    StiefelSignature,
    cmm_signature,
    gamma_wigner,
    gdtwa_signature,
    sample_sphere,
    sample_sphere_batch,
    sample_stiefel,
)


def test_gamma_wigner_solves_quadratic():
    # the single-gamma exact-mapping root: F*g^2 + 2*g = 1
    for F in range(2, 9):
        g = gamma_wigner(F)
        assert abs(F * g * g + 2.0 * g - 1.0) < 1e-14


def test_cmm_signature_spectrum():
    sig = cmm_signature(3, 0.5)
    assert sig.r == 1
    assert sig.eigenvalues == (2.0, -0.5, -0.5)
    assert sig.signs == (1,)
    assert sig.frame_radii_sq()[0] == pytest.approx(2.0 * (1.0 + 3 * 0.5))


def test_cmm_signature_rejects_gamma_at_boundary():
    with pytest.raises(ValueError, match="exceed"):
        cmm_signature(2, -0.5)


def test_gdtwa_signature_two_level_is_single_sphere():
    sig = gdtwa_signature(2)
    assert sig.r == 1
    assert sig.gamma == pytest.approx(gamma_wigner(2))
    c = math.sqrt(3.0)
    assert sig.eigenvalues == pytest.approx(((1 + c) / 2, (1 - c) / 2))


def test_gdtwa_signature_three_level_two_frames():
    sig = gdtwa_signature(3)
    assert sig.r == 2
    assert sig.gamma == 0.0
    assert sig.signs == (1, -1)
    c = math.sqrt(5.0)
    assert sig.eigenvalues[:2] == pytest.approx(((1 + c) / 2, (1 - c) / 2))
    assert sig.eigenvalues[2:] == (0.0,)


def test_signature_rejects_inconsistent_sign():
    with pytest.raises(ValueError, match="sign"):
        StiefelSignature(2, (1.0, 0.0), 1, 0.0, (-1,))


def test_point_shape_validation():
    sig = cmm_signature(2, 0.0)
    with pytest.raises(ValueError, match="shape"):
        StiefelPoint(np.zeros((1, 3)), np.zeros((1, 3)), sig)


def test_point_actions_and_z():
    sig = cmm_signature(2, 0.0)
    pt = StiefelPoint([[1.0, 1.0]], [[1.0, -1.0]], sig)
    assert np.allclose(pt.actions(), [[1.0, 1.0]])
    assert np.allclose(pt.z, [[1 + 1j, 1 - 1j]])


# -- gamma weights --------------------------------------------------


def test_single_weight_moments():
    w = GammaWeight.single(0.25)
    assert w.total_weight() == 1.0
    assert w.moment(lambda g: g * g) == pytest.approx(0.0625)
    assert w.support == (0.25, 0.25)


def test_delta_comb_signed_weights():
    # negative weights are allowed as long as the signed total is 1
    w = GammaWeight.delta_comb([(0.0, 2.0), (1.0, -1.0)])
    w.validate()
    assert w.total_weight() == pytest.approx(1.0)
    assert w.abs_total() == pytest.approx(3.0)
    gam, sgn = w.sample_batch(np.random.default_rng(8), 60000)
    # importance draws follow |w|: 2/3 at gamma=0, 1/3 at gamma=1
    frac0 = np.mean(gam == 0.0)
    assert abs(frac0 - 2.0 / 3.0) < 0.01
    assert np.all(sgn[gam == 0.0] == 1.0)
    assert np.all(sgn[gam == 1.0] == -1.0)
    # signed average reproduces the signed integral of g
    est = w.abs_total() * np.mean(sgn * gam)
    assert abs(est - w.moment(lambda g: g)) < 0.02


def test_validate_rejects_unnormalized_comb():
    with pytest.raises(ValueError, match="not normalized"):
        GammaWeight.delta_comb([(0.0, 0.5)]).validate()


@pytest.mark.parametrize("F", [2, 3, 4])
def test_triangle_weight_matches_direct_quadrature(F):
    w = GammaWeight.triangle(F)
    ntw = F * math.factorial(F) / (F**F - 1.0)

    def dens(g):
        return ntw * (1.0 + F * g) ** (F - 1) / math.factorial(F - 1)

    hi = 1.0 - 1.0 / F
    total, _ = scipy.integrate.quad(dens, 0.0, hi)
    assert abs(w.total_weight() - total) < 1e-12
    assert abs(w.total_weight() - 1.0) < 1e-12
    m2, _ = scipy.integrate.quad(lambda g: dens(g) * g * g, 0.0, hi)
    assert abs(w.moment(lambda g: g * g) - m2) < 1e-10
    assert w.support == (0.0, hi)


def test_triangle_sampler_matches_density():
    F = 3
    w = GammaWeight.triangle(F)
    gam, sgn = w.sample_batch(np.random.default_rng(12), 200000)
    assert np.all(sgn == 1.0)
    assert np.all((gam >= 0.0) & (gam <= 1.0 - 1.0 / F))
    mean = w.moment(lambda g: g)
    se = np.std(gam) / math.sqrt(gam.size)
    assert abs(np.mean(gam) - mean) < 5 * se


def test_table_weight_roundtrip():
    g = np.linspace(0.0, 1.0, 201)
    vals = 2.0 * g  # integrates to 1 on [0, 1]
    w = GammaWeight.table(g, vals)
    w.validate(tol=1e-4)
    assert abs(w.moment(lambda x: x) - 2.0 / 3.0) < 1e-3
    gam, sgn = w.sample_batch(np.random.default_rng(3), 100000)
    assert np.all(sgn == 1.0)
    assert abs(np.mean(gam) - 2.0 / 3.0) < 0.01


def test_table_rejects_bad_grids():
    with pytest.raises(ValueError, match="increasing"):
        GammaWeight.table([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="matching"):
        GammaWeight.table([0.0, 1.0], [1.0])


# -- sphere and Stiefel samplers ------------------------------------


def test_sphere_constraint_exact():
    rng = np.random.default_rng(7)
    for F, gamma in [(2, 0.0), (3, 1.0), (5, gamma_wigner(5))]:
        pt = sample_sphere(F, gamma, rng)
        assert abs(np.sum(pt.actions()) - (1.0 + F * gamma)) < 1e-12


def test_sphere_rejects_gamma_below_range():
    with pytest.raises(ValueError, match="exceed"):
        sample_sphere_batch(2, -0.6, np.random.default_rng(0), 4)


def test_sphere_second_moments():
    # E[z_n conj(z_m)] = (2(1+F*gamma)/F) delta_nm on the sphere
    F, gamma, N = 3, 0.4, 200000
    Z = sample_sphere_batch(F, gamma, np.random.default_rng(21), N)
    M = np.einsum("tn,tm->nm", Z, Z.conj()) / N
    target = 2.0 * (1.0 + F * gamma) / F
    prods = Z[:, 0] * Z[:, 0].conj()
    se = np.std(prods.real) / math.sqrt(N)
    for n in range(F):
        assert abs(M[n, n].real - target) < 5 * se
    off = np.abs(M - np.diag(np.diag(M)))
    assert np.max(off) < 5 * se


def test_sphere_fourth_moment_diagonal():
    # E[e_n^2] = 2(1+F*gamma)^2 / (F(F+1))
    F, gamma, N = 2, 1.0, 200000
    Z = sample_sphere_batch(F, gamma, np.random.default_rng(22), N)
    e1 = 0.5 * np.abs(Z[:, 0]) ** 2
    target = 2.0 * (1.0 + F * gamma) ** 2 / (F * (F + 1))
    se = np.std(e1**2) / math.sqrt(N)
    assert abs(np.mean(e1**2) - target) < 5 * se


def test_stiefel_sampler_satisfies_constraints():
    rng = np.random.default_rng(5)
    sig = gdtwa_signature(4)
    for _ in range(20):
        pt = sample_stiefel(sig, rng)
        # the Gram matrix z_i^dagger z_j is diag(2|lambda_i + gamma|)
        dev = np.conj(pt.z) @ pt.z.T - np.diag(sig.frame_radii_sq())
        assert np.max(np.abs(dev)) < 1e-10, dev
        # frame norms are the shifted eigenvalue magnitudes
        e = np.sum(pt.actions(), axis=1)
        assert np.allclose(2.0 * e, sig.frame_radii_sq())


def test_stiefel_matches_sphere_for_r1():
    sig = cmm_signature(2, 0.3)
    pt = sample_stiefel(sig, np.random.default_rng(6))
    assert pt.r == 1
    assert abs(np.sum(pt.actions()) - 1.6) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    F=st.integers(min_value=2, max_value=5),
    gshift=st.floats(min_value=0.05, max_value=2.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sphere_sampler_property(F, gshift, seed):
    # any admissible gamma gives a point exactly on its shell
    gamma = -1.0 / F + gshift
    pt = sample_sphere(F, gamma, np.random.default_rng(seed))
    assert abs(np.sum(pt.actions()) - (1.0 + F * gamma)) < 1e-10
    assert np.all(pt.actions() >= 0.0)
