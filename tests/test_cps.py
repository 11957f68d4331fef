"""Constraint phase space: signatures, weights, samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsmap.cps import (
    GammaWeight,
    StiefelSignature,
    cmm_signature,
    gamma_wigner,
    gdtwa_signature,
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


# -- gamma weights --------------------------------------------------


def test_single_weight_moments():
    w = GammaWeight.single(0.25)
    assert w.total_weight() == 1.0
    assert w.moment(lambda g: g * g) == pytest.approx(0.0625)


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: GammaWeight.delta_comb([(0.1, math.nan)]),
        lambda: GammaWeight.delta_comb([(0.2, 1.0), (math.inf, 0.0)]),
        lambda: GammaWeight.delta_comb([(math.nan, 0.0), (0.2, 1.0)]),
        lambda: GammaWeight.single(math.nan),
        lambda: GammaWeight.single(-math.inf),
    ],
)
def test_comb_rejects_non_finite_entries(make):
    # a NaN weight, or a NaN gamma under a zero weight, once passed validate()
    with pytest.raises(ValueError, match=r"comb entry \(gamma, w\) = .* is not finite"):
        make()


def test_empty_comb_is_rejected():
    with pytest.raises(ValueError, match="empty comb"):
        GammaWeight.delta_comb([])


# -- sphere and Stiefel samplers ------------------------------------


def test_sphere_constraint_exact():
    rng = np.random.default_rng(7)
    for F, gamma in [(2, 0.0), (3, 1.0), (5, gamma_wigner(5))]:
        z = sample_sphere_batch(F, gamma, rng, 1)[0]
        assert abs(np.sum(0.5 * np.abs(z) ** 2) - (1.0 + F * gamma)) < 1e-12


@pytest.mark.parametrize("F", [1, 3, 8])
def test_sphere_batch_keeps_the_bits_of_the_one_line_draw(F):
    # reference: the polar draw as one expression, with its temporaries:
    # the actions, then the float32 phases, then the float64 norm
    for gamma in (0.25, np.linspace(0.0, 1.0, 500)):
        rng = np.random.default_rng(F)
        root = np.sqrt(rng.standard_exponential((500, F)))
        theta = rng.random((500, F), dtype=np.float32) * np.float32(2.0 * np.pi)
        w = root * np.cos(theta) + 1j * (root * np.sin(theta))
        norms = np.sqrt(np.einsum("ij,ij->i", w.view(np.float64), w.view(np.float64)))[:, None]
        want = w * (np.sqrt(2.0 * (1.0 + F * gamma))[..., None] / norms)
        got = sample_sphere_batch(F, gamma, np.random.default_rng(F), 500)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 7, 37, 2000])
def test_float32_trig_bits_do_not_depend_on_the_position_in_the_array(n):
    # The polar draw takes cos and sin of a block's float32 phases on
    # NumPy's SIMD loops; its group and thread invariance needs every
    # element to get the same bits alone and at any offset (alignment and
    # tail) of a longer array.
    rng = np.random.default_rng(n)
    theta = rng.random(n, dtype=np.float32) * np.float32(2.0 * np.pi)
    for fn in (np.cos, np.sin):
        alone = fn(theta)
        assert alone.dtype == np.float32
        for offset in range(17):
            longer = rng.random(offset + n + 13, dtype=np.float32) * np.float32(2.0 * np.pi)
            longer[offset:offset + n] = theta
            assert fn(longer)[offset:offset + n].tobytes() == alone.tobytes(), (fn, offset)


@pytest.mark.parametrize("F, gamma", [(1, 0.3), (2, gamma_wigner(2)), (8, 0.1)])
def test_polar_draw_has_the_uniform_sphere_moments(F, gamma):
    # 10^6 draws: the actions a = |z|^2 / R^2 are uniform on the simplex,
    # E[a_j] = 1/F, E[a_j^2] = 2/(F(F+1)), E[a_i a_j] = 1/(F(F+1)), and the
    # uniform phases give E[z_a z_b] = 0 and E[z_a conj(z_b)] = 0 for a != b
    N, chunk, R2 = 10**6, 2 * 10**5, 2.0 * (1.0 + F * gamma)
    rng = np.random.default_rng(40 + F)
    sums = dict(a=0.0, aa=0.0, a2a2=0.0, zz=0.0, zzc=0.0)
    for _ in range(N // chunk):
        z = sample_sphere_batch(F, gamma, rng, chunk)
        a = np.abs(z) ** 2 / R2
        assert np.max(np.abs(np.sum(np.abs(z) ** 2, axis=1) - R2)) <= 1e-12
        sums["a"] += a.sum(axis=0)
        sums["aa"] += a.T @ a
        sums["a2a2"] += (a**2).T @ a**2
        sums["zz"] += z.T @ z
        sums["zzc"] += z.T @ z.conj()
    mean = {k: v / N for k, v in sums.items()}
    off = ~np.eye(F, dtype=bool)

    def within(got, want, second):
        se = np.sqrt(np.maximum(second - np.abs(got) ** 2, 0.0) / N)
        assert np.all(np.abs(got - want) <= 5.0 * se + 1e-12), (got, want, se)

    within(mean["a"], 1.0 / F, np.diag(mean["aa"]))
    within(np.diag(mean["aa"]), 2.0 / (F * (F + 1)), np.diag(mean["a2a2"]))
    within(mean["aa"][off], 1.0 / (F * (F + 1)), mean["a2a2"][off])
    within(mean["zz"], 0.0, R2**2 * mean["aa"])
    within(mean["zzc"][off], 0.0, R2**2 * mean["aa"][off])


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
    sig = gdtwa_signature(4)
    Z = sample_stiefel(sig, np.random.default_rng(5), 20)
    assert Z.shape == (20, 2, 4)
    # the Gram matrix z_i^dagger z_j is diag(2|lambda_i + gamma|)
    dev = np.conj(Z) @ np.swapaxes(Z, -1, -2) - np.diag(sig.frame_radii_sq())
    assert np.max(np.abs(dev)) < 1e-10, dev
    # frame norms are the shifted eigenvalue magnitudes
    e = np.sum(0.5 * np.abs(Z) ** 2, axis=-1)
    assert np.allclose(2.0 * e, sig.frame_radii_sq())


def test_stiefel_matches_sphere_for_r1():
    sig = cmm_signature(2, 0.3)
    Z = sample_stiefel(sig, np.random.default_rng(6), 1)[0]
    assert Z.shape == (1, 2)
    assert abs(np.sum(0.5 * np.abs(Z) ** 2) - 1.6) < 1e-12


@pytest.mark.parametrize(
    "sig", [gdtwa_signature(3), gdtwa_signature(4), cmm_signature(3, 0.4)], ids=["gdtwa3", "gdtwa4", "cmm3"]
)
def test_stiefel_batch_constraints_and_second_moments(sig):
    # every point meets conj(Z) Z^T = diag(2|lambda_i + gamma|), and Haar
    # frames have E[z_i z_i^dagger] = (R_i^2 / F) I with R_i^2 = 2|lambda_i + gamma|
    F, r, N = sig.F, sig.r, 40000
    Z = sample_stiefel(sig, np.random.default_rng(31), N)
    assert Z.shape == (N, r, F)
    radii_sq = sig.frame_radii_sq()
    gram = np.conj(Z) @ np.swapaxes(Z, -1, -2)
    assert np.max(np.abs(gram - np.diag(radii_sq))) <= 1e-10
    for i in range(r):
        prods = Z[:, i, :, None] * np.conj(Z[:, i, None, :])
        mean = prods.mean(axis=0)
        se = np.sqrt(prods.real.var(axis=0, ddof=1) + prods.imag.var(axis=0, ddof=1)) / math.sqrt(N)
        dev = np.abs(mean - (radii_sq[i] / F) * np.eye(F))
        off = ~np.eye(F, dtype=bool)
        assert np.all(dev[~off] <= 5 * se[~off]), (i, dev, se)
        assert np.all(dev[off] <= 5 * se[off]), (i, dev, se)


def test_stiefel_rejects_r0():
    sig = StiefelSignature(2, (0.5, 0.5), 0, -0.5, ())
    with pytest.raises(ValueError, match="r >= 1"):
        sample_stiefel(sig, np.random.default_rng(0), 3)


@settings(max_examples=30, deadline=None)
@given(
    F=st.integers(min_value=2, max_value=5),
    gshift=st.floats(min_value=0.05, max_value=2.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sphere_sampler_property(F, gshift, seed):
    # any admissible gamma gives a point exactly on its shell
    gamma = -1.0 / F + gshift
    e = 0.5 * np.abs(sample_sphere_batch(F, gamma, np.random.default_rng(seed), 1)[0]) ** 2
    assert abs(np.sum(e) - (1.0 + F * gamma)) < 1e-10
    assert np.all(e >= 0.0)
