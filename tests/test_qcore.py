"""Eigendecomposition, propagators, and the exact correlation reference."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsmap.qcore import (
    HERMITIAN_TOL,
    NonHermitianError,
    SpectralDecomposition,
    exact_tcf,
    hermitian_eig,
    propagator_from_decomposition,
    require_hermitian,
)


def random_hermitian(F, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((F, F)) + 1j * rng.standard_normal((F, F))
    return scale * 0.5 * (G + G.conj().T)


def test_require_hermitian_accepts_and_casts():
    H = require_hermitian([[1.0, 2.0], [2.0, -1.0]])
    assert H.dtype == np.complex128
    assert H.shape == (2, 2)


def test_require_hermitian_rejects_asymmetry():
    with pytest.raises(NonHermitianError, match="asymmetry"):
        require_hermitian([[0.0, 1.0], [0.0, 0.0]])


def passes_hermitian_check(H):
    try:
        require_hermitian(H)
    except NonHermitianError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    F=st.integers(2, 5),
    rel=st.sampled_from([0.0, 0.25, 0.5, 2.0, 4.0, 1e3]),
    k=st.integers(-6, 6),
)
def test_hermitian_tolerance_is_scale_relative(seed, F, rel, k):
    # max|H_ij| = 1e6 and an asymmetry of rel tolerances: every copy
    # 10^k H keeps max|H_ij| >= 1, so it passes or fails as H does
    H = random_hermitian(F, seed)
    H *= 1e6 / np.max(np.abs(H))
    H[F - 1, 0] += rel * HERMITIAN_TOL * 1e6
    assert passes_hermitian_check(10.0**k * H) == passes_hermitian_check(H) == (rel < 1.0)


def test_require_hermitian_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("F", [1, 2, 3, 5, 8])
def test_eig_reconstruction(F):
    H = random_hermitian(F, seed=F)
    dec = hermitian_eig(H)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    assert np.linalg.norm(dec.reconstruct() - H) < 1e-10
    V = dec.eigenvectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(F))) < 1e-10


def test_eig_phase_convention_is_deterministic():
    H = random_hermitian(4, seed=9)
    V1 = hermitian_eig(H).eigenvectors
    V2 = hermitian_eig(H.copy()).eigenvectors
    assert np.array_equal(V1, V2)
    # leading max-modulus component of each column is real nonnegative
    lead = V1[np.argmax(np.abs(V1), axis=0), np.arange(4)]
    assert np.max(np.abs(lead.imag)) < 1e-14
    assert np.all(lead.real >= 0)


def test_require_hermitian_takes_one_matrix_only():
    for check in (require_hermitian, hermitian_eig):
        with pytest.raises(ValueError, match="square"):
            check(np.zeros((2, 3, 3)))
    H = random_hermitian(3, seed=2)
    H[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(H)


def test_propagator_zero_time_is_identity():
    H = random_hermitian(3, seed=1)
    U = propagator_from_decomposition(hermitian_eig(H), 0.0)
    assert np.max(np.abs(U - np.eye(3))) < 1e-14


def test_propagator_diagonal_case():
    H = np.diag([1.0, -1.0]).astype(complex)
    U = propagator_from_decomposition(hermitian_eig(H), np.pi)
    assert np.max(np.abs(U + np.eye(2))) < 1e-12


def test_propagator_offdiagonal_case():
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    U = propagator_from_decomposition(hermitian_eig(H), np.pi / 2)
    assert abs(abs(U[0, 1]) ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize("t", [0.3, 1.7, 10.0])
def test_propagator_matches_expm(t):
    # independent oracle: dense matrix exponential
    H = random_hermitian(4, seed=17)
    U = propagator_from_decomposition(hermitian_eig(H), t)
    ref = scipy.linalg.expm(-1j * H * t)
    assert np.max(np.abs(U - ref)) < 1e-11


def test_propagator_unitary_and_composes():
    H = random_hermitian(5, seed=3, scale=2.0)
    dec = hermitian_eig(H)
    U1 = propagator_from_decomposition(dec, 1.3)
    U2 = propagator_from_decomposition(dec, 0.9)
    U12 = propagator_from_decomposition(dec, 2.2)
    assert np.max(np.abs(U1 @ U1.conj().T - np.eye(5))) < 1e-12
    assert np.max(np.abs(U1 @ U2 - U12)) < 1e-12
    # a grid of times is one broadcast with the bits of each single-time build
    stack = propagator_from_decomposition(dec, np.array([1.3, 0.9, 2.2]))
    assert stack.shape == (3, 5, 5)
    assert stack.tobytes() == np.array([U1, U2, U12]).tobytes()


def test_exact_tcf_rabi():
    # H = delta*sigma_x: survival probability cos^2(delta t)
    delta = 0.7
    H = np.array([[0.0, delta], [delta, 0.0]])
    rho = np.array([[1.0, 0.0], [0.0, 0.0]])
    t = np.linspace(0.0, 8.0, 33)
    series = exact_tcf(rho, rho, H, t)
    assert np.max(np.abs(series - np.cos(delta * t) ** 2)) < 1e-12


def test_exact_tcf_state_transfer_elements():
    # non-Hermitian rho/A = |n><m| against the expm oracle
    H = random_hermitian(3, seed=23, scale=1.5)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 2] = 1.0  # |1><3|
    A = np.zeros((3, 3), dtype=complex)
    A[1, 0] = 1.0  # |2><1|
    t_grid = np.linspace(0.0, 5.0, 11)
    series = exact_tcf(rho, A, H, t_grid)
    for i, t in enumerate(t_grid):
        U = scipy.linalg.expm(-1j * H * t)
        ref = np.trace(rho @ U.conj().T @ A @ U)
        assert abs(series[i] - ref) < 1e-11


def test_exact_tcf_hermitian_inputs_give_real_series():
    H = random_hermitian(4, seed=5)
    rho = random_hermitian(4, seed=6)
    A = random_hermitian(4, seed=7)
    series = exact_tcf(rho, A, H, np.linspace(0.0, 4.0, 9))
    assert np.max(np.abs(series.imag)) < 1e-12


def test_exact_tcf_dimension_mismatch():
    H = random_hermitian(3, seed=2)
    with pytest.raises(ValueError, match="dimension"):
        exact_tcf(np.eye(2), np.eye(3), H, [0.0])
    with pytest.raises(ValueError, match="dimension"):
        exact_tcf(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), H, [0.0])


@pytest.mark.parametrize("F", [1, 2, 3, 8])
def test_exact_tcf_of_stacks_equals_each_pair_on_its_own(F):
    H = random_hermitian(F, seed=40 + F, scale=2.0)
    rng = np.random.default_rng(F)
    rho = rng.normal(size=(5, F, F)) + 1j * rng.normal(size=(5, F, F))
    A = rng.normal(size=(5, F, F)) + 1j * rng.normal(size=(5, F, F))
    t_grid = np.linspace(0.0, 10.0, 21)
    series = exact_tcf(rho, A, H, t_grid)
    assert series.shape == (5, 21)
    for i in range(5):
        assert series[i].tobytes() == exact_tcf(rho[i], A[i], H, t_grid).tobytes()


def test_reconstruct_roundtrip_through_dataclass():
    H = random_hermitian(2, seed=31)
    dec = hermitian_eig(H)
    again = SpectralDecomposition(dec.eigenvalues, dec.eigenvectors)
    assert np.linalg.norm(again.reconstruct() - H) < 1e-10
    assert again.dim == 2
