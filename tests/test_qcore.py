"""Eigendecomposition, propagators, and the exact correlation reference."""

import numpy as np
import pytest
import scipy.linalg

from cpsmap.qcore import (
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


def test_eig_of_a_stack_equals_each_matrix_on_its_own():
    Hs = np.stack([random_hermitian(4, seed=s, scale=10.0 ** (s - 3)) for s in range(6)])
    dec = hermitian_eig(Hs.reshape(2, 3, 4, 4))
    assert dec.eigenvalues.shape == (2, 3, 4) and dec.dim == 4
    lams = dec.eigenvalues.reshape(6, 4)
    vecs = dec.eigenvectors.reshape(6, 4, 4)
    for H, lam, V in zip(Hs, lams, vecs):
        one = hermitian_eig(H)
        assert lam.tobytes() == one.eigenvalues.tobytes()
        assert V.tobytes() == one.eigenvectors.tobytes()
    assert np.max(np.abs(dec.reconstruct() - Hs.reshape(2, 3, 4, 4))) < 1e-9


def test_eig_of_a_stack_names_the_bad_matrix():
    Hs = np.stack([random_hermitian(3, seed=s) for s in range(4)])
    Hs[2, 0, 1] += 1e-6
    with pytest.raises(NonHermitianError, match=r"matrix\[2\] is not Hermitian: entries \(0, 1\)"):
        hermitian_eig(Hs)
    Hs[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(Hs)
    with pytest.raises(ValueError, match="square"):
        hermitian_eig(np.zeros((2, 3, 4)))


def test_require_hermitian_takes_one_matrix_only():
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 3, 3)))


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


def test_reconstruct_roundtrip_through_dataclass():
    H = random_hermitian(2, seed=31)
    dec = hermitian_eig(H)
    again = SpectralDecomposition(dec.eigenvalues, dec.eigenvectors)
    assert np.linalg.norm(again.reconstruct() - H) < 1e-10
    assert again.dim == 2
