"""Model Hamiltonian construction and text-file round trips."""

import numpy as np
import pytest

from cpsmap.models import ModelSpec, build_hamiltonian, load_hamiltonian, save_hamiltonian
from cpsmap.qcore import HERMITIAN_TOL, NonHermitianError, require_hermitian


def test_two_level():
    H = build_hamiltonian(ModelSpec.two_level(0.7, epsilon=0.2))
    assert np.allclose(H, [[0.2, 0.7], [0.7, -0.2]])
    assert H.dtype == np.complex128


def test_random_is_seeded_and_hermitian():
    a = build_hamiltonian(ModelSpec.random(4, seed=11))
    b = build_hamiltonian(ModelSpec.random(4, seed=11))
    c = build_hamiltonian(ModelSpec.random(4, seed=12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(a - a.conj().T)) < 1e-14


def test_random_scale_is_linear():
    a = build_hamiltonian(ModelSpec.random(3, seed=2, scale=1.0))
    b = build_hamiltonian(ModelSpec.random(3, seed=2, scale=2.5))
    assert np.allclose(b, 2.5 * a)


def test_random_rejects_small_dimension():
    with pytest.raises(ValueError, match="at least 2"):
        ModelSpec.random(1, seed=0)


def test_ladder():
    H = build_hamiltonian(ModelSpec.ladder(3, gap=0.5, coupling=0.1))
    assert np.allclose(np.diag(H).real, [0.5, 1.0, 1.5])
    assert H[0, 1] == H[1, 0] == 0.1
    assert H[0, 2] == 0.0


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown model kind"):
        build_hamiltonian(ModelSpec("banana"))


def test_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = 0.5 * (G + G.conj().T)
    path = tmp_path / "h.txt"
    save_hamiltonian(path, H)
    back = load_hamiltonian(path)
    assert np.max(np.abs(back - H)) < 1e-15
    via_spec = build_hamiltonian(ModelSpec.from_file(path))
    assert np.array_equal(via_spec, back)


def test_file_comments_and_blank_lines(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text(
        "# two level system\n"
        "2\n"
        "\n"
        "0 0  1 0   # row 1\n"
        "1 0  0 0\n"
    )
    H = load_hamiltonian(path)
    assert np.allclose(H, [[0, 1], [1, 0]])


def test_file_rejects_non_hermitian(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("2\n0 0 1 0\n2 0 0 0\n")
    with pytest.raises(ValueError, match=r"\(0, 1\).*\(1, 0\)"):
        load_hamiltonian(path)
    # an asymmetry the core rejects must not load either
    path.write_text("2\n0 0 1 0\n1.00000000005 0 0 0\n")
    with pytest.raises(ValueError, match="not Hermitian"):
        load_hamiltonian(path)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("rel", [0.5, 2.0])
def test_file_and_core_share_the_scaled_hermitian_tolerance(tmp_path, scale, rel):
    # an asymmetry of rel tolerances at the matrix's own scale max(1, max|H_ij|)
    H = scale * np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    H[1, 0] += rel * HERMITIAN_TOL * max(1.0, 2.0 * scale)
    path = tmp_path / "h.txt"
    rows = (" ".join("%.17g %.17g" % (v.real, v.imag) for v in row) for row in H)
    path.write_text("2\n" + "\n".join(rows) + "\n")

    def accepts(check, arg):
        try:
            check(arg)
        except NonHermitianError:
            return False
        return True

    assert accepts(require_hermitian, H) == accepts(load_hamiltonian, path) == (rel < 1.0)


def test_file_rejects_non_finite_entry(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("2\n0 0 nan 0\nnan 0 0 0\n")
    with pytest.raises(ValueError, match="h.txt.*non-finite"):
        load_hamiltonian(path)


def test_file_reports_malformed_line(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("2\n0 0 1 0\n1 0 0\n")
    with pytest.raises(ValueError, match="h.txt:3"):
        load_hamiltonian(path)


def test_file_reports_wrong_row_count(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("3\n0 0 0 0 0 0\n")
    with pytest.raises(ValueError, match="expected 3 matrix rows"):
        load_hamiltonian(path)


def test_file_rejects_bad_dimension_line(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("two\n")
    with pytest.raises(ValueError, match="expected the dimension"):
        load_hamiltonian(path)


def test_file_rejects_empty(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no data"):
        load_hamiltonian(path)
