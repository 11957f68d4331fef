"""Hamiltonian construction for finite F-state systems.

Built-in families (two-level, seeded random Hermitian, harmonic-like
ladder) plus a plain-text file format so externally produced matrices
can be loaded and written back losslessly.
"""

from dataclasses import dataclass, field

import numpy as np

from .qcore import require_hermitian


@dataclass(frozen=True)
class ModelSpec:
    """Specification of a model Hamiltonian."""

    kind: str
    params: dict = field(default_factory=dict)

    @staticmethod
    def two_level(delta, epsilon=0.0):
        """H = [[epsilon, delta], [delta, -epsilon]]."""
        return ModelSpec("two_level", {"delta": float(delta), "epsilon": float(epsilon)})

    @staticmethod
    def random(F, seed, scale=1.0):
        """Seeded dense random Hermitian matrix, scale * (G + G^dagger)/2."""
        if F < 2:
            raise ValueError("F must be at least 2")
        return ModelSpec("random", {"F": int(F), "seed": int(seed), "scale": float(scale)})

    @staticmethod
    def ladder(F, gap=1.0, coupling=0.1):
        """Equally spaced levels n*gap with nearest-neighbour coupling."""
        if F < 2:
            raise ValueError("F must be at least 2")
        return ModelSpec("ladder", {"F": int(F), "gap": float(gap), "coupling": float(coupling)})

    @staticmethod
    def from_file(path):
        return ModelSpec("file", {"path": str(path)})


def build_hamiltonian(spec):
    """Construct the Hermitian matrix described by a ModelSpec."""
    if spec.kind == "two_level":
        d = spec.params["delta"]
        e = spec.params.get("epsilon", 0.0)
        return np.array([[e, d], [d, -e]], dtype=np.complex128)
    if spec.kind == "random":
        F = spec.params["F"]
        rng = np.random.default_rng(spec.params["seed"])
        G = (rng.standard_normal((F, F)) + 1j * rng.standard_normal((F, F))) / np.sqrt(2.0)
        return spec.params.get("scale", 1.0) * 0.5 * (G + G.conj().T)
    if spec.kind == "ladder":
        F = spec.params["F"]
        levels = np.arange(1, F + 1, dtype=np.float64) * spec.params["gap"]
        H = np.diag(levels).astype(np.complex128)
        c = spec.params["coupling"]
        for n in range(F - 1):
            H[n, n + 1] = c
            H[n + 1, n] = c
        return H
    if spec.kind == "file":
        return load_hamiltonian(spec.params["path"])
    raise ValueError(f"unknown model kind {spec.kind!r}")


def load_hamiltonian(path):
    """Read a Hermitian matrix from a plain-text file.

    Format: '#' starts a comment (rest of line ignored), the first data
    line holds F, and the next F data lines each hold 2F floats giving
    the real and imaginary part of every entry of one row.  The matrix
    must pass require_hermitian, the contract of the core.
    """
    rows = []
    with open(path) as fh:
        raw = fh.readlines()
    data_lines = []
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            data_lines.append((lineno, text))
    if not data_lines:
        raise ValueError(f"{path}: no data lines found")
    lineno, text = data_lines[0]
    try:
        F = int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: expected the dimension F, got {text!r}") from None
    if F < 1:
        raise ValueError(f"{path}:{lineno}: F must be positive, got {F}")
    if len(data_lines) != 1 + F:
        raise ValueError(
            f"{path}: expected {F} matrix rows after the dimension line, "
            f"found {len(data_lines) - 1}"
        )
    for lineno, text in data_lines[1:]:
        parts = text.split()
        if len(parts) != 2 * F:
            raise ValueError(
                f"{path}:{lineno}: expected {2 * F} numbers (re im pairs), found {len(parts)}"
            )
        try:
            vals = [float(v) for v in parts]
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
        rows.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(F)])
    return require_hermitian(rows, name=str(path))


def save_hamiltonian(path, H):
    """Write a Hermitian matrix in the plain-text format of load_hamiltonian."""
    H = require_hermitian(H)
    F = H.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{F}\n")
        for row in H:
            fields = []
            for v in row:
                fields.append("%.17g %.17g" % (v.real, v.imag))
            fh.write(" ".join(fields) + "\n")
