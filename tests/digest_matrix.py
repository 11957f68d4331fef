"""One sha256 per case of a fixed matrix of estimate_tcf and intra_electron_check calls.

    python3 tests/digest_matrix.py [SRC] > digests.txt

imports cpsmap from SRC (default: this checkout's src) and prints one
line "<case> <sha256>" per case, so two checkouts give bitwise equal
results exactly when their outputs are equal:

    diff <(python3 tests/digest_matrix.py ../parent/src) <(python3 tests/digest_matrix.py)

The estimate cases are every family x F x n_traj x grid x backend x
thread count below.  Each case runs a list of three requests (mixed
density sides, valid for its family at its F) and a single call of the
list's second request, and hashes every result's estimates, standard
errors, normalization, zero_variance, min_numerator and MomentCheck
fields, or the error the call raises.  The intra-electron cases hash
the whole IntraElectronReport.  A summary goes to stderr.  The 3608
cases take about three minutes on a 2-core x86-64 machine; pytest does
not collect this file.
"""

import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).resolve().parents[1] / "src"))

from cpsmap.cps import GammaWeight, gamma_wigner  # noqa: E402
from cpsmap.estimators import MethodSpec, TCFRequest, estimate_tcf, intra_electron_check  # noqa: E402
from cpsmap.models import ModelSpec, build_hamiltonian  # noqa: E402

SEED = 2911
FS = (1, 2, 3, 5, 8)
N_TRAJ = (1, 7, 150, 5037, 200_000)
GRIDS = {"t1": np.array([0.7]), "t5": np.linspace(0.0, 2.0, 5)}
BACKENDS = ("exact", "rk4")
THREADS = (1, 2, 3)


def signed_comb(F, g2=0.2):
    """A two-node comb with a negative node at gamma = 0 that meets the exact mapping condition."""
    w2 = 1.0 / (F * g2 * g2 + 2.0 * g2)
    return GammaWeight.delta_comb([(0.0, 1.0 - w2), (g2, w2)])


def cmmcv_comb(F):
    """A signed three-sphere cmmcv comb with traceless parts h_c A, exact at every F >= 2."""
    A = np.diag(np.linspace(0.1, -0.1, F))
    g2 = (math.sqrt(1.0 + 5.0 * F / 6.0) - 1.0) / F
    return [(1.5, gamma_wigner(F) * np.eye(F) + A), (-0.6, g2 * np.eye(F) + 2.0 * A), (0.1, -3.0 * A)]


METHODS = {
    "cmm": lambda F: MethodSpec.cmm(gamma_wigner(F)),
    "wmm": lambda F: MethodSpec.wmm(signed_comb(F)),
    "cmmcv": lambda F: MethodSpec.cmmcv(cmmcv_comb(F)),
    "cornered_simplex": lambda F: MethodSpec.cornered_simplex(0.5),
    "triangle_sqc": lambda F: MethodSpec.triangle_sqc(),
    "ehrenfest": lambda F: MethodSpec.ehrenfest(),
    "lambda_point": lambda F: MethodSpec.lambda_point(0.5),
    "dtwa": lambda F: MethodSpec.dtwa(),
    "gdtwa": lambda F: MethodSpec.gdtwa(),
    "triangle_ww": lambda F: MethodSpec.triangle_ww(),
    "triangle_f2_single": lambda F: MethodSpec.triangle_f2_single(0.3),
    "hill_ww": lambda F: MethodSpec.hill_ww(0.2),
}


def pairs(family, F):
    """Three (n, m, k, l) valid for the family at F: ww families read populations only, cornered_simplex k = l."""
    two = min(2, F)
    if family in ("triangle_ww", "triangle_f2_single", "hill_ww"):
        return [(1, 1, F, F), (F, F, 1, 1), (1, 1, 1, 1)]
    if family == "cornered_simplex":
        return [(1, two, F, F), (F, F, 1, 1), (1, 1, two, two)]
    return [(1, two, two, 1), (two, two, 1, 1), (1, 1, F, two)]


def hamiltonian(F):
    return np.array([[0.3]], dtype=np.complex128) if F == 1 else build_hamiltonian(ModelSpec.random(F, seed=SEED + F))


def result_bytes(res):
    parts = [res.estimates, res.standard_errors, res.normalization, res.zero_variance, np.float64(res.min_numerator)]
    parts += [np.float64(x) for x in res.moment_check]
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


def report_bytes(rep):
    fields = (rep.lhs, rep.rhs, rep.rhs_se, rep.n_traj, rep.cubic_moment, rep.cubic_target, rep.cubic_satisfied)
    return np.array(fields, dtype=np.float64).tobytes()


def digest(call, to_bytes):
    """sha256 of call()'s results, each turned to bytes, or of the error it raises; and whether it returned."""
    try:
        results = call()
    except ValueError as err:
        return hashlib.sha256(f"ValueError: {err}".encode()).hexdigest(), False
    return hashlib.sha256(b"".join(map(to_bytes, results))).hexdigest(), True


def estimate_cases():
    for family, F, n_traj, grid, backend, threads in itertools.product(
        METHODS, FS, N_TRAJ, GRIDS, BACKENDS, THREADS
    ):
        def call(family=family, F=F, n_traj=n_traj, grid=grid, backend=backend, threads=threads):
            H, method = hamiltonian(F), METHODS[family](F)
            reqs = [
                TCFRequest(H, (n, m), (k, l), GRIDS[grid], n_traj, SEED, method,
                           backend=backend, dt=1e-2, n_threads=threads)
                for n, m, k, l in pairs(family, F)
            ]
            return [*estimate_tcf(reqs), estimate_tcf(reqs[1])]

        yield f"{family}/F{F}/n{n_traj}/{grid}/{backend}/th{threads}", call, result_bytes


def intra_cases():
    for F, n_traj in itertools.product((2, 3), (1, 7, 150, 5037)):
        def call(F=F, n_traj=n_traj):
            rho = np.zeros((F, F), dtype=np.complex128)
            rho[0, 0], rho[0, 1], rho[1, 0] = 0.6, 0.2 - 0.1j, 0.2 + 0.1j
            A = np.diag(np.arange(1.0, F + 1.0)).astype(np.complex128)
            return [intra_electron_check(signed_comb(F), hamiltonian(F), rho, A, n_traj, SEED)]

        yield f"intra_electron/F{F}/n{n_traj}", call, report_bytes


def main():
    counts = {True: 0, False: 0}
    for name, call, to_bytes in itertools.chain(estimate_cases(), intra_cases()):
        h, ok = digest(call, to_bytes)
        counts[ok] += 1
        print(name, h, flush=True)
    print(f"{counts[True] + counts[False]} cases: {counts[True]} returned, {counts[False]} raised", file=sys.stderr)


if __name__ == "__main__":
    main()
