"""End-to-end acceptance checks for the whole package.

Each test prints one [criterion N] PASS/FAIL line (run with -s to see
them) and asserts the same condition, so the suite is green exactly when
every criterion holds.  Statistical checks use 5 standard errors plus a
small floor; algebraic checks use 1e-9..1e-12.
"""

import math
import time

import numpy as np

from cpsmap.cli import ExperimentConfig, convergence_study, run_experiment
from cpsmap.cps import GammaWeight, gamma_wigner, sample_sphere_batch
from cpsmap.estimators import (
    MethodSpec,
    TCFRequest,
    _mapping_tensor,
    estimate_tcf,
    intra_electron_check,
)
from cpsmap.kernels import gdtwa_points, inverse_kernel_coefficients, kernel_entries
from cpsmap.dynamics import _rk4_arrays, grid_march
from cpsmap.models import ModelSpec, build_hamiltonian
from cpsmap.qcore import exact_tcf, hermitian_eig


def _report(num, name, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _projector(F, n, m):
    M = np.zeros((F, F), dtype=complex)
    M[n - 1, m - 1] = 1.0
    return M


# weights satisfying the exact-mapping moment condition
A2 = (3.0 + math.sqrt(33.0)) / 4.0
G2 = (A2 - 1.0) / 2.0
W2 = 2.0 / (A2 * A2 - 1.0)
COMB_F2 = GammaWeight.delta_comb([(0.0, 1.0 - W2), (G2, W2)])
COMB_F3 = GammaWeight.delta_comb([(0.0, 3.0 / 7.0), (0.5, 4.0 / 7.0)])


def test_exact_mapping_condition():
    """F E[K_mn Kinv_lk] = delta_mk delta_nl, Monte Carlo and closed form.

    The closed form here is the reference for the library's
    _mapping_tensor, which the CLI's exact-mapping check evaluates.
    """
    t0 = time.perf_counter()
    n_samples = 1_000_000
    chunk = 20_000
    worst = 0.0
    for F in (2, 3):
        eye = np.eye(F)
        target = np.einsum("mk,nl->mnlk", eye, eye)
        for gamma in (0.0, gamma_wigner(F), 1.0):
            c1 = (1.0 + F) / (2.0 * (1.0 + F * gamma) ** 2)
            c2 = (1.0 - gamma) / (1.0 + F * gamma)
            radius_sq = 2.0 * (1.0 + F * gamma)

            # closed form from the sphere moments
            m2 = 2.0 * (1.0 + F * gamma) / F
            m4 = 4.0 * (1.0 + F * gamma) ** 2 / (F * (F + 1.0))
            diag = np.einsum("mn,lk->mnlk", eye, eye)
            cross = np.einsum("mk,nl->mnlk", eye, eye)
            closed = F * (
                0.5 * c1 * m4 * (diag + cross)
                - (0.5 * c2 * m2 + gamma * c1 * m2 - gamma * c2) * diag
            )
            assert np.max(np.abs(closed - target)) < 1e-12
            shared = _mapping_tensor(F, [(1.0, gamma * eye, c1, c2 * eye)])
            assert np.max(np.abs(shared - closed)) < 1e-12

            rng = np.random.default_rng(2024)
            s1 = np.zeros((F, F, F, F), dtype=complex)
            s2r = np.zeros((F, F, F, F))
            s2i = np.zeros((F, F, F, F))
            first_z = None
            for _ in range(n_samples // chunk):
                w = rng.standard_normal((chunk, 2 * F))
                z = w[:, :F] + 1j * w[:, F:]
                z *= np.sqrt(radius_sq) / np.linalg.norm(z, axis=1, keepdims=True)
                if first_z is None:
                    first_z = z[0].copy()
                zz = z[:, :, None] * z[:, None, :].conj()
                A = 0.5 * zz - gamma * eye
                B = c1 * zz - c2 * eye
                X = F * A[:, :, :, None, None] * B[:, None, None, :, :]
                s1 += X.sum(axis=0)
                s2r += (X.real**2).sum(axis=0)
                s2i += (X.imag**2).sum(axis=0)

            # the vectorized kernels match the library evaluators
            lib_c1, lib_c2 = inverse_kernel_coefficients(F, gamma)
            K_lib = kernel_entries(first_z[None, :], gamma=gamma)
            Ki_lib = kernel_entries(first_z[None, :], gamma=lib_c2, weights=lib_c1)
            zz0 = np.outer(first_z, first_z.conj())
            assert np.max(np.abs(K_lib - (0.5 * zz0 - gamma * eye))) < 1e-12
            assert np.max(np.abs(Ki_lib - (c1 * zz0 - c2 * eye))) < 1e-12

            mean = s1 / n_samples
            var_r = np.maximum(s2r / n_samples - mean.real**2, 0.0)
            var_i = np.maximum(s2i / n_samples - mean.imag**2, 0.0)
            se_r = np.sqrt(var_r / n_samples)
            se_i = np.sqrt(var_i / n_samples)
            dev_r = np.abs(mean.real - target)
            dev_i = np.abs(mean.imag)
            assert np.all(dev_r <= 5.0 * se_r + 1e-12)
            assert np.all(dev_i <= 5.0 * se_i + 1e-12)
            with np.errstate(invalid="ignore", divide="ignore"):
                sig = np.where(se_r > 0, dev_r / np.maximum(se_r, 1e-300), 0.0)
            worst = max(worst, float(np.max(sig)))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "exact mapping condition",
        elapsed < 60.0,
        f"worst deviation {worst:.2f} SE, {elapsed:.1f}s",
    )


# (family label, F, rho pair, obs pair); ww entries are F=2 only, where
# the single-sphere transform makes the estimator exact
FROZEN_MATRIX = [
    ("cmm", 2, (1, 1), (1, 1)),
    ("cmm", 2, (1, 2), (2, 1)),
    ("cmm", 3, (1, 1), (2, 2)),
    ("wmm", 2, (1, 1), (2, 2)),
    ("wmm", 3, (1, 1), (1, 1)),
    ("cmmcv", 2, (1, 1), (2, 2)),
    ("cmmcv", 3, (1, 1), (1, 1)),
    ("cornered_simplex", 2, (1, 1), (2, 2)),
    ("cornered_simplex", 3, (1, 2), (2, 2)),
    ("triangle_sqc", 2, (1, 1), (2, 2)),
    ("triangle_sqc", 3, (1, 1), (2, 2)),
    ("ehrenfest", 2, (1, 1), (1, 2)),
    ("ehrenfest", 3, (1, 1), (2, 2)),
    ("lambda_point", 2, (1, 1), (2, 1)),
    ("lambda_point", 3, (1, 1), (2, 2)),
    ("dtwa", 2, (1, 1), (2, 2)),
    ("gdtwa", 2, (1, 1), (1, 1)),
    ("gdtwa", 3, (1, 1), (2, 2)),
    ("triangle_ww", 2, (1, 1), (2, 2)),
    ("triangle_f2_single", 2, (1, 1), (2, 2)),
    ("hill_ww", 2, (1, 1), (2, 2)),
]


def _method_for(name, F):
    if name == "cmm":
        return MethodSpec.cmm(gamma_wigner(F))
    if name == "wmm":
        return MethodSpec.wmm(COMB_F2 if F == 2 else COMB_F3)
    if name == "cmmcv":
        return MethodSpec.cmmcv([(1.0, gamma_wigner(F) * np.eye(F))])
    if name == "cornered_simplex":
        return MethodSpec.cornered_simplex(1.0)
    if name == "lambda_point":
        return MethodSpec.lambda_point(gamma_wigner(F))
    return getattr(MethodSpec, name)()


def test_frozen_nuclei_exactness():
    """Every family tracks the exact correlation function at N=1e6."""
    t0 = time.perf_counter()
    t_grid = np.linspace(0.0, 10.0, 21)
    worst = ("", 0.0)
    for idx, (name, F, rho, obs) in enumerate(FROZEN_MATRIX):
        H = build_hamiltonian(ModelSpec.random(F, seed=42))
        req = TCFRequest(
            hamiltonian=H,
            rho_indices=rho,
            obs_indices=obs,
            t_grid=t_grid,
            n_traj=1_000_000,
            seed=1000 + idx,
            method=_method_for(name, F),
        )
        res = estimate_tcf(req)
        ref = exact_tcf(_projector(F, *rho), _projector(F, *obs), H, t_grid)
        err = np.abs(res.estimates - ref)
        bound = 5.0 * res.standard_errors + 1e-3
        ratio = float(np.max(err / bound))
        if ratio > worst[1]:
            worst = (f"{name} F={F}", ratio)
        assert np.all(err <= bound), f"{name} F={F} max err {np.max(err):.2e}"
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "frozen-nuclei exactness for all families",
        elapsed < 600.0,
        f"{len(FROZEN_MATRIX)} runs, worst {worst[0]} at {worst[1]:.2f} of bound, {elapsed:.0f}s",
    )


def test_kernel_spectra():
    """CMM and (G)DTWA kernel spectra match the closed forms."""
    worst = 0.0
    for F in range(2, 7):
        rng = np.random.default_rng(F)
        for gamma in (0.0, gamma_wigner(F), 1.0, 2.5):
            K = kernel_entries(sample_sphere_batch(F, gamma, rng, 1), gamma=gamma)
            lam = hermitian_eig(K).eigenvalues
            expect = np.sort(np.array([-gamma] * (F - 1) + [1.0 + (F - 1) * gamma]))
            worst = max(worst, float(np.max(np.abs(lam - expect))))
        root = math.sqrt(2.0 * F - 1.0)
        expect = np.sort(
            np.array([(1.0 - root) / 2.0] + [0.0] * (F - 2) + [(1.0 + root) / 2.0])
        )
        for K in gdtwa_points(F, 1).kernel_values:
            lam = hermitian_eig(K).eigenvalues
            worst = max(worst, float(np.max(np.abs(lam - expect))))
    _report(3, "kernel spectra", worst < 1e-10, f"max deviation {worst:.1e}")


def test_kernel_covariance():
    """K(g.X) = g K(X) g^dagger over random unitaries and points."""
    worst = 0.0
    rng = np.random.default_rng(12)
    for F in (2, 3, 4):
        for _ in range(100):
            gamma = rng.uniform(-1.0 / F + 0.05, 2.5)
            z = sample_sphere_batch(F, gamma, rng, 1)[0]
            G = rng.standard_normal((F, F)) + 1j * rng.standard_normal((F, F))
            Q, R = np.linalg.qr(G)
            g = Q * (np.diag(R) / np.abs(np.diag(R)))[None, :]
            K = kernel_entries(z[None, :], gamma=gamma)
            Kg = kernel_entries((g @ z)[None, :], gamma=gamma)
            worst = max(worst, float(np.max(np.abs(Kg - g @ K @ g.conj().T))))
    _report(4, "kernel covariance", worst < 1e-9, f"max deviation {worst:.1e}")


def test_trajectory_invariants():
    """Exact and rk4 backends hold the invariants; rk4 is 4th order."""
    # a single-frame trajectory's drift, read off the maps: the norm and
    # H_C residuals are the quadratic forms of U^dagger U - I and
    # U^dagger H U - H at its starting frame
    H3 = build_hamiltonian(ModelSpec.random(3, seed=42))
    rabi = np.array([[0.0, 1.0], [1.0, 0.0]])
    drifts = []
    for H, z, backend in (
        (H3, sample_sphere_batch(3, 0.6, np.random.default_rng(5), 1)[0], "exact"),
        (rabi, sample_sphere_batch(2, 0.0, np.random.default_rng(6), 1)[0], "rk4"),
    ):
        U = grid_march(H, np.linspace(0.5, 10.0, 20), backend, 1e-3)
        Ud = np.conj(np.swapaxes(U, -1, -2))
        norm = z.conj() @ (Ud @ U - np.eye(z.size)) @ z
        energy = 0.5 * z.conj() @ (Ud @ H @ U - H) @ z
        drifts.append(max(np.max(np.abs(norm)), np.max(np.abs(energy))))
    exact_drift, rk4_drift = drifts

    Z = sample_sphere_batch(2, 0.5, np.random.default_rng(3), 1)
    Hq = np.array([[0.3, 0.8 - 0.2j], [0.8 + 0.2j, -0.5]])
    ref = Z @ grid_march(Hq, [1.0])[0].T

    def err(dt):
        x, p = _rk4_arrays(Z.real, Z.imag, (1,), Hq, dt, round(1.0 / dt))
        return max(np.max(np.abs(x - ref.real)), np.max(np.abs(p - ref.imag)))

    ratio = err(0.05) / err(0.025)
    ok = exact_drift < 1e-10 and rk4_drift < 1e-6 and 14.0 <= ratio <= 18.0
    _report(
        5,
        "trajectory invariants and rk4 order",
        ok,
        f"exact drift {exact_drift:.1e}, rk4 drift {rk4_drift:.1e}, order ratio {ratio:.2f}",
    )


def _ww_population_runs(name, F, n_traj, seed):
    H = build_hamiltonian(ModelSpec.random(F, seed=42))
    t_grid = np.linspace(0.0, 10.0, 21)
    method = _method_for(name, F)
    reqs = [
        TCFRequest(
            hamiltonian=H,
            rho_indices=(1, 1),
            obs_indices=(m, m),
            t_grid=t_grid,
            n_traj=n_traj,
            seed=seed,
            method=method,
        )
        for m in range(1, F + 1)
    ]
    return estimate_tcf(reqs)


def test_ww_positivity_and_normalization():
    """ww numerators are nonnegative and populations sum to one exactly."""
    runs = _ww_population_runs("triangle_ww", 3, 1_000_000, seed=21)
    min_num = min(r.min_numerator for r in runs)
    total = sum(r.estimates for r in runs)
    sum_dev = float(np.max(np.abs(total - 1.0)))

    hill = _ww_population_runs("hill_ww", 3, 1_000_000, seed=22)
    hill_min = min(r.min_numerator for r in hill)
    hill_dev = float(np.max(np.abs(sum(r.estimates for r in hill) - 1.0)))

    ok = min_num >= 0.0 and hill_min >= 0.0 and sum_dev < 1e-12 and hill_dev < 1e-12
    _report(
        6,
        "ww positivity and exact normalization",
        ok,
        f"min numerator {min_num:.2e}/{hill_min:.2e}, sum deviation {sum_dev:.1e}/{hill_dev:.1e}",
    )


def test_f2_transform_gamma_independence():
    """The two-level single-sphere transform does not depend on gamma."""
    H = build_hamiltonian(ModelSpec.random(2, seed=42))
    t_grid = np.linspace(0.0, 10.0, 21)
    results = []
    for gamma, seed in ((0.0, 31), (0.5, 32)):
        req = TCFRequest(
            hamiltonian=H,
            rho_indices=(1, 1),
            obs_indices=(2, 2),
            t_grid=t_grid,
            n_traj=200_000,
            seed=seed,
            method=MethodSpec.triangle_f2_single(gamma),
        )
        results.append(estimate_tcf(req))
    a, b = results
    diff = np.abs(a.estimates - b.estimates)
    bound = 5.0 * np.sqrt(a.standard_errors**2 + b.standard_errors**2) + 1e-12
    ok = bool(np.all(diff <= bound))
    _report(
        7,
        "gamma independence of the F=2 single-sphere transform",
        ok,
        f"max diff {np.max(diff):.2e}",
    )


def test_intra_electron_identity():
    """Self-dual weighted average reproduces (1/2)Tr[rho {A, H}]."""
    H = build_hamiltonian(ModelSpec.random(2, seed=42))
    rho = _projector(2, 1, 1)
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rep = intra_electron_check(COMB_F2, H, rho, A, n_traj=1_000_000, seed=41)
    dev = abs(rep.lhs - rep.rhs)
    ok = rep.cubic_satisfied and dev <= 5.0 * rep.rhs_se
    _report(
        8,
        "intra-electron correlation identity",
        ok,
        f"lhs {rep.lhs:.4f}, rhs {rep.rhs:.4f} +- {rep.rhs_se:.4f}",
    )


def test_monte_carlo_convergence_rate(tmp_path):
    """cmm error on the Rabi model shrinks like 1/sqrt(N)."""
    cfg = ExperimentConfig(
        ModelSpec.two_level(1.0),
        MethodSpec.cmm(gamma_wigner(2)),
        [((1, 1), (2, 2))],
        t_max=10.0,
        n_times=21,
        seed=7,
        out_dir=tmp_path,
    )
    report = convergence_study(cfg, [1_000, 10_000, 100_000, 1_000_000])
    ok = -0.6 <= report.slope <= -0.4
    _report(9, "Monte Carlo convergence rate", ok, f"slope {report.slope:.3f}")


def test_thread_determinism(tmp_path):
    """Same seed gives bitwise-identical results for any thread count."""
    outputs = []
    for threads, sub in ((1, "a"), (3, "b")):
        cfg = ExperimentConfig(
            ModelSpec.random(3, seed=4),
            MethodSpec.gdtwa(),
            [((1, 1), (1, 1)), ((1, 1), (2, 2))],
            t_max=5.0,
            n_times=11,
            n_traj=50_000,
            seed=99,
            threads=threads,
            out_dir=tmp_path / sub,
            validate_n_traj=50_000,
        )
        outputs.append(run_experiment(cfg))
    same = outputs[0].results_path.read_bytes() == outputs[1].results_path.read_bytes()
    ok = same and all(s.exit_code == 0 for s in outputs)
    _report(10, "bitwise determinism across thread counts", ok)
