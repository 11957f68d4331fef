"""The benchmark's workloads: generated inputs, the timed call, and checks.

Every input is made from the workload seed, which sets the random model's
seed and the estimator seed.  The package is imported only inside
``setup`` so that a set-up timing includes the import.  ``tracer`` is a
``spans.Tracer`` or None; with one, the calls the benchmark makes into
the package are recorded as spans as well.
"""

import importlib
import math
from contextlib import nullcontext

SE_MULTIPLE = 6.0
# Points with zero variance (exact by construction) are allowed this much.
ABS_FLOOR = 1e-12

CLI_PAIRS = (((1, 1), (1, 1)), ((1, 1), (2, 2)), ((1, 2), (2, 1)), ((2, 2), (1, 1)))


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


class LibraryWorkload:
    """One ``estimate_tcf`` call on a random model."""

    def __init__(self, name, F, pair, method, backend, n_traj, t_max, n_times, dt=1e-3):
        self.name = name
        self.F = F
        self.pairs = (pair,)
        self.method = method
        self.backend = backend
        self.n_traj = n_traj
        self.t_max = t_max
        self.n_times = n_times
        self.dt = dt
        self.threads = 1

    def setup(self, seed, out_dir, tracer=None):
        np = importlib.import_module("numpy")
        cps = importlib.import_module("cpsmap.cps")
        est = importlib.import_module("cpsmap.estimators")
        models = importlib.import_module("cpsmap.models")
        with _span(tracer, "models.build_hamiltonian"):
            self.H = models.build_hamiltonian(models.ModelSpec.random(self.F, seed))
        self.t_grid = np.linspace(0.0, self.t_max, self.n_times)
        if self.method == "cmm":
            spec = est.MethodSpec.cmm(cps.gamma_wigner(self.F))
        else:
            spec = est.MethodSpec.gdtwa()
        (n, m), (k, l) = self.pairs[0]
        self.request = est.TCFRequest(
            self.H, (n, m), (k, l), self.t_grid, self.n_traj, seed, spec,
            backend=self.backend, dt=self.dt, n_threads=self.threads,
        )

    def run(self, tracer=None):
        """The timed region; returns [(pair, estimates, standard_errors)]."""
        est = importlib.import_module("cpsmap.estimators")
        with _span(tracer, "estimators.estimate_tcf"):
            res = est.estimate_tcf(self.request)
        return [(self.pairs[0], res.estimates, res.standard_errors)], True

    def reference_inputs(self):
        return self.H, self.t_grid


class CliWorkload:
    """In-process ``cpsmap run`` of a generated multi-pair config."""

    def __init__(self, name, F, n_traj, t_max, n_times, threads):
        self.name = name
        self.F = F
        self.pairs = CLI_PAIRS
        self.n_traj = n_traj
        self.t_max = t_max
        self.n_times = n_times
        self.threads = threads

    def config_text(self, seed):
        pairs = "; ".join(f"{n},{m},{k},{l}" for (n, m), (k, l) in self.pairs)
        return "\n".join([
            "model.kind = random",
            f"model.F = {self.F}",
            f"model.seed = {seed}",
            "method.family = cmm",
            f"tcf.pairs = {pairs}",
            f"tcf.t_max = {self.t_max}",
            f"tcf.n_times = {self.n_times}",
            f"tcf.n_traj = {self.n_traj}",
            f"tcf.seed = {seed}",
            f"tcf.threads = {self.threads}",
        ]) + "\n"

    def write_config(self, seed, out_dir):
        """Write the generated config; done before any set-up timing."""
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{self.name}-{seed}.cfg"
        path.write_text(self.config_text(seed))

    def setup(self, seed, out_dir, tracer=None):
        cli = importlib.import_module("cpsmap.cli")
        path = out_dir / f"{self.name}-{seed}.cfg"
        with _span(tracer, "cli.load_config"):
            self.cfg = cli.load_config(path, {"out": str(out_dir / self.name)})
        self.H = None
        self.t_grid = None

    def run(self, tracer=None):
        """The timed region; returns the estimates read back from results.csv."""
        cli = importlib.import_module("cpsmap.cli")
        with _span(tracer, "cli.run_experiment"):
            summary = cli.run_experiment(self.cfg)
        return _read_results(summary.results_path, self.pairs), summary.exit_code == 0

    def reference_inputs(self):
        if self.H is None:
            models = importlib.import_module("cpsmap.models")
            self.H = models.build_hamiltonian(self.cfg.model)
            self.t_grid = self.cfg.t_grid()
        return self.H, self.t_grid


def _read_results(path, pairs):
    np = importlib.import_module("numpy")
    rows = {}
    header = None
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if header is None:
            header = {name: i for i, name in enumerate(fields)}
            continue
        key = tuple(int(fields[header[c]]) for c in ("n", "m", "k", "l"))
        est = complex(float(fields[header["estimate_re"]]), float(fields[header["estimate_im"]]))
        rows.setdefault(key, []).append((est, float(fields[header["se"]])))
    out = []
    for (n, m), (k, l) in pairs:
        got = rows.get((n, m, k, l), [])
        out.append((
            ((n, m), (k, l)),
            np.array([e for e, _ in got], dtype=np.complex128),
            np.array([s for _, s in got], dtype=np.float64),
        ))
    return out


WORKLOADS = {
    # Batched (nb,1,F)@(F,F) matmul, evaluation, jackknife and the sphere
    # sampler; never reaches rk4, the validations or the CLI.
    "exact_cc": LibraryWorkload(
        "exact_cc", F=8, pair=((1, 2), (2, 1)), method="cmm", backend="exact",
        n_traj=200_000, t_max=10.0, n_times=21,
    ),
    # rk4 time-march: per-block small-array Python overhead; bypasses the
    # exact propagators.
    "rk4_xc": LibraryWorkload(
        "rk4_xc", F=3, pair=((1, 2), (2, 1)), method="gdtwa", backend="rk4",
        n_traj=5_000, t_max=1.0, n_times=21, dt=1e-2,
    ),
    # Four ensembles per run, O(n F^2) validations, CSV and manifest writes
    # and the two-thread pool.
    "cli_multipair": CliWorkload(
        "cli_multipair", F=8, n_traj=100_000, t_max=10.0, n_times=21, threads=2,
    ),
}


def check(wl, outputs):
    """Count the points whose estimate misses exact_tcf; returns (points, failed)."""
    np = importlib.import_module("numpy")
    qcore = importlib.import_module("cpsmap.qcore")
    H, t_grid = wl.reference_inputs()
    failed = 0
    for ((n, m), (k, l)), est, se in outputs:
        if est.shape != t_grid.shape or se.shape != t_grid.shape:
            failed += wl.n_times
            continue
        rho = np.zeros((wl.F, wl.F), dtype=np.complex128)
        rho[n - 1, m - 1] = 1.0
        A = np.zeros((wl.F, wl.F), dtype=np.complex128)
        A[k - 1, l - 1] = 1.0
        ref = qcore.exact_tcf(rho, A, H, t_grid)
        for e, s, r in zip(est, se, ref):
            finite = math.isfinite(e.real) and math.isfinite(e.imag) and math.isfinite(s)
            if not finite or abs(e - r) > SE_MULTIPLE * s + ABS_FLOOR:
                failed += 1
    return wl.n_times * len(wl.pairs), failed
