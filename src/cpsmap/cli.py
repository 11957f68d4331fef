"""Experiment runner for correlation-function estimates.

Drives the estimator families end to end from a small key-value config:
build a Hamiltonian, estimate the requested correlation functions on a
time grid, compare against the dense exact reference, and emit plottable
CSV plus a run manifest.  Also hosts the validation suites (exact
mapping condition, the worst invariant drift over the sphere read off
the propagation maps, sphere-moment oracles) and the Monte Carlo
convergence study.

Config format: one `key = value` per line, '#' comments, dotted section
prefixes.  Recognized keys:

  model.kind        two_level | random | ladder | file
  model.delta, model.epsilon          (two_level)
  model.F, model.seed, model.scale    (random)
  model.F, model.gap, model.coupling  (ladder)
  model.path                          (file)
  method.family     cmm | wmm | cmmcv | cornered_simplex | triangle_sqc |
                    ehrenfest | lambda_point | dtwa | gdtwa | triangle_ww |
                    triangle_f2_single | hill_ww
  method.gamma      sphere parameter where the family takes one
  method.obs_gamma  shell | third    (triangle_sqc)
  method.weight     "triangle" or "gamma:weight; gamma:weight; ..."  (wmm)
  method.components "weight:gamma; ..." with Gamma = gamma*I  (cmmcv)
  tcf.pairs         "n,m,k,l; n,m,k,l; ..."   (default "1,1,1,1")
  tcf.t_max, tcf.n_times, tcf.n_traj, tcf.seed, tcf.backend, tcf.dt
  tcf.threads
  validate.exact_mapping, validate.drift, validate.moments   (true/false)
  validate.n_traj   sample size for the statistical validations (at least 2)

Exit status: 0 on success, 2 when an enabled validation fails, 1 on
usage or config errors.
"""

import argparse
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .cps import gamma_wigner, sample_sphere_batch
from .dynamics import grid_march
from .estimators import MethodSpec, TCFRequest, estimate_tcf
from .kernels import inverse_kernel_coefficients, kernel_entries
from .models import ModelSpec, build_hamiltonian
from .qcore import exact_tcf


class ConfigError(ValueError):
    """A config schema violation, carrying the offending key path."""


@dataclass
class ExperimentConfig:
    """Parsed experiment description."""

    model: ModelSpec
    method: MethodSpec
    pairs: list
    t_max: float = 10.0
    n_times: int = 21
    n_traj: int = 10000
    seed: int = 0
    backend: str = "exact"
    dt: float = 1e-3
    threads: int = 1
    out_dir: Path = Path(".")
    validate_exact_mapping: bool = True
    validate_drift: bool = True
    validate_moments: bool = True
    validate_n_traj: int = 200000
    method_text: str = ""
    model_text: str = ""

    def __post_init__(self):
        if self.n_times < 2:
            raise ConfigError("tcf.n_times: must be at least 2")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ConfigError(f"tcf.t_max: must be positive and finite, got {self.t_max!r}")
        if self.threads < 1:
            raise ConfigError(f"tcf.threads: must be at least 1, got {self.threads!r}")
        if self.validate_n_traj < 2:
            raise ConfigError("validate.n_traj: must be at least 2")

    def t_grid(self):
        return np.linspace(0.0, self.t_max, self.n_times)


@dataclass
class ValidationResult:
    name: str
    passed: bool
    detail: str


@dataclass
class RunSummary:
    results_path: Path
    manifest_path: Path
    n_rows: int
    max_error_over_se: float
    validations: list = field(default_factory=list)

    @property
    def exit_code(self):
        return 0 if all(v.passed for v in self.validations) else 2


@dataclass
class ConvergenceReport:
    n_traj_list: list
    max_errors: list
    slope: float
    path: Path


# ---------------------------------------------------------------------------
# config parsing


def parse_config_text(text):
    """Parse `key = value` lines into an ordered dict; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value
    return out


def _take(entries, key, default=None):
    return entries.pop(key, default)


def _as_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {value!r}") from None


def _as_int(key, value):
    try:
        return int(float(value)) if "e" in value.lower() else int(value)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {value!r}") from None


def _as_bool(key, value):
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: not a boolean: {value!r}")


def _build_model(entries):
    kind = _take(entries, "model.kind")
    if kind is None:
        raise ConfigError("model.kind: required")
    if kind == "two_level":
        delta = _as_float("model.delta", _take(entries, "model.delta", "1"))
        eps = _as_float("model.epsilon", _take(entries, "model.epsilon", "0"))
        spec = ModelSpec.two_level(delta, eps)
        text = f"two_level(delta={delta}, epsilon={eps})"
    elif kind == "random":
        F = _as_int("model.F", _take(entries, "model.F", "2"))
        seed = _as_int("model.seed", _take(entries, "model.seed", "0"))
        scale = _as_float("model.scale", _take(entries, "model.scale", "1"))
        spec = ModelSpec.random(F, seed, scale)
        text = f"random(F={F}, seed={seed}, scale={scale})"
    elif kind == "ladder":
        F = _as_int("model.F", _take(entries, "model.F", "2"))
        gap = _as_float("model.gap", _take(entries, "model.gap", "1"))
        coupling = _as_float("model.coupling", _take(entries, "model.coupling", "0.1"))
        spec = ModelSpec.ladder(F, gap, coupling)
        text = f"ladder(F={F}, gap={gap}, coupling={coupling})"
    elif kind == "file":
        path = _take(entries, "model.path")
        if path is None:
            raise ConfigError("model.path: required for model.kind = file")
        spec = ModelSpec.from_file(path)
        text = f"file({path})"
    else:
        raise ConfigError(f"model.kind: unknown kind {kind!r}")
    return spec, text


def _parse_pair_list(key, value):
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = [f.strip() for f in chunk.split(",")]
        if len(fields) != 4:
            raise ConfigError(f"{key}: expected 'n,m,k,l', got {chunk!r}")
        n, m, k, l = (_as_int(key, f) for f in fields)
        pairs.append(((n, m), (k, l)))
    if not pairs:
        raise ConfigError(f"{key}: empty pair list")
    return pairs


def _parse_weight(value, F):
    from .cps import GammaWeight

    value = value.strip()
    if value == "triangle":
        return GammaWeight.triangle(F)
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"method.weight: expected 'gamma:weight', got {chunk!r}")
        g, w = chunk.split(":", 1)
        pairs.append((_as_float("method.weight", g), _as_float("method.weight", w)))
    if not pairs:
        raise ConfigError("method.weight: empty weight list")
    return GammaWeight.delta_comb(pairs)


def _parse_components(value, F):
    comps = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"method.components: expected 'weight:gamma', got {chunk!r}")
        w, g = chunk.split(":", 1)
        comps.append(
            (_as_float("method.components", w), _as_float("method.components", g) * np.eye(F))
        )
    return comps


# family -> (MethodSpec constructor, the config key it reads or None,
# default for that key as a function of F, or None when the key is required)
_METHODS = {
    "cmm": (MethodSpec.cmm, "method.gamma", gamma_wigner),
    "wmm": (MethodSpec.wmm, "method.weight", None),
    "cmmcv": (MethodSpec.cmmcv, "method.components", None),
    "cornered_simplex": (MethodSpec.cornered_simplex, "method.gamma", lambda F: 1.0),
    "triangle_sqc": (MethodSpec.triangle_sqc, "method.obs_gamma", lambda F: "shell"),
    "ehrenfest": (MethodSpec.ehrenfest, None, None),
    "lambda_point": (MethodSpec.lambda_point, "method.gamma", gamma_wigner),
    "dtwa": (MethodSpec.dtwa, None, None),
    "gdtwa": (MethodSpec.gdtwa, None, None),
    "triangle_ww": (MethodSpec.triangle_ww, None, None),
    "triangle_f2_single": (MethodSpec.triangle_f2_single, "method.gamma", lambda F: 0.0),
    "hill_ww": (MethodSpec.hill_ww, "method.gamma", lambda F: 0.0),
}

_PARAM_PARSERS = {
    "method.gamma": lambda value, F: _as_float("method.gamma", value),
    "method.obs_gamma": lambda value, F: value,
    "method.weight": _parse_weight,
    "method.components": _parse_components,
}


def _build_method(entries, F):
    family = _take(entries, "method.family")
    if family is None:
        raise ConfigError("method.family: required")
    # Every method key is consumed, whether or not the family reads it.
    given = {key: _take(entries, key) for key in _PARAM_PARSERS}
    if family not in _METHODS:
        raise ConfigError(f"method.family: unknown family {family!r}")
    make, key, default = _METHODS[family]
    raw = given.get(key)
    if key is not None and raw is None and default is None:
        raise ConfigError(f"{key}: required for {family}")
    try:
        if key is None:
            return make(), f"{family}()"
        arg = default(F) if raw is None else _PARAM_PARSERS[key](raw, F)
        shown = arg if key == "method.gamma" or raw is None else raw
        return make(arg), f"{family}({key.split('.')[1]}={shown})"
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"method.family: {exc}") from exc


def load_config(path, overrides=None):
    """Read a config file into an ExperimentConfig.

    overrides maps dotted keys (or 'seed'/'threads'/'out') to values set
    from the command line; they take precedence over the file.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries = parse_config_text(text)
    overrides = overrides or {}

    model_spec, model_text = _build_model(entries)
    H = build_hamiltonian(model_spec)
    F = H.shape[0]
    method_spec, method_text = _build_method(entries, F)

    pairs = _parse_pair_list("tcf.pairs", _take(entries, "tcf.pairs", "1,1,1,1"))
    cfg_kwargs = dict(
        model=model_spec,
        method=method_spec,
        pairs=pairs,
        t_max=_as_float("tcf.t_max", _take(entries, "tcf.t_max", "10")),
        n_times=_as_int("tcf.n_times", _take(entries, "tcf.n_times", "21")),
        n_traj=_as_int("tcf.n_traj", _take(entries, "tcf.n_traj", "10000")),
        seed=_as_int("tcf.seed", _take(entries, "tcf.seed", "0")),
        backend=_take(entries, "tcf.backend", "exact"),
        dt=_as_float("tcf.dt", _take(entries, "tcf.dt", "1e-3")),
        threads=_as_int("tcf.threads", _take(entries, "tcf.threads", "1")),
        validate_exact_mapping=_as_bool(
            "validate.exact_mapping", _take(entries, "validate.exact_mapping", "true")
        ),
        validate_drift=_as_bool("validate.drift", _take(entries, "validate.drift", "true")),
        validate_moments=_as_bool(
            "validate.moments", _take(entries, "validate.moments", "true")
        ),
        validate_n_traj=_as_int(
            "validate.n_traj", _take(entries, "validate.n_traj", "200000")
        ),
        method_text=method_text,
        model_text=model_text,
    )
    if entries:
        stray = ", ".join(sorted(entries))
        raise ConfigError(f"unknown config key(s): {stray}")

    if "seed" in overrides:
        cfg_kwargs["seed"] = int(overrides["seed"])
    if "threads" in overrides:
        cfg_kwargs["threads"] = int(overrides["threads"])
    cfg = ExperimentConfig(**cfg_kwargs)
    if "out" in overrides:
        cfg.out_dir = Path(overrides["out"])
    if cfg.backend not in ("exact", "rk4"):
        raise ConfigError(f"tcf.backend: unknown backend {cfg.backend!r}")
    return cfg


# ---------------------------------------------------------------------------
# version and manifest


def _version_string():
    """Package version, extended with git describe when available."""
    try:
        desc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if desc.returncode == 0 and desc.stdout.strip():
            return f"{__version__}+g{desc.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def _fmt(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


# ---------------------------------------------------------------------------
# validation suites


def _check_products(name, label, A, B, target):
    """Pass when every sample mean of A[:, i] * B[:, j] is within 5 SE of target[i, j].

    A (n, p) and B (n, q) hold one sample per row.  All the means come
    from one A.T @ B and all the SEs (np.std with ddof=1, over sqrt(n))
    from one |A|^2.T @ |B|^2.  A product whose variance is below the
    rounding level of those sums has zero variance; it fails at once
    when it misses its target by more than 1e-12.
    """
    n = A.shape[0]
    mean = (A.T @ B) / n
    second = (np.abs(A) ** 2).T @ (np.abs(B) ** 2) / n
    var = (second - np.abs(mean) ** 2) * (n / (n - 1))
    dev = np.abs(mean - target)
    zero = ~(var > n * np.finfo(np.float64).eps * second)
    if not np.all(dev[zero] <= 1e-12):
        return ValidationResult(name, False, f"zero-variance deviation {np.max(dev[zero]):.2e}")
    worst = float(np.max(dev[~zero] / np.sqrt(var[~zero] / n), initial=0.0))
    return ValidationResult(name, worst <= 5.0, f"{label}, worst |dev|/SE = {worst:.2f} (limit 5)")


def _validate_exact_mapping(Z, g):
    """Monte Carlo check of F int dmu K_mn Kinv_lk = delta_mk delta_nl on the sphere at g.

    Z is a sphere sample (n, F) at g; only its first min(F, 4) states are checked.
    """
    F = Z.shape[1]
    s = min(F, 4)
    c1, c2 = inverse_kernel_coefficients(F, g)
    # Columns m*s + n of Kv and l*s + k of Kinv.
    Kv = kernel_entries(Z[:, None, :s], gamma=g).reshape(-1, s * s)
    Kinv = kernel_entries(Z[:, None, :s], gamma=c2, weights=c1).reshape(-1, s * s)
    eye = np.eye(s)
    target = np.einsum("mk,nl->mnlk", eye, eye).reshape(s * s, s * s) / F
    return _check_products("exact_mapping", f"gamma={g:.6g}", Kv, Kinv, target)


def _validate_drift(H, backend, dt):
    """Worst constraint and energy drift over the Wigner sphere, to t=10.

    Every trajectory is U z(0) with |z|^2 = 2s, s = 1 + F gamma, so over
    the whole sphere the worst norm residual (1/2)| |U z|^2 - |z|^2 | is
    s max|eig(U^dagger U - I)| and the worst energy drift is
    s max|eig(U^dagger H U - H)|, read off the maps of 10 grid times.
    """
    F = H.shape[0]
    s = 1.0 + F * gamma_wigner(F)
    tol = 1e-10 if backend == "exact" else 1e-6
    U = grid_march(H, np.linspace(0.0, 10.0, 11)[1:], backend, dt)
    Ud = np.conj(np.swapaxes(U, -1, -2))
    dev = np.concatenate([Ud @ U - np.eye(F), Ud @ H @ U - H])
    worst = s * float(np.max(np.abs(np.linalg.eigvalsh(dev))))
    ok = worst <= tol
    return ValidationResult(
        "drift",
        ok,
        f"backend={backend}, max constraint/energy drift {worst:.3e} (limit {tol:.0e})",
    )


def _validate_moments(Z, gamma):
    """Second moments z_n conj(z_m) of a sphere sample Z (n, F) against 2(1+F*gamma)/F * delta."""
    F = Z.shape[1]
    target = 2.0 * (1.0 + F * gamma) / F * np.eye(F)
    return _check_products("moments", f"gamma={gamma:.6g}", Z, Z.conj(), target)


def run_validations(cfg, H):
    """Run the enabled validation suites for a config.

    The exact-mapping and moments checks share one sphere sample, drawn
    from the exact-mapping stream (seed + 101).
    """
    results = []
    F = H.shape[0]
    g = cfg.method.gamma
    if g is None or g <= -1.0 / F:
        g = gamma_wigner(F)
    if cfg.validate_exact_mapping or cfg.validate_moments:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed + 101)))
        Z = sample_sphere_batch(F, g, rng, cfg.validate_n_traj)
    if cfg.validate_exact_mapping:
        results.append(_validate_exact_mapping(Z, g))
    if cfg.validate_drift:
        results.append(_validate_drift(H, cfg.backend, cfg.dt))
    if cfg.validate_moments:
        results.append(_validate_moments(Z, g))
    return results


# ---------------------------------------------------------------------------
# experiment driver


def _request(cfg, H, pair, n_traj):
    (n, m), (k, l) = pair
    return TCFRequest(
        H, (n, m), (k, l), cfg.t_grid(), n_traj, cfg.seed, cfg.method,
        backend=cfg.backend, dt=cfg.dt, n_threads=cfg.threads,
    )


def _exact_series(H, pair, t_grid):
    """exact_tcf for rho = |n><m| and A = |k><l|."""
    (n, m), (k, l) = pair
    F = H.shape[0]
    rho = np.zeros((F, F), dtype=np.complex128)
    rho[n - 1, m - 1] = 1.0
    A = np.zeros((F, F), dtype=np.complex128)
    A[k - 1, l - 1] = 1.0
    return exact_tcf(rho, A, H, t_grid)


def _result_rows(cfg, H):
    """Estimate every configured pair; yield CSV rows and the worst err/SE."""
    t_grid = cfg.t_grid()
    rows = []
    worst = 0.0
    for pair in cfg.pairs:
        (n, m), (k, l) = pair
        res = estimate_tcf(_request(cfg, H, pair, cfg.n_traj))
        ref = _exact_series(H, pair, t_grid)
        for ti, t in enumerate(t_grid):
            est = res.estimates[ti]
            se = float(res.standard_errors[ti])
            err = abs(est - ref[ti])
            ratio = err / se if se > 0 else math.nan
            if se > 0:
                worst = max(worst, ratio)
            rows.append(
                (
                    n, m, k, l, float(t),
                    float(est.real), float(est.imag), se,
                    float(res.normalization[ti]),
                    float(ref[ti].real), float(ref[ti].imag),
                    float(err), ratio,
                )
            )
    return rows, worst


_CSV_COLUMNS = (
    "n,m,k,l,t,estimate_re,estimate_im,se,cbar,exact_re,exact_im,abs_error,error_over_se"
)


def _write_results(path, cfg, rows):
    lines = [
        "# cpsmap results",
        f"# version: {__version__}",
        f"# model: {cfg.model_text}",
        f"# method: {cfg.method_text}",
        f"# backend: {cfg.backend}",
        f"# n_traj: {cfg.n_traj}",
        f"# seed: {cfg.seed}",
        f"# columns: {_CSV_COLUMNS}",
        _CSV_COLUMNS,
    ]
    for row in rows:
        n, m, k, l, t, er, ei, se, cb, xr, xi, err, ratio = row
        lines.append(
            f"{n},{m},{k},{l},{_fmt(t)},{_fmt(er)},{_fmt(ei)},{_fmt(se)},"
            f"{_fmt(cb)},{_fmt(xr)},{_fmt(xi)},{_fmt(err)},{_fmt(ratio)}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(path, cfg, wall_time, validations, extra=()):
    lines = [
        f"version: {_version_string()}",
        f"model: {cfg.model_text}",
        f"method: {cfg.method_text}",
        f"backend: {cfg.backend}",
        f"n_traj: {cfg.n_traj}",
        f"seed: {cfg.seed}",
        f"threads: {cfg.threads}",
        f"pairs: {'; '.join(f'{n},{m},{k},{l}' for (n, m), (k, l) in cfg.pairs)}",
        f"t_max: {cfg.t_max}",
        f"n_times: {cfg.n_times}",
        f"wall_time_s: {wall_time:.3f}",
    ]
    for v in validations:
        lines.append(f"validation {v.name}: {'pass' if v.passed else 'FAIL'} ({v.detail})")
    lines.extend(extra)
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg):
    """Estimate all configured pairs, write results.csv and manifest.txt."""
    start = time.perf_counter()
    H = build_hamiltonian(cfg.model)
    rows, worst = _result_rows(cfg, H)
    validations = run_validations(cfg, H)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    results_path = cfg.out_dir / "results.csv"
    manifest_path = cfg.out_dir / "manifest.txt"
    _write_results(results_path, cfg, rows)
    wall = time.perf_counter() - start
    _write_manifest(manifest_path, cfg, wall, validations)
    return RunSummary(results_path, manifest_path, len(rows), worst, validations)


def convergence_study(cfg, n_traj_list):
    """Max-over-t error against the exact reference for growing ensembles.

    Uses the first configured index pair.  Reports the fitted log-log
    slope of error versus ensemble size.
    """
    if len(n_traj_list) < 3:
        raise ConfigError("convergence study needs at least 3 ensemble sizes")
    H = build_hamiltonian(cfg.model)
    (n, m), (k, l) = cfg.pairs[0]
    ref = _exact_series(H, cfg.pairs[0], cfg.t_grid())
    max_errors = []
    for N in n_traj_list:
        res = estimate_tcf(_request(cfg, H, cfg.pairs[0], int(N)))
        max_errors.append(float(np.max(np.abs(res.estimates - ref))))
    floored = np.maximum(max_errors, 1e-16)
    slope = float(np.polyfit(np.log10(n_traj_list), np.log10(floored), 1)[0])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "convergence.csv"
    lines = [
        "# cpsmap convergence study",
        f"# version: {__version__}",
        f"# model: {cfg.model_text}",
        f"# method: {cfg.method_text}",
        f"# pair: {n},{m},{k},{l}",
        f"# seed: {cfg.seed}",
        f"# slope: {_fmt(slope)}",
        "n_traj,max_error",
    ]
    for N, err in zip(n_traj_list, max_errors):
        lines.append(f"{int(N)},{_fmt(err)}")
    path.write_text("\n".join(lines) + "\n")
    return ConvergenceReport(list(n_traj_list), max_errors, slope, path)


# ---------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="cpsmap", description="correlation-function experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("run", "estimate the configured correlation functions"),
        ("converge", "Monte Carlo convergence study"),
        ("validate", "run only the invariant and oracle suites"),
    ):
        p = sub.add_parser(name, description=desc)
        p.add_argument("config", help="path to the experiment config")
        p.add_argument("--seed", type=int, default=None, help="override tcf.seed")
        p.add_argument("--threads", type=int, default=None, help="override tcf.threads")
        p.add_argument("--out", default=None, help="output directory")
        if name == "converge":
            p.add_argument(
                "--n",
                required=True,
                help="comma-separated ensemble sizes, e.g. 1e3,1e4,1e5",
            )
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["out"] = args.out
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "run":
            summary = run_experiment(cfg)
            for v in summary.validations:
                print(f"validation {v.name}: {'pass' if v.passed else 'FAIL'} ({v.detail})")
            se_note = ""
            if cfg.n_traj == 1:
                se_note = " (SE unavailable: single sample)"
            print(
                f"wrote {summary.results_path} ({summary.n_rows} rows){se_note}; "
                f"manifest {summary.manifest_path}"
            )
            return summary.exit_code
        if args.command == "converge":
            try:
                sizes = [int(float(tok)) for tok in args.n.split(",") if tok.strip()]
            except ValueError:
                print(f"usage error: --n: not a number list: {args.n!r}", file=sys.stderr)
                return 1
            report = convergence_study(cfg, sizes)
            print(f"wrote {report.path}; slope = {report.slope:.3f}")
            return 0
        # validate
        H = build_hamiltonian(cfg.model)
        validations = run_validations(cfg, H)
        for v in validations:
            print(f"validation {v.name}: {'pass' if v.passed else 'FAIL'} ({v.detail})")
        if not validations:
            print("no validations enabled")
        return 0 if all(v.passed for v in validations) else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
