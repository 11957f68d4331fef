"""Experiment runner for correlation-function estimates.

Drives the estimator families end to end from a small key-value config:
build a Hamiltonian, estimate the requested correlation functions on a
time grid, compare against the dense exact reference, and emit plottable
CSV plus a run manifest.  Also hosts the self-checks (see
run_validations) and the Monte Carlo convergence study.

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
  method.weight     "gamma:weight; gamma:weight; ..."  (wmm)
  method.components "weight:gamma; ..." with Gamma = gamma*I  (cmmcv)
  tcf.pairs         "n,m,k,l; n,m,k,l; ..."   (default "1,1,1,1")
  tcf.t_max, tcf.n_times, tcf.n_traj, tcf.seed, tcf.backend, tcf.dt
  tcf.threads

Exit status: 0 on success, 2 when a validation fails or a convergence
study's max error is NaN at some ensemble size, 1 on usage or config
errors.
"""

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
# sample_sphere_batch is imported only because perfbench/spans.py wraps it here.
from .cps import GammaWeight, gamma_wigner, sample_sphere_batch  # noqa: F401
from .dynamics import check_rk4_edge, rk4_log_factors
from .estimators import (
    COMB_FAMILIES, EXACT_MAPPING_TOL, ZERO_VARIANCE_TOL, MethodSpec, TCFRequest, _check_scale, _comb, _indices,
    _mapping_miss, _prepare, estimate_tcf,
)
from .models import ModelSpec, build_hamiltonian
from .qcore import exact_tcf, hermitian_eig


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
    method_text: str = ""
    model_text: str = ""

    def __post_init__(self):
        if self.n_times < 2:
            raise ConfigError("tcf.n_times: must be at least 2")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ConfigError(f"tcf.t_max: must be positive and finite, got {self.t_max!r}")
        if self.n_traj < 1:
            raise ConfigError(f"tcf.n_traj: must be at least 1, got {self.n_traj!r}")
        if self.backend not in ("exact", "rk4"):
            raise ConfigError(f"tcf.backend: unknown backend {self.backend!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"tcf.dt: must be positive and finite, got {self.dt!r}")
        if self.threads < 1:
            raise ConfigError(f"tcf.threads: must be at least 1, got {self.threads!r}")
        if self.seed < 0:
            raise ConfigError(f"tcf.seed: must be non-negative, got {self.seed!r}")

    def t_grid(self):
        return np.linspace(0.0, self.t_max, self.n_times)


@dataclass
class ValidationResult:
    name: str
    passed: bool
    detail: str

    def __str__(self):
        return f"validation {self.name}: {'pass' if self.passed else 'FAIL'} ({self.detail})"


@dataclass
class RunSummary:
    results_path: Path
    manifest_path: Path
    n_rows: int
    max_error_over_se: float
    validations: list = field(default_factory=list)
    nan_points: int = 0

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


def _as_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {value!r}") from None


def _as_int(key, value):
    """value as an int; an exponent form such as 1e4 must be a finite whole number."""
    try:
        if "e" not in value.lower():
            return int(value)
        x = float(value)
        if x.is_integer():
            return int(x)
    except ValueError:
        pass
    raise ConfigError(f"{key}: not an integer: {value!r}")


def _build_model(entries):
    kind = entries.pop("model.kind", None)
    if kind is None:
        raise ConfigError("model.kind: required")

    def number(key, default):
        x = _as_float(key, entries.pop(key, default))
        if not math.isfinite(x):
            raise ConfigError(f"{key}: must be finite, got {x!r}")
        return x

    def states():
        F = _as_int("model.F", entries.pop("model.F", "2"))
        if F < 2:
            raise ConfigError(f"model.F: must be at least 2, got {F}")
        return F

    if kind == "two_level":
        delta = number("model.delta", "1")
        eps = number("model.epsilon", "0")
        spec = ModelSpec.two_level(delta, eps)
        text = f"two_level(delta={delta}, epsilon={eps})"
    elif kind == "random":
        F = states()
        seed = _as_int("model.seed", entries.pop("model.seed", "0"))
        if seed < 0:
            raise ConfigError(f"model.seed: must be non-negative, got {seed}")
        scale = number("model.scale", "1")
        spec = ModelSpec.random(F, seed, scale)
        text = f"random(F={F}, seed={seed}, scale={scale})"
    elif kind == "ladder":
        F = states()
        gap = number("model.gap", "1")
        coupling = number("model.coupling", "0.1")
        spec = ModelSpec.ladder(F, gap, coupling)
        text = f"ladder(F={F}, gap={gap}, coupling={coupling})"
    elif kind == "file":
        path = entries.pop("model.path", None)
        if path is None:
            raise ConfigError("model.path: required for model.kind = file")
        spec = ModelSpec.from_file(path)
        text = f"file({path})"
    else:
        raise ConfigError(f"model.kind: unknown kind {kind!r}")
    return spec, text


def _parse_pair_list(key, value, F):
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = [f.strip() for f in chunk.split(",")]
        if len(fields) != 4:
            raise ConfigError(f"{key}: expected 'n,m,k,l', got {chunk!r}")
        n, m, k, l = (_as_int(key, f) for f in fields)
        if not all(1 <= i <= F for i in (n, m, k, l)):
            raise ConfigError(f"{key}: index outside 1..{F} in {chunk!r}")
        pairs.append(((n, m), (k, l)))
    if not pairs:
        raise ConfigError(f"{key}: empty pair list")
    return pairs


def _parse_colon_pairs(key, value, form):
    """Parse an "a:b; a:b" list into float pairs; form names a and b in errors."""
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"{key}: expected '{form}', got {chunk!r}")
        a, b = chunk.split(":", 1)
        pairs.append((_as_float(key, a), _as_float(key, b)))
    if not pairs:
        raise ConfigError(f"{key}: empty '{form}' list")
    return pairs


def _parse_weight(value, F):
    return GammaWeight.delta_comb(_parse_colon_pairs("method.weight", value, "gamma:weight"))


def _parse_components(value, F):
    pairs = _parse_colon_pairs("method.components", value, "weight:gamma")
    # before the product: inf * eye(F) warns on its zeros
    if not all(math.isfinite(g) for _, g in pairs):
        raise ConfigError("method.components: cmmcv Gamma has non-finite entries")
    return [(w, g * np.eye(F)) for w, g in pairs]


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
    family = entries.pop("method.family", None)
    if family is None:
        raise ConfigError("method.family: required")
    if family not in _METHODS:
        raise ConfigError(f"method.family: unknown family {family!r}")
    # only the family's own key is consumed: any other method key is an unknown key
    make, key, default = _METHODS[family]
    if key is None:
        return make(), f"{family}()"
    raw = entries.pop(key, None)
    if raw is None and default is None:
        raise ConfigError(f"{key}: required for {family}")
    try:
        arg = default(F) if raw is None else _PARAM_PARSERS[key](raw, F)
        spec = make(arg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    shown = arg if key == "method.gamma" or raw is None else raw
    return spec, f"{family}({key.split('.')[1]}={shown})"


# model kind -> the config keys that set the scale of its Hamiltonian (model.path for a file)
_SCALE_KEYS = {"two_level": "model.delta, model.epsilon", "random": "model.scale", "ladder": "model.gap, model.coupling"}

# scalar config key -> (parser, default); tcf.x sets the field x
_SCALAR_KEYS = {
    "tcf.t_max": (_as_float, "10"),
    "tcf.n_times": (_as_int, "21"),
    "tcf.n_traj": (_as_int, "10000"),
    "tcf.seed": (_as_int, "0"),
    "tcf.backend": (lambda key, value: value, "exact"),
    "tcf.dt": (_as_float, "1e-3"),
    "tcf.threads": (_as_int, "1"),
}


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

    pairs = _parse_pair_list("tcf.pairs", entries.pop("tcf.pairs", "1,1,1,1"), F)
    cfg_kwargs = {
        key.removeprefix("tcf."): parse(key, entries.pop(key, default))
        for key, (parse, default) in _SCALAR_KEYS.items()
    }
    cfg_kwargs.update(
        model=model_spec, method=method_spec, pairs=pairs,
        method_text=method_text, model_text=model_text,
    )
    if entries:
        stray = ", ".join(sorted(entries))
        raise ConfigError(f"unknown config key(s): {stray}")

    cfg_kwargs.update({key: int(overrides[key]) for key in ("seed", "threads") if key in overrides})
    cfg = ExperimentConfig(**cfg_kwargs)
    try:
        _check_scale(H, cfg.t_max, "the Hamiltonian")
    except ValueError as exc:
        raise ConfigError(f"{_SCALE_KEYS.get(model_spec.kind, 'model.path')}: {exc}") from None
    if cfg.backend == "rk4":
        try:
            check_rk4_edge(hermitian_eig(H, tol=None).eigenvalues, cfg.t_grid(), cfg.dt)
        except ValueError as exc:
            raise ConfigError(f"tcf.dt: {exc}") from None
    # estimate_tcf's request checks, under the config key each concerns
    requests = [_request(cfg, H, pair, cfg.n_traj) for pair in cfg.pairs]
    try:
        _prepare(requests[0])
    except ValueError as exc:
        raise ConfigError(f"method.family: {exc}") from None
    try:
        for req in requests:
            _indices(req, F)
    except ValueError as exc:
        raise ConfigError(f"tcf.pairs: {exc}") from None
    if "out" in overrides:
        cfg.out_dir = Path(overrides["out"])
    return cfg


# ---------------------------------------------------------------------------
# validation suites


def _validate_exact_mapping(F, method):
    """Closed-form check of the exact mapping identity for the comb of a cc method, as estimate_tcf checks it."""
    name = f"cmm gamma={method.gamma:.6g}" if method.family == "cmm" else f"{method.family} comb"
    try:
        miss, where = _mapping_miss(F, _comb(method, F))
    except ValueError as exc:
        return ValidationResult("exact_mapping", False, f"{name}: {exc}")
    detail = f"{name}, closed-form miss {miss:.2e} at (m, n, l, k) = {where} (limit {EXACT_MAPPING_TOL:.0e})"
    return ValidationResult("exact_mapping", miss <= EXACT_MAPPING_TOL, detail)


def _drift(H, backend, dt):
    """The worst constraint and energy drift over the Wigner sphere at t = 1, 2, ..., 10; 0 on the exact backend.

    That is s max|eig| of U^dagger U - I and U^dagger H U - H, s = 1 + F gamma,
    or s max_j max(1, |lambda_j|) ||f_j|^2 - 1| with the march's factors f_j.
    """
    if backend == "exact":
        return 0.0
    F, lam = H.shape[0], hermitian_eig(H).eigenvalues
    with np.errstate(over="ignore"):  # past rk4's stability edge the growth may be inf, which fails the line
        growth = np.expm1(2.0 * rk4_log_factors(lam, np.linspace(0.0, 10.0, 11)[1:], dt)[0].real)
    return (1.0 + F * gamma_wigner(F)) * float(np.max(np.maximum(1.0, np.abs(lam)) * np.abs(growth)))


def _validate_drift(H, backend, dt):
    """The drift line: _drift against 1e-10 on the exact backend, 1e-6 on rk4."""
    tol, worst = 1e-10 if backend == "exact" else 1e-6, _drift(H, backend, dt)
    detail = f"backend={backend}, max constraint/energy drift {worst:.3e} (limit {tol:.0e})"
    return ValidationResult("drift", worst <= tol, detail)


def _validate_moments(cfg, results):
    """The frame moments of the run's ensembles against the closed forms of their samplers.

    results are the run's estimate_tcf results; each carries the
    MomentCheck of its ensemble.  The check's SEs come from the block
    jackknife, so it needs at least 2 nonempty blocks (tcf.n_traj >= 2),
    and its |dev|/SE limit widens when tcf.n_traj fills fewer than all
    blocks.
    """
    if cfg.n_traj < 2:
        detail = f"tcf.n_traj = {cfg.n_traj} fills 1 block; the check needs at least 2"
        return ValidationResult("moments", False, detail)
    checks = [res.moment_check for res in results]
    worst = max(check.worst_over_se for check in checks)
    zero = max(check.zero_variance_dev for check in checks)
    if not math.isfinite(worst + zero):
        detail = "the run's frame moment is not finite"
    elif zero > ZERO_VARIANCE_TOL:
        detail = f"zero-variance deviation {zero:.2e} of max(1, |closed form|) (limit {ZERO_VARIANCE_TOL:.0e})"
    else:
        # every ensemble of the run has the same blocks, so the same limit
        detail = f"{cfg.method_text} frames, worst |dev|/SE = {worst:.2f} (limit {checks[0].limit:.4g})"
    return ValidationResult("moments", all(check.passed for check in checks), detail)


def run_validations(cfg, H, results=None):
    """The self-checks of a config; none draws a sample of its own.

    exact_mapping is the closed form that estimate_tcf checks, of the
    configured comb, for a cc family only; drift reads the march's
    per-eigenvalue factors; moments judges results, the run's estimate_tcf
    results over the configured pairs, and runs only when they are given.
    """
    cc = cfg.method.family in COMB_FAMILIES
    out = [_validate_exact_mapping(H.shape[0], cfg.method)] if cc else []
    out.append(_validate_drift(H, cfg.backend, cfg.dt))
    if results is not None:
        out.append(_validate_moments(cfg, results))
    return out


# ---------------------------------------------------------------------------
# experiment driver


def _request(cfg, H, pair, n_traj):
    (n, m), (k, l) = pair
    return TCFRequest(
        H, (n, m), (k, l), cfg.t_grid(), n_traj, cfg.seed, cfg.method,
        backend=cfg.backend, dt=cfg.dt, n_threads=cfg.threads,
    )


def _exact_series(H, pairs, t_grid):
    """exact_tcf for rho = |n><m| and A = |k><l| of every pair, one row per pair."""
    F = H.shape[0]
    rho = np.zeros((len(pairs), F, F), dtype=np.complex128)
    A = np.zeros_like(rho)
    for i, ((n, m), (k, l)) in enumerate(pairs):
        rho[i, n - 1, m - 1] = 1.0
        A[i, k - 1, l - 1] = 1.0
    return exact_tcf(rho, A, H, t_grid)


def _estimates(cfg, H):
    """Every configured pair's TCFResult from one estimate_tcf call, so each ensemble is sampled once."""
    return estimate_tcf([_request(cfg, H, pair, cfg.n_traj) for pair in cfg.pairs])


def _result_rows(cfg, H, results):
    """The CSV rows of the results of every configured pair, the worst err/SE, the zero-variance and NaN counts.

    The exact reference is one exact_tcf call, so H is diagonalized
    once.  A point the result flags as zero-variance has an SE that is
    rounding noise, so its error_over_se is NaN and it is left out of
    the worst err/SE, as is a counted point whose estimate or SE is NaN.
    """
    t_grid, rows, worst = cfg.t_grid(), [], 0.0
    zero_variance = nan_points = 0
    refs = _exact_series(H, cfg.pairs, t_grid)
    for ((n, m), (k, l)), res, ref in zip(cfg.pairs, results, refs):
        for ti, t in enumerate(t_grid):
            est = res.estimates[ti]
            se = float(res.standard_errors[ti])
            err = abs(est - ref[ti])
            zero = bool(res.zero_variance[ti])
            zero_variance += zero
            nan_points += bool(np.isnan(est) or math.isnan(se))
            ratio = math.nan if zero else err / se
            if not zero:
                worst = max(worst, ratio)
            rows.append((
                n, m, k, l, float(t), float(est.real), float(est.imag), se,
                float(res.normalization[ti]), float(ref[ti].real), float(ref[ti].imag), float(err), ratio,
            ))
    return rows, worst, zero_variance, nan_points


_CSV_COLUMNS = (
    "n,m,k,l,t,estimate_re,estimate_im,se,cbar,exact_re,exact_im,abs_error,error_over_se"
)


def _fmt(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


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
    # n, m, k, l as integers, then t through error_over_se
    lines += [",".join([*map(str, row[:4]), *map(_fmt, row[4:])]) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(path, cfg, wall_time, validations, extra=()):
    lines = [
        f"version: {__version__}",
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
    lines += [*map(str, validations), *extra]
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg):
    """Estimate all configured pairs, write results.csv and manifest.txt."""
    start = time.perf_counter()
    H = build_hamiltonian(cfg.model)
    results = _estimates(cfg, H)
    rows, worst, zero_variance, nan_points = _result_rows(cfg, H, results)
    validations = run_validations(cfg, H, results)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    results_path = cfg.out_dir / "results.csv"
    manifest_path = cfg.out_dir / "manifest.txt"
    _write_results(results_path, cfg, rows)
    wall = time.perf_counter() - start
    counts = [f"zero_variance_points: {zero_variance}", f"nan_points: {nan_points}"]
    _write_manifest(manifest_path, cfg, wall, validations, counts)
    return RunSummary(results_path, manifest_path, len(rows), worst, validations, nan_points)


def convergence_study(cfg, n_traj_list):
    """Max-over-t error against the exact reference for growing ensembles.

    Uses the first configured index pair.  Reports the fitted log-log
    slope of error versus ensemble size.
    """
    if len(set(n_traj_list)) < 3:
        raise ConfigError(f"convergence study needs at least 3 distinct ensemble sizes, got {list(n_traj_list)}")
    H = build_hamiltonian(cfg.model)
    (n, m), (k, l) = cfg.pairs[0]
    ref = _exact_series(H, cfg.pairs[:1], cfg.t_grid())[0]
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
    lines += [f"{int(N)},{_fmt(err)}" for N, err in zip(n_traj_list, max_errors)]
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
        ("validate", "run the self-checks that need no sample"),
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
    overrides = {key: val for key in ("seed", "threads", "out") if (val := getattr(args, key)) is not None}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "run":
            summary = run_experiment(cfg)
            for v in summary.validations:
                print(v)
            se_note = " (SE unavailable: single sample)" if cfg.n_traj == 1 else ""
            print(
                f"wrote {summary.results_path} ({summary.n_rows} rows){se_note}; "
                f"manifest {summary.manifest_path}"
            )
            return summary.exit_code
        if args.command == "converge":
            try:
                sizes = [_as_int("--n", tok.strip()) for tok in args.n.split(",") if tok.strip()]
            except ConfigError:
                print(f"usage error: --n: not a number list: {args.n!r}", file=sys.stderr)
                return 1
            if any(N < 1 for N in sizes):
                print(f"usage error: --n: sizes must be at least 1, got {args.n!r}", file=sys.stderr)
                return 1
            if len(set(sizes)) < 3:
                print(f"usage error: --n: needs at least 3 distinct sizes, got {args.n!r}", file=sys.stderr)
                return 1
            report = convergence_study(cfg, sizes)
            print(f"wrote {report.path}; slope = {report.slope:.3f}")
            nan_sizes = [N for N, err in zip(sizes, report.max_errors) if math.isnan(err)]
            if nan_sizes:
                print(f"error: max_error is NaN at n = {', '.join(map(str, nan_sizes))}", file=sys.stderr)
                return 2
            return 0
        # validate
        validations = run_validations(cfg, build_hamiltonian(cfg.model))
        print("\n".join(map(str, validations)))
        return 0 if all(v.passed for v in validations) else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
