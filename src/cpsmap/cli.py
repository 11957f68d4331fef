"""Experiment runner for correlation-function estimates.

Drives the estimator families end to end from a small key-value config:
build a Hamiltonian, estimate the requested correlation functions on a
time grid, compare against the dense exact reference, and emit plottable
CSV plus a run manifest.  Also hosts the validation suites (the exact
mapping condition of the cmm kernel pair in closed form, the worst
invariant drift over the sphere read off the propagation maps,
sphere-moment oracles) and the Monte Carlo convergence study.  The
moment check streams one sphere sample in seeded chunks on the run's
tcf.threads workers; the other two draw no sample.

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
  validate.exact_mapping, validate.drift, validate.moments   (true/false)
  validate.n_traj   sample size of the moments check (at least 2)

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
# sample_sphere_batch is imported only because perfbench/spans.py wraps it here.
from .cps import GammaWeight, gamma_wigner, onto_sphere, sample_sphere_batch, sphere_normals  # noqa: F401
from .dynamics import grid_march
from .estimators import (
    EXACT_MAPPING_TOL, POOL_ROWS, MethodSpec, TCFRequest, _mapping_tensor, _pair_deltas, _run_blocks, estimate_tcf,
)
from .kernels import inverse_kernel_coefficients
from .models import ModelSpec, build_hamiltonian
from .qcore import exact_tcf
from .streams import BlockStreams, block_keys


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
        if self.seed < 0:
            raise ConfigError(f"tcf.seed: must be non-negative, got {self.seed!r}")
        if self.validate_n_traj < 2:
            raise ConfigError("validate.n_traj: must be at least 2")

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


def _as_bool(key, value):
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: not a boolean: {value!r}")


def _build_model(entries):
    kind = entries.pop("model.kind", None)
    if kind is None:
        raise ConfigError("model.kind: required")
    if kind == "two_level":
        delta = _as_float("model.delta", entries.pop("model.delta", "1"))
        eps = _as_float("model.epsilon", entries.pop("model.epsilon", "0"))
        spec = ModelSpec.two_level(delta, eps)
        text = f"two_level(delta={delta}, epsilon={eps})"
    elif kind == "random":
        F = _as_int("model.F", entries.pop("model.F", "2"))
        seed = _as_int("model.seed", entries.pop("model.seed", "0"))
        scale = _as_float("model.scale", entries.pop("model.scale", "1"))
        spec = ModelSpec.random(F, seed, scale)
        text = f"random(F={F}, seed={seed}, scale={scale})"
    elif kind == "ladder":
        F = _as_int("model.F", entries.pop("model.F", "2"))
        gap = _as_float("model.gap", entries.pop("model.gap", "1"))
        coupling = _as_float("model.coupling", entries.pop("model.coupling", "0.1"))
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
    # Every method key is consumed, whether or not the family reads it.
    given = {key: entries.pop(key, None) for key in _PARAM_PARSERS}
    if family not in _METHODS:
        raise ConfigError(f"method.family: unknown family {family!r}")
    make, key, default = _METHODS[family]
    raw = given.get(key)
    if key is not None and raw is None and default is None:
        raise ConfigError(f"{key}: required for {family}")
    if key is None:
        return make(), f"{family}()"
    try:
        arg = default(F) if raw is None else _PARAM_PARSERS[key](raw, F)
        spec = make(arg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    shown = arg if key == "method.gamma" or raw is None else raw
    return spec, f"{family}({key.split('.')[1]}={shown})"


# scalar config key -> (parser, default); tcf.x sets the field x, validate.x validate_x
_SCALAR_KEYS = {
    "tcf.t_max": (_as_float, "10"),
    "tcf.n_times": (_as_int, "21"),
    "tcf.n_traj": (_as_int, "10000"),
    "tcf.seed": (_as_int, "0"),
    "tcf.backend": (lambda key, value: value, "exact"),
    "tcf.dt": (_as_float, "1e-3"),
    "tcf.threads": (_as_int, "1"),
    "validate.exact_mapping": (_as_bool, "true"),
    "validate.drift": (_as_bool, "true"),
    "validate.moments": (_as_bool, "true"),
    "validate.n_traj": (_as_int, "200000"),
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

    pairs = _parse_pair_list("tcf.pairs", entries.pop("tcf.pairs", "1,1,1,1"))
    cfg_kwargs = {
        key.replace("tcf.", "").replace(".", "_"): parse(key, entries.pop(key, default))
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


def _product_sums(A, B):
    """(n, A.T @ B, |A|^2.T @ |B|^2) of the samples A (n, p) and B (n, q), one sample per row."""
    return A.shape[0], A.T @ B, (np.abs(A) ** 2).T @ (np.abs(B) ** 2)


def _check_products(name, label, parts, target):
    """Pass when every sample mean of A[:, i] * B[:, j] is within 5 SE of target[i, j].

    parts holds the _product_sums of each row chunk of the samples A and
    B, summed in order.  All the means come from the summed A.T @ B and
    all the SEs (np.std with ddof=1, over sqrt(n)) from the summed
    |A|^2.T @ |B|^2.  A product whose variance is below the rounding
    level of those sums has zero variance; it fails at once when it
    misses its target by more than 1e-12.
    """
    n, total, second = (sum(col) for col in zip(*parts))
    mean = total / n
    second = second / n
    var = (second - np.abs(mean) ** 2) * (n / (n - 1))
    dev = np.abs(mean - target)
    zero = ~(var > n * np.finfo(np.float64).eps * second)
    if not np.all(dev[zero] <= 1e-12):
        return ValidationResult(name, False, f"zero-variance deviation {np.max(dev[zero]):.2e}")
    worst = float(np.max(dev[~zero] / np.sqrt(var[~zero] / n), initial=0.0))
    return ValidationResult(name, worst <= 5.0, f"{label}, worst |dev|/SE = {worst:.2f} (limit 5)")


def _validate_exact_mapping(F, g):
    """Closed-form check of F E[K_mn Kinv_lk] = delta_mk delta_nl for the cmm kernel and its inverse at g."""
    c1, c2 = inverse_kernel_coefficients(F, g)
    tensor = _mapping_tensor(F, [(1.0, g * np.eye(F), c1, c2 * np.eye(F))])
    miss = float(np.max(np.abs(tensor - _pair_deltas(F)[1])))
    return ValidationResult(
        "exact_mapping",
        miss <= EXACT_MAPPING_TOL,
        f"gamma={g:.6g}, closed-form miss {miss:.2e} (limit {EXACT_MAPPING_TOL:.0e})",
    )


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


def _validate_moments(parts, F, gamma):
    """Second moments z_n conj(z_m) on the sphere at gamma against 2(1+F*gamma)/F * delta.

    parts holds the _product_sums(Z, conj(Z)) of each chunk of a sphere
    sample Z.
    """
    target = 2.0 * (1.0 + F * gamma) / F * np.eye(F)
    return _check_products("moments", f"gamma={gamma:.6g}", parts, target)


def run_validations(cfg, H):
    """Run the enabled validation suites for a config.

    The exact-mapping check is the closed form of the cmm kernel pair at
    method.gamma (the Wigner gamma where the family has none) and draws
    no sample.  The moments check reads one sphere sample of
    validate.n_traj rows in a single pass of POOL_ROWS-row chunks, made
    only when that check is enabled.  Chunk c draws from its own stream,
    SeedSequence(seed + 101, spawn_key=(c,)) served by cpsmap.streams,
    and returns its partial sums from temporaries in its worker's
    scratch arrays; the chunks run on tcf.threads workers and their sums
    are added in chunk order, so every result is bitwise the same at any
    thread count.
    """
    results = []
    F = H.shape[0]
    g = cfg.method.gamma
    if g is None or g <= -1.0 / F:
        g = gamma_wigner(F)
    if cfg.validate_exact_mapping:
        results.append(_validate_exact_mapping(F, g))
    if cfg.validate_drift:
        results.append(_validate_drift(H, cfg.backend, cfg.dt))
    if cfg.validate_moments:
        n = cfg.validate_n_traj
        streams = BlockStreams(block_keys(cfg.seed + 101, -(-n // POOL_ROWS)))

        def chunk(c):
            shape, scratch = (min(POOL_ROWS, n - c * POOL_ROWS), F), streams.scratch
            Z = scratch("sample", shape)
            sphere_normals(streams[c], Z, scratch("normals", shape, np.float64))
            onto_sphere(Z, F, g, scratch("temp", shape))
            return _product_sums(Z, np.conjugate(Z, out=scratch("temp", shape)))

        results.append(_validate_moments(_run_blocks(chunk, range(len(streams)), cfg.threads), F, g))
    return results


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


def _result_rows(cfg, H):
    """Estimate every configured pair: the CSV rows, the worst err/SE, the zero-variance and NaN counts.

    All pairs are one estimate_tcf call, so each ensemble is sampled
    once, and one exact_tcf call, so H is diagonalized once.  A point
    the result flags as zero-variance has an SE that is rounding noise,
    so its error_over_se is NaN and it is left out of the worst err/SE,
    as is a counted point whose estimate or SE is NaN.
    """
    t_grid, rows, worst = cfg.t_grid(), [], 0.0
    zero_variance = nan_points = 0
    results = estimate_tcf([_request(cfg, H, pair, cfg.n_traj) for pair in cfg.pairs])
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
    lines += [*map(str, validations), *extra]
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg):
    """Estimate all configured pairs, write results.csv and manifest.txt."""
    start = time.perf_counter()
    H = build_hamiltonian(cfg.model)
    rows, worst, zero_variance, nan_points = _result_rows(cfg, H)
    validations = run_validations(cfg, H)
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
    if len(n_traj_list) < 3:
        raise ConfigError("convergence study needs at least 3 ensemble sizes")
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
            report = convergence_study(cfg, sizes)
            print(f"wrote {report.path}; slope = {report.slope:.3f}")
            return 0
        # validate
        H = build_hamiltonian(cfg.model)
        validations = run_validations(cfg, H)
        print("\n".join(map(str, validations)) or "no validations enabled")
        return 0 if all(v.passed for v in validations) else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
