"""Measure one workload in a fresh process.

Started by run.py with BLAS threads pinned; never imported by it.  Modes:

  setup    time the import of cpsmap plus the workload's set-up once
  measure  set up, then repeat the timed region for --seconds; with
           --trace 1, alternate untraced and traced repetitions

Prints one JSON object as its last line of standard output.  numpy is
imported only through cpsmap, after the set-up clock has started.
"""

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import COUNT_FIELDS, PER_LAYER, Tracer, layer_unit
from workloads import WORKLOADS, CliWorkload, check

MIN_REPS = 3
# Seconds one speed probe takes on an idle 2-core x86-64 host, the reference
# speed that reported times are scaled to; see README.md.
REFERENCE_PROBE_S = 0.0055
PROBES = 3


def _setup(wl, seed, out_dir, root):
    """Import cpsmap and set the workload up; returns the seconds taken."""
    t0 = time.perf_counter()
    cpsmap = importlib.import_module("cpsmap")
    wl.setup(seed, out_dir)
    elapsed = time.perf_counter() - t0
    src = (root / "src").resolve()
    if src not in Path(cpsmap.__file__).resolve().parents:
        raise SystemExit(f"cpsmap imported from {cpsmap.__file__}, not from {src}")
    return elapsed


def speed_probe():
    """Seconds for a fixed mix of work like the workloads', using no cpsmap code.

    An interpreter loop, a batched (n,1,F)@(F,F) matmul as in the exact
    backend, and a loop of small-array updates as in rk4.  Arrays are
    allocated before the clock starts, so the state of the heap left by
    the workload does not move the figure.
    """
    np = importlib.import_module("numpy")
    z = np.linspace(0.0, 1.0, 16_000).reshape(2000, 1, 8) * (1 + 1j)
    zt = np.empty_like(z)
    u = np.eye(8, dtype=np.complex128)
    x = np.ones((50, 2, 3))
    p = np.zeros((50, 2, 3))
    t0 = time.perf_counter()
    acc = 0
    for i in range(25_000):
        acc += i
    for _ in range(3):
        np.matmul(z, u.T, out=zt)
    for _ in range(150):
        x = x + 0.01 * p
        p = p - 0.01 * x
        (x + 1j * p) @ u[:3, :3]
    return time.perf_counter() - t0


def speed_factor(n=PROBES):
    """Reference probe time over the median of n probes taken now."""
    return REFERENCE_PROBE_S / statistics.median(speed_probe() for _ in range(n))


def _digest(outputs):
    h = hashlib.sha256()
    for pair, est, se in outputs:
        h.update(repr(pair).encode())
        h.update(est.tobytes())
        h.update(se.tobytes())
    return h.hexdigest()


class Rep:
    """One repetition of the timed region, bracketed by speed probes."""

    def __init__(self, wl, tracer=None):
        before = speed_factor()
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.outputs, self.ok = wl.run(tracer)
        self.raw_wall = time.perf_counter() - t0
        self.cpu = time.process_time() - c0
        self.speed = 0.5 * (before + speed_factor())
        self.wall = self.raw_wall * self.speed


def _layer_metrics(summary, rep):
    out = {}
    for name in PER_LAYER:
        if name.startswith(("proc.", "trace.")):
            continue
        layer, field = name.rsplit(".", 1)
        value = summary.get(layer, {}).get(field, 0)
        out[name] = value if field in COUNT_FIELDS else value * rep.speed
    out["proc.cpu_util"] = rep.cpu / rep.raw_wall
    return out


class Tally:
    """Points attempted and failed, and the digest every repetition must match."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def add(self, outputs, ok):
        points, failed = check(self.wl, outputs)
        digest = _digest(outputs)
        if self.digest is None:
            self.digest = digest
        if not ok or digest != self.digest:
            failed = points
        self.attempted += points
        self.failed += failed


def setup_once(wl, seed, out_dir, root):
    """Set-up seconds, raw and scaled by a speed probe taken right after."""
    raw = _setup(wl, seed, out_dir, root)
    return raw, raw * speed_factor(2 * PROBES - 1)


def measure(wl, seed, seconds, trace, out_dir, root):
    setup_raw, setup_s = setup_once(wl, seed, out_dir, root)
    tally = Tally(wl)
    reps, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        rep = Rep(wl)
        tally.add(rep.outputs, rep.ok)
        reps.append(rep)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                wl.setup(seed, out_dir, tracer)
                rep = Rep(wl, tracer)
            finally:
                tracer.uninstall()
            tally.add(rep.outputs, rep.ok)
            traced.append(rep.wall)
            layers.append(_layer_metrics(tracer.summary(), rep))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
            break

    wall_s = statistics.median(r.wall for r in reps)
    work = wl.n_traj * wl.n_times * len(wl.pairs)
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "digest": tally.digest,
        "reps": len(reps),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "wall_s": wall_s,
        "wall_samples": [r.wall for r in reps],
        "raw_wall_samples": [r.raw_wall for r in reps],
        "speed_samples": [r.speed for r in reps],
        "tp_per_s": work / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        metrics = {
            name: (statistics.median_low if layer_unit(name) == "count" else statistics.median)(
                [rep[name] for rep in layers]
            )
            for name in layers[0]
        }
        metrics["trace.overhead_frac"] = statistics.median(traced) / wall_s - 1.0
        result["layers"] = metrics
    return result


def environment(wl):
    np = importlib.import_module("numpy")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pool_threads": wl.threads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(args.root)
    out_dir = Path(args.out)
    wl = WORKLOADS[args.workload]
    if isinstance(wl, CliWorkload):
        wl.write_config(args.seed, out_dir)
    if args.mode == "setup":
        raw, scaled = setup_once(wl, args.seed, out_dir, root)
        result = {"setup_s": scaled, "setup_raw_s": raw}
    else:
        result = measure(wl, args.seed, args.seconds, args.trace, out_dir, root)
        result["env"] = environment(wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
