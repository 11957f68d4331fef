"""cpsmap benchmark: one command, every metric by name with its unit.

Run from the root of a checkout:

  python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process (perfbench/child.py) that
imports cpsmap from ./src with BLAS and OpenMP pinned to one thread.
With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
traced run gives the per-layer metrics and must reproduce the untraced
estimates bit for bit.  Every estimate is checked against exact_tcf; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run records and the digest store are
kept in ./.bench_out.  See perfbench/README.md for the workloads.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER, layer_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROCESSES = 8
# A run of one workload must end within 180 s; leave room to report.
DEADLINE_S = 170.0
END_TO_END = (
    ("tp_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    for name in PINNED:
        env[name] = "1"
    env["PYTHONPATH"] = str(root / "src")
    # Keep git (used for the run manifest) from searching above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    return env


def run_child(root, out_dir, mode, workload, seed, seconds, trace, deadline):
    cmd = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--root", str(root), "--out", str(out_dir),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} {mode} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} printed no result")
    return json.loads(lines[-1])


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=child_env(root),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def check_digest(out_dir, key, digest):
    """Compare with the digest stored for this (workload, seed, source); store if new."""
    path = out_dir / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    stored = store.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return stored == digest


def run_workload(root, out_dir, workload, seed, seconds, trace, deadline):
    setups = []
    if not trace:
        # One unrecorded process first, so every recorded one finds bytecode cached.
        for i in range(SETUP_PROCESSES + 1):
            probe = run_child(root, out_dir, "setup", workload, seed, 0, 0, deadline)
            if i:
                setups.append(probe)
    res = run_child(root, out_dir, "measure", workload, seed, seconds, trace, deadline)
    setups.append(res)

    src = source_digest(root)
    failed = res["failed"]
    digest_ok = check_digest(out_dir, f"{workload}:{seed}:{src}", res["digest"])
    if not digest_ok:
        failed = res["attempted"]
    if trace:
        values = res["layers"]
        metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}
    else:
        values = dict(res, setup_s=statistics.median(r["setup_s"] for r in setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reps": res["reps"],
        "setup_samples": [r["setup_s"] for r in setups],
        "raw_setup_samples": [r["setup_raw_s"] for r in setups],
        "wall_samples": res["wall_samples"],
        "raw_wall_samples": res["raw_wall_samples"],
        "speed_samples": res["speed_samples"],
        "digest": res["digest"],
        "digest_matches_store": digest_ok,
        "env": dict(res["env"], nproc=os.cpu_count(), commit=git_commit(root), source=src,
                    pinned={name: "1" for name in PINNED}),
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record):
    env = record["env"]
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"reps={record['reps']}")
    print(f"   python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, pool threads {env['pool_threads']}, "
          f"commit {env['commit']}, source {env['source']}")
    for name, m in record["metrics"].items():
        print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
    raw = statistics.median(record["raw_wall_samples"])
    speed = statistics.median(record["speed_samples"])
    print(f"   {'raw wall_s (unscaled)':34s} {raw:>16.6g} s at speed factor {speed:.4g}")
    frac = record["failed"] / record["attempted"]
    print(f"   {'failed_frac':34s} {frac:>16.6g} ({record['failed']}/{record['attempted']} points)")
    print(f"   estimate digest {record['digest'][:16]}"
          f" ({'matches' if record['digest_matches_store'] else 'DIFFERS FROM'} stored)")


def main(argv=None):
    parser = argparse.ArgumentParser(description="cpsmap benchmark")
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd().resolve()
    if not (root / "src" / "cpsmap" / "__init__.py").is_file():
        print(f"error: no cpsmap source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            records.append(
                run_workload(root, out_dir, name, args.seed, args.seconds, args.trace, deadline)
            )
            report(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
