"""momprop benchmark: one workload per process, seeded inputs, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload probit-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one process each

A run imports momprop from ./src, sets the workload up (input generation
and a warm-up call of each method), then repeats timed passes over the
workload's fixed job list a fixed number of times (--seconds over the
workload's reference pass time, and at least once), checking each pass's
outputs after it. Set-ups and passes are timed at the reference host
speed (hostspeed.py). With --trace 0 it reports setup_s (the median of
three set-ups), wall_s (the median pass) and peak_rss_mb; with --trace 1
it runs the passes once untraced and once with spans around every call
into a momprop module, and reports the per-layer metrics.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("probit-large", "probit-small-study", "conjugate-batch")
SETUP_SAMPLES = 3  # set-ups per run: this process plus two fresh ones
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; metrics named <workload>.<metric>."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sub = json.loads(lines[-1])
        result["correct"] &= sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        for key, val in sub["metrics"].items():
            result["metrics"][f"{name}.{key}"] = val
    print(json.dumps(result))
    return 0


def environment(root: Path) -> dict:
    import ctypes

    import numpy as np
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "momprop").glob("*.py")):
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = getattr(handle, sym)()
                break
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": os.cpu_count()}


def setup_probes(args, count: int) -> list[float]:
    """Set-up times of fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed",
             str(args.seed), "--setup-probe"], capture_output=True,
            text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        last = proc.stdout.strip().splitlines()[-1]
        times.append(json.loads(last)["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "momprop" / "__init__.py").is_file():
        print("error: run from the repository root; src/momprop not found",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("MOMPROP_THREADS", None)
    sys.path.insert(0, str(src))

    import hostspeed  # imports numpy before the set-up clock starts
    setup = hostspeed.SpeedProbe()
    setup.start()
    import momprop  # timed as part of set-up
    import workloads
    if Path(momprop.__file__).resolve().parent != (src / "momprop").resolve():
        print(f"error: momprop imported from {momprop.__file__}",
              file=sys.stderr)
        return 2

    bench = root / ".bench_work"
    work = bench / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workloads, hostspeed, setup, bench, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workloads, hostspeed, setup, bench: Path,
            work: Path) -> int:
    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl.setup(work, args.seed)
    setup_s = setup.stop()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        tracer.uninstall()
    env = environment(Path.cwd())
    # One fresh set-up runs before the passes and one after, so that they
    # meet as many of the host's speed states as the passes do.
    probes = 0 if tracer else SETUP_SAMPLES - 1
    setups = [setup_s] + setup_probes(args, probes // 2)
    n_passes = max(1, round(args.seconds / wl.PASS_S))

    ops = workloads.Ops()
    rss_mb = 0.0
    raw: list[tuple[float, float]] = []  # pass wall s, mean probe s

    def passes(traced: bool) -> list[float]:
        nonlocal rss_mb
        walls = []
        probe = hostspeed.SpeedProbe()
        for _ in range(n_passes):
            if traced:
                tracer.install()
            probe.start()
            outputs = wl.run_pass(ops)
            walls.append(probe.stop())
            raw.append((probe.elapsed, probe.mean_probe_s()))
            if traced:
                tracer.uninstall()
            else:
                rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wl.check(ops, outputs)
            del outputs
        return walls

    walls = passes(False)
    setups += setup_probes(args, probes - probes // 2)
    wall_s = statistics.median(walls)
    if tracer:
        tracer.mark("passes")
        traced = passes(True)
        tracer.passes = len(traced)
        metrics = tracer.metrics(statistics.median(traced) - wall_s)
        tracer.write(bench / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (rss_mb, "MB")}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} timed passes, {ops.attempted} operations, "
          f"{ops.failed} failed")
    print("environment " + json.dumps(env))
    if tracer:
        print("traced pass s: " + " ".join(f"{w:.4f}" for w in traced))
    else:
        print("setup samples s: " + " ".join(f"{s:.4f}" for s in setups))
    print("pass s: " + " ".join(f"{w:.4f}" for w in walls))
    print("raw pass wall s / mean probe ms: " + " ".join(
        f"{w:.4f}/{1e3 * m:.3f}" for w, m in raw))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for msg in ops.messages:
        print(f"failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": ops.wrong == 0, "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
