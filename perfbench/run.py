"""Benchmark of the dirac_decoherence package (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # each workload in turn, own process

One run is one fresh process on one workload: a closed loop with one client,
each request sent after the previous one has been answered and checked.  The
last line of standard output is a JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1.  The lines above it give the environment and a readable table.
Exit code 0 iff every request passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("trace_n16k", "kernel_n64k", "kernel_desk", "figures_desk")


def _cap_threads(nproc: int) -> None:
    """Cap numpy/BLAS threads at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _llc_size() -> str:
    """Size of the highest-level cache of cpu0, as the kernel reports it."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size))
    return best[1]


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    import dirac_decoherence

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "llc": _llc_size(),
        "backend": dirac_decoherence.BACKEND_NAME,
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _setup_seconds(args) -> float:
    """Median over fresh processes of import plus one cold single-sample request."""
    probes = 1 if args.quick else SETUP_PROBES
    command = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed), str(int(args.quick))]
    return statistics.median(
        float(subprocess.run(command, capture_output=True, text=True, check=True, timeout=120).stdout.split()[-1])
        for _ in range(probes)
    )


def _timed_requests(workload, seconds: float, tracer):
    """Send requests until the next one would end past ``seconds``.

    With a tracer, requests alternate untraced and traced, at least one each.
    Returns (walls, passed, traced) lists, one entry per request.
    """
    walls, passed, traced = [], [], []
    start = time.perf_counter()
    minimum = 1 if tracer is None else 2
    while True:
        i = len(walls)
        is_traced = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        try:
            with tracer.request(i) if is_traced else nullcontext():
                out = workload.request()
            wall = time.perf_counter() - t0
            ok = workload.check(out)
        except Exception:  # a request that raises is a failed request; keep measuring
            wall = time.perf_counter() - t0
            traceback.print_exc()
            ok = False
        walls.append(wall)
        passed.append(ok)
        traced.append(is_traced)
        elapsed = time.perf_counter() - start
        if len(walls) >= minimum and elapsed * (len(walls) + 1) / len(walls) > seconds:
            return walls, passed, traced


def _kind(unit: str) -> str:
    """Measured times; exact counts, which repeat from run to run; counts
    computed from argument shapes; and values derived from these."""
    if unit.endswith("-computed"):
        return "computed"
    return {"s": "measured", "MB": "measured", "count": "exact", "B": "exact"}.get(unit, "derived")


def run_one(args, nproc: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import dirac_decoherence

    package = Path(dirac_decoherence.__file__).resolve()
    if ROOT / "src" not in package.parents:
        raise ImportError(f"dirac_decoherence imported from {package}, not from {ROOT / 'src'}")
    import workloads

    env = environment(args.seed, nproc)
    print("environment:", json.dumps(env))
    setup_s = None if args.trace else _setup_seconds(args)

    workload = workloads.make(args.workload, args.seed, args.quick, args.perturb)
    try:
        workload.cold()
        workload.prepare()
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        walls, passed, traced = _timed_requests(workload, args.seconds, tracer)
    finally:
        workload.close()

    attempted, failed = len(walls), passed.count(False)
    ordered = sorted(walls)
    table = {
        "requests": (attempted, "count"),
        "error_rate": (failed / attempted, "ratio"),
        "request_min_s": (ordered[0], "s"),
        "request_median_s": (statistics.median(ordered), "s"),
    }
    if attempted > 10:  # the highest percentile with ten requests beyond it
        table[f"request_p{100 * (attempted - 10) // attempted}_s"] = (ordered[attempted - 11], "s")
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            # Means, not medians: other tenants' load makes request times
            # bimodal, and the median jumps between the modes (see README.md).
            "wall_s": (sum(walls) / attempted, "s"),
            "samples_per_s": (workload.samples * attempted / sum(walls), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics(
            [w for w, t in zip(walls, traced) if t], [w for w, t in zip(walls, traced) if not t]
        )
        workloads.WORK_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json", env)
    for name, (value, unit) in (metrics | table).items():
        print(f"{args.workload:14s} {name:40s} {value:>16.6g} {unit:14s} {_kind(unit)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        command += ["--quick"] * args.quick + ["--perturb"] * args.perturb
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, one set-up probe (self-tests)")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt the reference so that every check must fail (self-tests)")
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    _cap_threads(nproc)
    result = run_all(args) if args.workload == "all" else run_one(args, nproc)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
