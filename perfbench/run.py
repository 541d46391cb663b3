"""Campaign throughput benchmark for the H2-vs-H3 simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clean-campaign --seed 0 --seconds 20 --trace 0

Workloads are ``clean-campaign``, ``lossy-campaign`` and
``store-replay`` (see ``perfbench/README.md``).  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  Either way the outputs of every measured visit are
checked, and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

The command exits 0 only when every output was correct.  Each run's
full record (environment, metrics, context, check) is also written to
``.perfbench/results/``; ``perfbench/compare.py`` compares records.

Every workload runs in processes of its own: one that sets up and
measures, plus (untraced) further set-up-only processes, so that
``setup_s`` is the median of several cold starts and ``peak_rss_mb``
is one process's high-water mark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: ``workloads.WORKLOADS`` by name; this process imports nothing from
#: the simulator, so a checkout without it fails cleanly.
WORKLOADS = ("clean-campaign", "lossy-campaign", "store-replay")

#: Cold starts per untraced run whose median is ``setup_s``.
SETUP_SAMPLES = 3

#: The event kernel every comparable run must use.  Without a C
#: compiler the simulator silently falls back to the pure-Python
#: calendar queue, a double-digit swing on its own, so a run on any
#: other kernel is refused rather than reported.
REQUIRED_KERNEL = "CEventLoop"

#: Wall budget for one run after the build (the contract allows 180 s).
RUN_BUDGET_S = 170.0
#: Wall budget for the first import, which may compile the C kernel.
BUILD_BUDGET_S = 800.0


class BenchError(Exception):
    """A run that cannot produce a result."""


def _worker(role: str, args, workdir: str, timeout: float) -> tuple[dict, float]:
    """Run one worker process; returns its report and its spawn time."""
    command = [
        sys.executable, WORKER, "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, timeout), check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{role} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} worker printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1]), spawned


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """BLAKE2b over ``src/``'s Python and C sources (works without git)."""
    h = hashlib.blake2b(digest_size=12)
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".c")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()


def _environment(kernel: str) -> dict:
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count() or 1
    return {
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "python": platform.python_version(),
        "nproc": nproc,
        "events.kernel": kernel,
    }


def bench(args) -> tuple[dict, bool]:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError(f"no simulator sources under {ROOT}/src/repro")
    workdir = os.path.join(ROOT, ".perfbench", "work", str(os.getpid()))
    try:
        return _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, workdir: str) -> tuple[dict, bool]:
    build, _ = _worker("prebuild", args, workdir, BUILD_BUDGET_S)
    kernel = build["kernel"]
    if kernel != REQUIRED_KERNEL:
        raise BenchError(
            f"event kernel {kernel} loaded, {REQUIRED_KERNEL} required "
            "(set REPRO_CKERNEL_DEBUG=1 to see why the C kernel failed)"
        )
    deadline = time.monotonic() + RUN_BUDGET_S
    report, spawned = _worker("measure", args, workdir, deadline - time.monotonic())
    if report["kernel"] != kernel:
        raise BenchError(f"measuring worker loaded {report['kernel']}")
    metrics = report["metrics"]
    context = report["context"]
    if not args.trace:
        samples = [(report, spawned)]
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(
                _worker("setup", args, workdir, deadline - time.monotonic())
            )
        raw = [sample["ready_at"] - at for sample, at in samples]
        setups = [
            (sample["started_at"] - at) * sample["boot_speed"] + sample["setup_s"]
            for sample, at in samples
        ]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
        context["setup_samples_s"] = setups
        context["raw_setup_samples_s"] = raw
    check = report["check"]
    attempted = check["attempted"]
    failed = check["failed"]
    if not args.trace:
        metrics["ok_visit_frac"] = (1.0 - failed / attempted, "ratio")
    correct = failed == 0 and not check["problems"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(kernel),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "context": context,
        "check": check,
        "failed_visit_frac": failed / attempted,
        "correct": correct,
    }
    return record, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="H2-vs-H3 campaign benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record, correct = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for problem in record["check"]["problems"]:
        print(f"perfbench: output check: {problem}", file=sys.stderr)
    print(json.dumps({
        "environment": record["environment"],
        "context": record["context"],
        "failed_visit_frac": record["failed_visit_frac"],
        "digest": record["check"]["digest"],
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": record["check"]["attempted"],
        "failed": record["check"]["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
