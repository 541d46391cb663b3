"""One benchmark process: set a workload up, then measure it.

``run.py`` starts this script once per role:

``prebuild``
    Import the simulator (compiling bytecode and the C event kernel
    into the checkout) and report which event kernel loaded.
``setup``
    Do the workload's set-up only and report when it finished; the
    parent turns that into one ``setup_s`` sample.
``measure``
    Set up, then measure: the untraced timed phase (``--trace 0``), or
    an untraced, a traced and a profiled phase (``--trace 1``).

Times are normalised to the reference host's speed (``hostspeed``);
the raw figures are reported beside them.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Calibrations at each end of set-up; their median (with any taken
#: during set-up) scales the set-up time, robust to one disturbed run.
SETUP_CALIBRATIONS = 5


class VisitClock:
    """Host cost of every paired visit, between ``add_outcome`` calls.

    The interval from one fold to the next is one paired visit's cost:
    simulation for simulated visits, lookup + decode + fold for
    replayed ones.  A pass's first interval starts at :meth:`anchor`;
    whatever ``execute`` does after the last fold is the pass's
    ``tail``.  Calibrations run between visits, outside the intervals.
    """

    def __init__(self, timeline: hostspeed.Timeline) -> None:
        self.timeline = timeline
        self.calibrating = True
        self._wall = self._cpu = 0.0
        self._restore = None

    def install(self) -> None:
        """Wrap ``add_outcome`` as it is now (outermost, so calibrations
        stay outside any span wrapped around it)."""
        from repro.measurement.summary import CampaignSummary

        original = CampaignSummary.add_outcome
        clock = self

        def add_outcome(summary, *args, **kwargs):
            result = original(summary, *args, **kwargs)
            clock.mark("visit")
            return result

        CampaignSummary.add_outcome = add_outcome
        self._restore = original

    def restore(self) -> None:
        from repro.measurement.summary import CampaignSummary

        CampaignSummary.add_outcome = self._restore

    def anchor(self) -> None:
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def mark(self, kind: str) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.timeline.add(kind, wall - self._wall, cpu - self._cpu)
        if self.calibrating and self.timeline.due():
            self.timeline.calibrate()
            wall, cpu = time.perf_counter(), time.process_time()
        self._wall, self._cpu = wall, cpu


class Checker:
    """Applies :mod:`outputs` to every pass and tallies failures."""

    def __init__(self, workload: str, seed: int, pages) -> None:
        import outputs
        from workloads import DEFAULT_SEED

        self.outputs = outputs
        self.pages = pages
        self.pinned = outputs.PINNED[workload] if seed == DEFAULT_SEED else None
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result, label: str) -> None:
        failed, problems = self.outputs.failed_visits(result, self.pages)
        found = self.outputs.digest(result.paired_visits)
        if self.reference is None:
            self.reference = found
            if self.pinned is not None and found != self.pinned:
                problems.append(f"{label}: digest {found} != pinned {self.pinned}")
        elif found != self.reference:
            problems.append(f"{label}: digest {found} != first pass {self.reference}")
        if problems and not failed:
            # A wrong digest means at least one visit's output is wrong.
            failed = 1
        self.attempted += len(self.pages)
        self.failed += failed
        self.problems.extend(problems)


class Phase:
    """One timed phase: whole passes over the window."""

    def __init__(self, timeline: hostspeed.Timeline) -> None:
        self.timeline = timeline
        self.passes = 0
        self.visits = 0
        self.execute_s = 0.0
        self.last = None

    def raw(self) -> tuple[float, float]:
        """Total measured wall and CPU seconds, as the host ran them."""
        rows = [e for e in self.timeline.entries if e[0] != "cal"]
        return sum(r[1] for r in rows), sum(r[2] for r in rows)

    def normalised(self) -> tuple[list[float], float, float]:
        """Per-visit wall ms and the phase's total wall and CPU seconds,
        all at reference host speed."""
        rows = self.timeline.normalised()
        visit_ms = [wall * 1000.0 for kind, wall, _ in rows if kind == "visit"]
        return visit_ms, sum(r[1] for r in rows), sum(r[2] for r in rows)


def run_phase(run, checker, clock, seconds: float, label: str, profiler=None) -> Phase:
    """Run whole passes until ``seconds`` of ``execute`` time have elapsed.

    Checking outputs and deleting a pass's store files happen outside
    the measured intervals.
    """
    timeline = clock.timeline = hostspeed.Timeline()
    timeline.calibrate()
    phase = Phase(timeline)
    while phase.passes == 0 or phase.execute_s < seconds:
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        clock.anchor()
        result = run.run_pass()
        clock.mark("tail")
        phase.execute_s += time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        timeline.calibrate()
        phase.passes += 1
        phase.visits += len(result.paired_visits) + len(result.failures)
        phase.last = result
        checker.check(result, f"{label} pass {phase.passes}")
        run.discard_pass_files()
    return phase


def end_to_end(phase: Phase, workload, seconds: float) -> tuple[dict, dict]:
    import stats

    visit_ms, wall_s, cpu_s = phase.normalised()
    raw_wall_s, raw_cpu_s = phase.raw()
    n = len(visit_ms)
    # A run too short for any tail reports its median as the tail.
    tail = stats.tail_percentile(int(workload.nominal_visits_per_s * seconds)) or 50.0
    metrics = {
        "visits_per_s": (phase.visits / wall_s, "1/s"),
        "visits_per_cpu_s": (phase.visits / cpu_s, "1/s"),
        "visit_ms_p50": (stats.percentile(visit_ms, 50.0), "ms"),
        "visit_ms_tail": (stats.percentile(visit_ms, tail), "ms"),
    }
    summary = phase.last.summary
    context = {
        "tail_percentile": tail,
        "visit_samples": n,
        "samples_beyond_tail": stats.samples_beyond(n, tail),
        "passes": phase.passes,
        "raw_visits_per_s": phase.visits / raw_wall_s,
        "raw_visits_per_cpu_s": phase.visits / raw_cpu_s,
        "calibration_ms_p50": 1000.0 * statistics.median(
            w for w, _ in phase.timeline.calibrations()
        ),
        "h3_win_rate": summary.h3_win_rate,
        "mean_reduction_ms": summary.mean_reduction_ms,
    }
    return metrics, context


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(probe, traced: Phase, base: Phase, profile: dict, universe_s: float) -> dict:
    import stats
    import tracing

    c = probe.counts
    v = traced.visits
    spans = probe.spans

    def per_visit(key: str) -> float:
        return _ratio(c[key], v)

    visit_ms = [d * 1000.0 for d in spans.durations("browser.visit")]
    get_ms = [d * 1000.0 for d in spans.durations("store.get")]
    fold_ms = sum(spans.durations("add_outcome")) * 1000.0
    put_ms = sum(spans.durations("store.put_batch")) * 1000.0
    traced_rate = traced.visits / traced.normalised()[2]
    base_rate = base.visits / base.normalised()[2]
    metrics = {
        "events.dispatched_per_visit": (per_visit("events.dispatched"), "count"),
        "events.timer_arms_per_visit": (per_visit("events.timer_arms"), "count"),
        "events.timer_cancels_per_visit": (per_visit("events.timer_cancels"), "count"),
        "netsim.transmits_per_visit": (per_visit("netsim.transmits"), "count"),
        "netsim.delivered_ratio": (
            _ratio(c["netsim.delivered"], c["netsim.transmits"]), "ratio"),
        "transport.packets_sent_per_visit": (per_visit("transport.packets_sent"), "count"),
        "transport.acks_per_visit": (per_visit("transport.acks"), "count"),
        "transport.retransmissions_per_visit": (
            per_visit("transport.retransmissions"), "count"),
        "transport.pto_fired_per_visit": (per_visit("transport.pto_fired"), "count"),
        "transport.hol_stall_ms_per_visit": (per_visit("transport.hol_stall_ms"), "ms"),
        "transport.fast_path_epochs_per_visit": (
            per_visit("transport.fast_path_epochs"), "count"),
        "tls.ticket_hit_ratio": (
            _ratio(c["tls.ticket_hits"], c["tls.ticket_lookups"]), "ratio"),
        "tls.handshakes_per_visit": (per_visit("tls.handshakes"), "count"),
        "dns.hit_ratio": (_ratio(c["dns.hits"], c["dns.resolves"]), "ratio"),
        "http.requests_per_visit": (per_visit("http.requests"), "count"),
        "http.connections_per_visit": (per_visit("http.connections"), "count"),
        "http.reuse_ratio": (_ratio(c["http.reused"], c["http.requests"]), "ratio"),
        "http.failed_requests_per_visit": (per_visit("http.failed_requests"), "count"),
        "browser.visit_ms_p50": (
            stats.percentile(visit_ms, 50.0) if visit_ms else 0.0, "ms"),
        "cdn.serve_calls_per_visit": (
            _ratio(c["cdn.edge_serves"] + c["cdn.origin_serves"], v), "count"),
        "cdn.edge_hit_ratio": (_ratio(c["cdn.edge_hits"], c["cdn.edge_serves"]), "ratio"),
        "measurement.fold_ms_per_visit": (_ratio(fold_ms, v), "ms"),
        "store.get_ms_p50": (stats.percentile(get_ms, 50.0) if get_ms else 0.0, "ms"),
        "store.put_batch_ms_per_visit": (_ratio(put_ms, v), "ms"),
        "store.hit_ratio": (_ratio(c["store.hits"], len(get_ms)), "ratio"),
        "web.universe_s": (universe_s, "s"),
        "trace.overhead_pct": (100.0 * (base_rate / traced_rate - 1.0), "%"),
    }
    for package in tracing.PROFILED + ("builtins",):
        metrics[f"{package}.self_pct"] = (profile.get(package, 0.0), "%")
    return metrics


def measure(args, run, checker, clock, probe) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    gc.collect()
    gc.freeze()
    if probe is None:
        phase = run_phase(run, checker, clock, args.seconds, "timed")
        metrics, context = end_to_end(phase, workload, args.seconds)
        return {"metrics": metrics, "context": context}

    import cProfile
    import pstats

    import tracing

    universe_s = sum(probe.spans.durations("web.universe"))
    share = args.seconds / 3.0
    base = run_phase(run, checker, clock, share, "untraced")
    probe.reset()
    clock.restore()
    probe.install()
    clock.install()
    try:
        traced = run_phase(run, checker, clock, share, "traced")
    finally:
        clock.restore()
        probe.restore()
        clock.install()
    profiler = cProfile.Profile()
    clock.calibrating = False
    run_phase(run, checker, clock, share, "profiled", profiler=profiler)
    profile = tracing.self_time_by_package(pstats.Stats(profiler), SRC)
    metrics = per_layer(probe, traced, base, profile, universe_s)
    spans_path = os.path.join(
        ROOT, ".perfbench", "spans", f"{args.workload}-seed{args.seed}.jsonl"
    )
    probe.spans.write_jsonl(spans_path)
    self_ms: dict[str, float] = {}
    for span, own in zip(probe.spans.spans, tracing.self_times(probe.spans.spans)):
        self_ms[span[0]] = self_ms.get(span[0], 0.0) + own * 1000.0
    context = {
        "spans_file": os.path.relpath(spans_path, ROOT),
        "traced_passes": traced.passes,
        "span_self_ms_per_visit": {
            name: ms / traced.visits for name, ms in sorted(self_ms.items())
        },
        "self_pct_other": {
            name: pct for name, pct in sorted(profile.items())
            if name not in tracing.PROFILED and name != "builtins"
        },
    }
    return {"metrics": metrics, "context": context}


def main(argv=None) -> int:
    # Calibrate before anything else: set-up starts at process start,
    # and its first interval (imports, universe) needs a host speed.
    started_at = time.monotonic()
    timeline = hostspeed.Timeline()
    for _ in range(SETUP_CALIBRATIONS):
        timeline.calibrate()
    clock = VisitClock(timeline)
    clock.anchor()

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("prebuild", "setup", "measure"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    from repro.events.loop import EventLoop

    if args.role == "prebuild":
        import repro.measurement  # noqa: F401
        import repro.store  # noqa: F401
        import workloads  # noqa: F401

        print(json.dumps({"kernel": EventLoop.__name__}))
        return 0

    import tracing
    from workloads import WORKLOADS, WorkloadRun

    run = WorkloadRun(WORKLOADS[args.workload], args.seed, args.workdir)
    probe = tracing.LayerProbe() if args.trace and args.role == "measure" else None
    try:
        if probe is not None:
            # Set-up runs traced too, for the universe-generation span.
            probe.install()
        clock.install()
        try:
            run.setup()
        finally:
            clock.restore()
            if probe is not None:
                probe.restore()
        clock.mark("setup")
        ready_at = time.monotonic()
        for _ in range(SETUP_CALIBRATIONS):
            timeline.calibrate()
        boot = statistics.median(w for w, _ in timeline.calibrations()[:SETUP_CALIBRATIONS])
        report = {
            "kernel": EventLoop.__name__,
            "started_at": started_at,
            "ready_at": ready_at,
            # Process start to ready at reference speed, less the time
            # before ``main`` (the parent adds that, scaled by ``boot``).
            "setup_s": sum(wall for _, wall, _ in timeline.normalised()),
            "boot_speed": hostspeed.scale(boot),
        }
        clock.install()
        if args.role == "measure":
            checker = Checker(args.workload, args.seed, run.pages)
            if run.fill is not None:
                checker.check(run.fill, "cold fill")
            report.update(measure(args, run, checker, clock, probe))
            report["check"] = {
                "attempted": checker.attempted,
                "failed": checker.failed,
                "digest": checker.reference,
                "problems": checker.problems[:20],
            }
            report["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
    finally:
        run.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
