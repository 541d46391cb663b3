"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import pytest  # noqa: E402

import outputs  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, WorkloadRun, page_window  # noqa: E402


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, 50.0),
        (37, 50.0),
        (38, 75.0),
        (91, 75.0),
        (92, 90.0),
        (181, 90.0),
        (182, 95.0),
        (901, 95.0),
        (902, 99.0),
        (9001, 99.0),
        (9002, 99.9),
    ],
)
def test_tail_percentile_ladder(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 37, 100, 101, 250, 1000, 4321])
def test_tail_leaves_ten_samples_beyond_and_the_next_rung_does_not(n):
    p = stats.tail_percentile(n)
    values = list(range(n))  # distinct, so "beyond" is unambiguous
    cut = stats.percentile(values, p)
    assert sum(1 for v in values if v > cut) == stats.samples_beyond(n, p)
    assert stats.samples_beyond(n, p) >= stats.MIN_BEYOND
    higher = [q for q in stats.LADDER if q > p]
    if higher:
        assert stats.samples_beyond(n, min(higher)) < stats.MIN_BEYOND


def test_percentile_matches_inclusive_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert stats.percentile(values, 25) == pytest.approx(q1)
    assert stats.percentile(values, 50) == pytest.approx(q2)
    assert stats.percentile(values, 75) == pytest.approx(q3)
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 9.0


# -- span self time ----------------------------------------------------------


def test_self_time_subtracts_merged_children():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),  # overlaps a: covered is [1, 5], not 2 + 3
        ("a.child", 1.5, 2.0, 1),  # grandchild: only subtracted from a
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 3.0, 0.5])


def test_self_time_clips_children_to_parent():
    spans = [("root", 2.0, 4.0, None), ("late", 3.0, 9.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([1.0, 6.0])


def test_self_times_sum_to_root_duration():
    ticks = iter(range(100))
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    outer = recorder.begin("measure_visit_outcome")
    for _ in range(2):
        page = recorder.begin("measure_page")
        recorder.end(recorder.begin("browser.visit"))
        recorder.end(page)
    recorder.end(outer)
    total = recorder.spans[outer][2] - recorder.spans[outer][1]
    assert sum(tracing.self_times(recorder.spans)) == pytest.approx(total)


def test_span_recorder_visit_ids_and_parents():
    recorder = tracing.SpanRecorder(clock=lambda: 0.0)
    # A store miss, then the simulation: one visit.
    recorder.end(recorder.begin("store.get"))
    outer = recorder.begin("measure_visit_outcome")
    inner = recorder.begin("measure_page")
    recorder.end(inner)
    recorder.end(outer)
    recorder.end(recorder.begin("add_outcome"))
    recorder.end(recorder.begin("store.put_batch"))  # flush after the fold
    # A replayed visit.
    recorder.end(recorder.begin("store.get"))
    recorder.end(recorder.begin("add_outcome"))
    names = [(s[0], s[3], s[4]) for s in recorder.spans]
    assert names == [
        ("store.get", None, 1),
        ("measure_visit_outcome", None, 1),
        ("measure_page", 1, 1),
        ("add_outcome", None, 1),
        ("store.put_batch", None, 1),
        ("store.get", None, 2),
        ("add_outcome", None, 2),
    ]


# -- profile aggregation -----------------------------------------------------


def test_package_of():
    src = os.path.join(os.sep, "x", "src")
    assert tracing.package_of(os.path.join(src, "repro", "netsim", "link.py"), src) == "netsim"
    assert tracing.package_of(os.path.join(src, "repro", "scenario.py"), src) == "repro"
    assert tracing.package_of("~", src) == "builtins"
    assert tracing.package_of("/usr/lib/python3.11/json/decoder.py", src) == "builtins"


# -- digests -------------------------------------------------------------------


def _two_page_run(name: str, tmp_path, label: str) -> WorkloadRun:
    run = WorkloadRun(WORKLOADS[name], seed=0, workdir=str(tmp_path / label), window=2)
    run.setup()
    return run


def test_digest_is_stable_across_identical_runs(tmp_path):
    digests = []
    for label in ("first", "second"):
        run = _two_page_run("clean-campaign", tmp_path, label)
        try:
            result = run.run_pass()
            assert outputs.failed_visits(result, run.pages) == (0, [])
            digests.append(outputs.digest(result.paired_visits))
            digests.append(outputs.digest(run.run_pass().paired_visits))
        finally:
            run.close()
    assert len(set(digests)) == 1


def test_replay_equals_cold_fill_and_clean_campaign(tmp_path):
    clean = _two_page_run("clean-campaign", tmp_path, "clean")
    replay = _two_page_run("store-replay", tmp_path, "replay")
    try:
        expected = outputs.digest(clean.run_pass().paired_visits)
        assert outputs.digest(replay.fill.paired_visits) == expected
        replayed = replay.run_pass()
        assert replayed.store_stats.hits == 2 and replayed.store_stats.misses == 0
        assert outputs.digest(replayed.paired_visits) == expected
    finally:
        clean.close()
        replay.close()


def test_structural_check_flags_a_missing_mode(tmp_path):
    run = _two_page_run("clean-campaign", tmp_path, "broken")
    try:
        result = run.run_pass()
        result.paired_visits[1].h3 = result.paired_visits[1].h2
        failed, problems = outputs.failed_visits(result, run.pages)
        assert failed == 1 and any("h3-enabled visit missing" in p for p in problems)
    finally:
        run.close()


def test_page_window_is_seeded_and_stratified():
    run = WorkloadRun(WORKLOADS["clean-campaign"], seed=0, workdir="unused")
    from repro.web.topsites import GeneratorConfig, cached_universe
    from workloads import universe_seed

    universe = cached_universe(GeneratorConfig(), seed=universe_seed(0))
    window = page_window(universe, 0, run.window)
    assert window == page_window(universe, 0, run.window)
    assert window != page_window(universe, 1, run.window)
    assert len(set(window)) == run.window
    sizes = sorted(len(universe.pages[i].resources) for i in window)
    ranked = sorted(len(p.resources) for p in universe.pages)
    n = len(ranked)
    for k, size in enumerate(sizes):
        lo, hi = k * n // run.window, (k + 1) * n // run.window
        assert ranked[lo] <= size <= ranked[hi - 1]


# -- host-speed normalisation ------------------------------------------------


def test_timeline_scales_intervals_by_nearby_calibrations():
    import hostspeed

    timeline = hostspeed.Timeline()
    slow = 2 * hostspeed.CAL_REF_S
    timeline.entries = [
        ("cal", slow, slow),
        ("visit", 0.2, 0.1),
        ("cal", slow, slow),
        ("cal", slow, slow),
        ("cal", 50 * slow, 50 * slow),  # one disturbed calibration
        ("visit", 0.4, 0.4),
        ("cal", slow, slow),
        ("cal", slow, slow),
    ]
    rows = timeline.normalised()
    assert [kind for kind, _, _ in rows] == ["visit", "visit"]
    # The kernel ran at half the reference speed; the outlier is outvoted.
    factor = 0.5 ** hostspeed.CAL_EXPONENT
    assert rows[0][1:] == pytest.approx((0.2 * factor, 0.1 * factor))
    assert rows[1][1:] == pytest.approx((0.4 * factor, 0.4 * factor))
