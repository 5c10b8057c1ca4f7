"""Tests for the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import pytest

import run
import workloads as wl
from measure import (
    DROP_REASONS,
    MIN_BEYOND,
    MIN_SAMPLES,
    PROBE_REFERENCE_SECONDS,
    TAIL_LADDER,
    Accounting,
    f1_percent,
    latency_summary,
    percentile,
    probe_seconds,
    reference_seconds,
    samples_beyond,
    tail_percentile,
)


# -- tail percentile -----------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_is_highest_ladder_step_with_ten_beyond(n, expected):
    chosen = tail_percentile(n)
    assert chosen == expected
    assert samples_beyond(n, chosen) >= MIN_BEYOND
    higher = [p for p in TAIL_LADDER if p > chosen]
    assert all(samples_beyond(n, p) < MIN_BEYOND for p in higher)


def test_too_few_samples_have_no_tail():
    assert tail_percentile(MIN_SAMPLES - 1) is None
    with pytest.raises(ValueError):
        latency_summary([0.001] * (MIN_SAMPLES - 1))


def test_latency_summary_reports_percentile_and_count():
    seconds = [i / 1000 for i in range(1, 201)]  # 1..200 ms
    summary = latency_summary(seconds)
    assert summary["tail_percentile"] == 90.0
    assert summary["samples"] == 200
    assert summary["beyond"] == 20
    assert summary["p50_ms"] == pytest.approx(100.0)
    assert summary["tail_ms"] == pytest.approx(180.0)
    assert percentile(seconds, 100.0) == 0.2


# -- host-speed rescaling and rates ----------------------------------------
def test_reference_seconds_rescales_by_the_probe_mean():
    ref = PROBE_REFERENCE_SECONDS
    assert reference_seconds(1.0, ref, ref) == pytest.approx(1.0)
    assert reference_seconds(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert reference_seconds(3.0, ref, 2 * ref) == pytest.approx(2.0)
    assert probe_seconds() > 0


def test_window_rates_count_every_call():
    window = run.Window(
        wall=[0.2, 0.4], latencies=[0.1, 0.3], documents=[2, 6], mentions=[4, 4]
    )
    assert window.docs_per_s() == pytest.approx(8 / 0.4)
    assert window.docs_per_s(wall=True) == pytest.approx(8 / 0.6)
    assert window.mentions_per_s() == pytest.approx(8 / 0.4)


# -- accounting ------------------------------------------------------------
def test_accounting_identity_and_failed_share():
    acc = Accounting(window=100)
    complete = [
        acc.add_document([(0, 1), (5, 6)], [(0, 1), (5, 6)], raised=False),
        acc.add_document([(10, 12), (99, 101)], [(10, 12)], raised=False),
        acc.add_document([(3, 4)], [], raised=False),
        acc.add_document([(1, 2), (7, 8)], [], raised=True),
        acc.add_document([], [], raised=False),
    ]
    assert complete == [True, False, False, False, True]
    assert acc.balanced()
    assert acc.detected == 7
    assert acc.answered == 3
    assert acc.dropped == {
        "beyond_encode_window": 1, "call_raised": 2, "other": 1,
    }
    assert set(acc.dropped) == set(DROP_REASONS)
    assert acc.documents == 5
    assert acc.failed_documents == 3
    assert acc.failed_share == pytest.approx(3 / 5)
    assert acc.answered_share == pytest.approx(3 / 7)


def test_f1_from_counts():
    assert f1_percent(0, 0, 0) == 0.0
    assert f1_percent(3, 4, 6) == pytest.approx(60.0)


# -- seeded inputs ---------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_fixture():
    return wl.build_fixture(wl.TINY, trained=True)


@pytest.mark.parametrize(
    "make", [wl.page_documents, wl.sentence_documents, wl.eval_chunks]
)
def test_inputs_are_a_function_of_the_seed(tiny_fixture, make):
    def plain(items):
        return [
            [(s.tokens, s.mentions) for s in item] if isinstance(item, list) else item
            for item in items
        ]

    first = plain(make(tiny_fixture, 1))
    assert first
    assert first == plain(make(tiny_fixture, 1))
    assert first != plain(make(tiny_fixture, 2))


def test_train_shards_are_a_function_of_the_seed():
    def order(seed):
        return [list(s) for s in wl.train_shards(200, wl.TINY, seed)]

    assert order(1) == order(1)
    assert order(1) != order(2)
    assert all(len(s) == wl.TINY.train_sentences_per_call for s in order(1))


# -- smoke runs ------------------------------------------------------------
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    from repro.core.annotator import BootlegAnnotator

    report = run.run(name, seed=1, seconds=0.2, trace=trace, scale=wl.TINY)
    assert report["correct"], report.get("failure")
    assert report["failed"] == 0
    line = run.result_line(report, trace)
    names = run.metric_units("per_layer" if trace else "end_to_end")
    assert list(line["metrics"]) == list(names)
    assert line["attempted"] >= MIN_SAMPLES
    if not trace:
        for metric in line["metrics"].values():
            assert metric["value"] > 0
    assert not hasattr(BootlegAnnotator.annotate_batch, "__wrapped__")


def test_no_child_process_outlives_a_run():
    import multiprocessing
    import os
    from multiprocessing import resource_tracker

    report = run.run("evaluate-pool", seed=1, seconds=0.2, trace=False, scale=wl.TINY)
    assert report["correct"], report.get("failure")
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    run.stop_child_processes()
    assert multiprocessing.active_children() == []
    assert tracker._fd is None
    if pid is not None:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
