"""Run one benchmark workload from a seed and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload annotate-pages --seed 1 \
        --seconds 10 --trace 0

Workloads: annotate-pages, annotate-cascade, evaluate-pool, train (see
``workloads.py`` and ``perfbench/README.md``). One client sends
closed-loop calls of a fixed number of documents for ``--seconds`` of
measured call time. Each call and each set-up is bracketed by a fixed
host-speed probe, and the reported times are rescaled to the reference
host speed (``measure.reference_seconds``); the wall-clock figures are
printed beside them. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends half the time untraced and half with every
layer's public call wrapped, and reports the per-layer metrics plus
the tracing overhead. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread per process, set before numpy loads: the owner is one
# client and each pool worker one process, so the benchmark's processes
# map onto cores. Multi-threaded BLAS on a small shared box turns
# another tenant's load into stalls of every matrix product.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    the order BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[kind]}


@dataclasses.dataclass
class Window:
    """Closed-loop calls of one measured window, in call order.

    ``wall`` holds each call's wall seconds and ``latencies`` the same
    times at the reference host speed (``measure.reference_seconds``),
    which the end-to-end metrics use.
    """

    wall: list = dataclasses.field(default_factory=list)
    latencies: list = dataclasses.field(default_factory=list)
    documents: list = dataclasses.field(default_factory=list)
    mentions: list = dataclasses.field(default_factory=list)
    failed: int = 0

    @property
    def wall_seconds(self) -> float:
        return sum(self.wall)

    def docs_per_s(self, wall: bool = False) -> float:
        return self._rate(self.documents, wall)

    def mentions_per_s(self, wall: bool = False) -> float:
        return self._rate(self.mentions, wall)

    def _rate(self, counts: list, wall: bool) -> float:
        """Count per second of call time over every call in the window."""
        return sum(counts) / sum(self.wall if wall else self.latencies)


def probed(operation) -> tuple:
    """Run ``operation()`` between two host probes.

    Returns (output, error, wall seconds, reference seconds); an
    exception the operation raises is returned, not raised.
    """
    from measure import probe_seconds, reference_seconds

    before = probe_seconds()
    output = error = None
    started = time.perf_counter()
    try:
        output = operation()
    except Exception as raised:  # reported as a failed operation
        error = raised
    wall = time.perf_counter() - started
    return output, error, wall, reference_seconds(wall, before, probe_seconds())


def run_window(workload, seconds: float, min_calls: int, start: int) -> Window:
    """Call until ``seconds`` of wall call time and ``min_calls`` calls.

    Only the calls are timed; the probes and the checks in ``absorb``
    run between them. A call that raises is counted as failed and ends
    the window through the CheckFailed its ``absorb`` raises.
    """
    window = Window()
    index = start
    while window.wall_seconds < seconds or len(window.latencies) < min_calls:
        output, error, wall, reference = probed(lambda: workload.call(index))
        window.wall.append(wall)
        window.latencies.append(reference)
        if error is not None:
            window.failed += 1
        result = workload.absorb(index, output, error)
        window.documents.append(result.documents)
        window.mentions.append(result.mentions)
        index += 1
    return window


def end_to_end(workload, window: Window) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics but ``setup_s``, plus the
    latency detail."""
    from measure import latency_summary

    latency = latency_summary(window.latencies)
    f1_all, f1_tail = workload.quality()
    metrics = {
        "docs_per_s": window.docs_per_s(),
        "mentions_per_s": window.mentions_per_s(),
        "call_ms.p50": latency["p50_ms"],
        "call_ms.tail": latency["tail_ms"],
        "answered_share": workload.answered_share(),
        "f1.all": f1_all,
        "f1.tail": f1_tail,
        "peak_rss_mb": workload.rss_mb(),
    }
    return metrics, latency


def run(name: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    """Run one workload; returns the result line plus printable detail."""
    import workloads as wl
    from measure import MIN_SAMPLES, fingerprint, reset_peak_rss
    from tracing import LayerTracer, install_layer_hooks, layer_metrics

    scale = scale or wl.Scale()
    started = time.perf_counter()
    fixture = wl.build_fixture(scale, trained=wl.needs_trained_model(name))
    fixture_seconds = time.perf_counter() - started
    reset_peak_rss()
    workload = wl.WORKLOADS[name](fixture, seed, trace)
    report = {
        "fingerprint": fingerprint(ROOT, seed, fixture_seconds),
        "workload": name,
        "details": workload.details,
    }
    windows: list[Window] = []
    try:
        setup_times, setup_wall = [], []

        def set_up() -> None:
            _, error, wall, reference = probed(workload.setup)
            if error is not None:
                raise error
            setup_wall.append(wall)
            setup_times.append(reference)

        set_up()
        min_calls = max(MIN_SAMPLES, workload.min_calls)
        span = seconds / 2 if trace else seconds
        windows.append(run_window(workload, span, min_calls, 0))
        if trace:
            tracer = LayerTracer()
            install_layer_hooks(tracer)
            try:
                windows.append(
                    run_window(
                        workload, span, MIN_SAMPLES, len(windows[0].latencies)
                    )
                )
            finally:
                tracer.restore()
        workload.finish()
        metrics, latency = end_to_end(workload, windows[0])
        # The other set-ups run after the measured windows: training ran
        # ~20% slower after nine set-ups than after one, a state no
        # one-set-up user sees.
        while (
            len(setup_times) < scale.setup_reps
            or sum(setup_wall) < scale.setup_seconds
        ):
            workload.close()
            set_up()
        report["end_to_end"] = {"setup_s": statistics.median(setup_times), **metrics}
        report["latency"] = latency
        report["setup_seconds"] = setup_times
        report["wall"] = {
            "setup_s": statistics.median(setup_wall),
            "docs_per_s": windows[0].docs_per_s(wall=True),
            "mentions_per_s": windows[0].mentions_per_s(wall=True),
            **latency_of(windows[0].wall),
        }
        if trace:
            traced = windows[1]
            report["traced"] = {
                "docs_per_s": traced.docs_per_s(),
                "mentions_per_s": traced.mentions_per_s(),
                **latency_of(traced.latencies),
            }
            layers = dict.fromkeys(metric_units("per_layer"), 0.0)
            layers.update(layer_metrics(tracer, traced.wall_seconds))
            layers.update(workload.trace_metrics)
            layers.update(_accounting_layers(workload.details.get("accounting", {})))
            layers["trace.wall_s"] = traced.wall_seconds
            layers["trace.overhead_share"] = (
                windows[0].docs_per_s() / traced.docs_per_s() - 1.0
            )
            report["per_layer"] = layers
        report["correct"] = True
    except wl.CheckFailed as failure:
        report["correct"] = False
        report["failure"] = str(failure)
    finally:
        workload.close()
    report["attempted"] = sum(len(w.latencies) for w in windows) or 1
    report["failed"] = sum(w.failed for w in windows)
    return report


def latency_of(seconds: list) -> dict:
    from measure import latency_summary

    summary = latency_summary(seconds)
    return {"call_ms.p50": summary["p50_ms"], "call_ms.tail": summary["tail_ms"]}


def _accounting_layers(accounting: dict) -> dict:
    layers = {
        f"accounting.dropped.{reason}": count
        for reason, count in accounting.get("dropped", {}).items()
    }
    for key in ("detected", "answered", "failed_share"):
        if key in accounting:
            layers[f"accounting.{key}"] = accounting[key]
    return layers


def result_line(report: dict, trace: bool) -> dict:
    """The final stdout line the contract asks for."""
    metrics = {}
    if report["correct"]:
        kind = "per_layer" if trace else "end_to_end"
        metrics = {
            name: {"value": report[kind][name], "unit": unit}
            for name, unit in metric_units(kind).items()
        }
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def describe(report: dict) -> list[str]:
    """Human-readable lines printed before the result line."""
    lines = [f"fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}"]
    lines.append(f"workload {report['workload']}")
    if not report["correct"]:
        lines.append(f"CHECK FAILED: {report['failure']}")
        return lines
    units = metric_units("end_to_end")
    latency = report["latency"]
    lines.append("end-to-end (untraced; times at the reference host speed):")
    for name, value in report["end_to_end"].items():
        note = ""
        if name == "call_ms.tail":
            note = (
                f"  (p{latency['tail_percentile']:g}, {latency['beyond']} of "
                f"{latency['samples']} samples beyond)"
            )
        lines.append(f"  {name:<16} {value:12.4f} {units[name]}{note}")
    lines.append("  wall clock, not rescaled:")
    for name, value in report["wall"].items():
        lines.append(f"    {name:<14} {value:12.4f} {units[name]}")
    details = report["details"]
    accounting = details.get("accounting", {})
    if "failed_share" in accounting:
        lines.append(f"  {'failed_share':<16} {accounting['failed_share']:12.4f} ratio")
    if "train_loss" in details:
        e2e = report["end_to_end"]
        lines.append(f"  {'sentences_per_s':<16} {e2e['docs_per_s']:12.4f} sent/s")
        lines.append(f"  {'train_loss':<16} {details['train_loss']:12.4f} loss")
    lines.append(f"  setup runs (s): {[round(s, 4) for s in report['setup_seconds']]}")
    lines.append(f"accounting {json.dumps(accounting, sort_keys=True)}")
    if "probe" in details:
        probe = json.dumps(details["probe"], sort_keys=True)
        lines.append(f"blank-document probe {probe}")
    if "traced" in report:
        traced = report["traced"]
        e2e = report["end_to_end"]
        lines.append("traced vs untraced:")
        for name in ("docs_per_s", "mentions_per_s", "call_ms.p50", "call_ms.tail"):
            lines.append(
                f"  {name:<16} traced {traced[name]:12.4f}  untraced {e2e[name]:12.4f}"
            )
        lines.append("per-layer (traced window):")
        for name, unit in metric_units("per_layer").items():
            lines.append(f"  {name:<40} {report['per_layer'][name]:14.6f} {unit}")
    lines.append("checks passed")
    return lines


def stop_child_processes() -> None:
    """End every process the run started and wait for each.

    Fixture training runs in a spawned child and the pool keeps its
    payload in shared memory; either starts multiprocessing's resource
    tracker, which by design outlives its parent. Closing the tracker's
    pipe makes it exit, and waiting reaps it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is None:
        return
    os.close(tracker._fd)
    tracker._fd = None
    if tracker._pid is not None:
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for variable in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(wl.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_child_processes()
    for line in describe(report):
        print(line)
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
