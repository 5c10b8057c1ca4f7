"""Measurement helpers: host-speed probe, latency percentiles, mention
accounting, run fingerprint and peak memory.

Kept free of ``repro`` imports so the unit tests in ``perfbench/tests``
exercise them without building a model.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

# Percentiles the tail metric may report, low to high. The tail is the
# highest of these with at least MIN_BEYOND samples above it, so the
# reported percentile is always backed by real observations.
# Decades keep one percentile over a tenfold range of call counts, so a
# host running faster or slower does not move the tail to another step.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10
# The smallest sample that supports a tail at all (p50 with 10 beyond).
MIN_SAMPLES = 2 * MIN_BEYOND

# On a shared host the core under this process flips, within seconds,
# between a quiet state and one where a neighbour contends for it; every
# timing then moves by up to 1.5x, and the share of contended time drifts
# from one minute to the next. So each timed operation is bracketed by a
# fixed probe that is not program code (interpreter arithmetic plus small
# matrix products), and its wall time is rescaled to the host speed at
# which the probe takes PROBE_REFERENCE_SECONDS. A change to the program
# moves the rescaled time as it moves the wall time; host contention
# moves both the operation and the probe, and mostly cancels.
# About the probe's quiet-state time on a 2-vCPU Intel Xeon host; the
# constant only fixes the scale of the reported times.
PROBE_REFERENCE_SECONDS = 100e-6
PROBE_REPEATS = 3
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((32, 32))

REASON_WINDOW = "beyond_encode_window"
REASON_RAISED = "call_raised"
REASON_OTHER = "other"
DROP_REASONS = (REASON_WINDOW, REASON_RAISED, REASON_OTHER)


def probe_seconds() -> float:
    """Fastest of PROBE_REPEATS runs of the fixed probe; the minimum
    keeps an interrupt during one run from reading as a slow host."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        total = 0.0
        for i in range(1000):
            total += i * 0.5
        for _ in range(10):
            _PROBE_MATRIX @ _PROBE_MATRIX
        best = min(best, time.perf_counter() - started)
    return best


def reference_seconds(wall: float, probe_before: float, probe_after: float) -> float:
    """``wall`` seconds rescaled to the reference host speed, taken as
    the mean of the probes run just before and just after."""
    return wall * PROBE_REFERENCE_SECONDS * 2.0 / (probe_before + probe_after)


def _rank(n: int, p: float) -> int:
    # Rounded first so that, e.g., 99.9% of 10000 is rank 9990, not
    # 9991 through float error.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples
    beyond it, or None when ``n`` is too small for any."""
    chosen = None
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            chosen = p
    return chosen


def latency_summary(seconds: list[float]) -> dict:
    """Median and tail of per-call latencies, in milliseconds."""
    p = tail_percentile(len(seconds))
    if p is None:
        raise ValueError(
            f"{len(seconds)} calls cannot support a tail percentile; "
            f"need at least {MIN_SAMPLES}"
        )
    return {
        "p50_ms": 1000.0 * percentile(seconds, 50.0),
        "tail_ms": 1000.0 * percentile(seconds, p),
        "tail_percentile": p,
        "samples": len(seconds),
        "beyond": samples_beyond(len(seconds), p),
    }


@dataclasses.dataclass
class Accounting:
    """Detected = answered + dropped-by-reason, plus document outcomes.

    ``add_document`` takes the reference mention spans found outside
    the program and the spans the program answered. A document fails
    when its call raised or any detected mention went unanswered;
    ``add_document`` returns whether it was fully answered.
    """

    window: int
    detected: int = 0
    answered: int = 0
    dropped: dict = dataclasses.field(
        default_factory=lambda: dict.fromkeys(DROP_REASONS, 0)
    )
    documents: int = 0
    failed_documents: int = 0

    def add_document(self, detected_spans, answered_spans, raised: bool) -> bool:
        detected = set(detected_spans)
        self.documents += 1
        self.detected += len(detected)
        if raised:
            self.dropped[REASON_RAISED] += len(detected)
            self.failed_documents += 1
            return False
        answered = detected & set(answered_spans)
        self.answered += len(answered)
        missing = detected - answered
        for _, end in missing:
            reason = REASON_WINDOW if end > self.window else REASON_OTHER
            self.dropped[reason] += 1
        if missing:
            self.failed_documents += 1
        return not missing

    def balanced(self) -> bool:
        """The conservation identity: detected = answered + dropped."""
        return self.detected == self.answered + sum(self.dropped.values())

    @property
    def failed_share(self) -> float:
        """Failed documents over attempted documents."""
        return self.failed_documents / self.documents if self.documents else 0.0

    @property
    def answered_share(self) -> float:
        """Answered mentions over detected mentions."""
        return self.answered / self.detected if self.detected else 1.0


def f1_percent(correct: int, predicted: int, gold: int) -> float:
    """Micro F1 on a 0-100 scale from counts."""
    denominator = predicted + gold
    return 100.0 * 2 * correct / denominator if denominator else 0.0


def _high_water_kib(pid) -> int | None:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return None


def reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark (Linux), so the peak
    covers only what runs after the fixture is built."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(pids=()) -> float:
    """Peak RSS of this process plus the high-water mark of each pid."""
    own = _high_water_kib("self")
    if own is None:
        # ru_maxrss is in KiB on Linux.
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_high_water_kib(pid) or 0 for pid in pids)) / 1024.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from the .git directory, or None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path, seed: int, fixture_seconds: float) -> dict:
    """Machine and software identity recorded with every result."""
    import numpy
    import scipy

    return {
        "nproc": usable_cpus(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
        "fixture_seconds": round(fixture_seconds, 3),
    }
