"""Measurement helpers shared by the perfbench workloads.

Everything here is independent of the program under test: exact
percentiles from raw samples, the seeded open-loop arrival schedule,
self time from span trees (interval union, not a sum of child durations),
memory and ``/dev/shm`` probes, and the provenance block every result
carries.  ``test_perfbench.py`` covers the pure helpers.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for cache directories, removed when a run ends.
WORK_ROOT = ROOT / ".perfbench_work"

#: Per-thread span ring of traced runs; a ring that fills up drops spans.
TRACE_CAPACITY = 1 << 18

#: Thread-count environment variables recorded in the provenance block.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: The tile pool records ``kernel`` spans on its worker threads without a
#: parent link; they belong under the caller's ``tiled_layer`` span (see
#: :func:`adopt_orphans`).
ORPHAN_SPAN, ADOPTING_SPAN = "kernel", "tiled_layer"


# ------------------------------------------------------------------ statistics


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of raw samples, linearly interpolated.

    Same definition as ``numpy.percentile``'s default: the value at
    position ``q/100 * (n - 1)`` of the sorted samples.  Raises on an empty
    sample set — a percentile of nothing is a bug, not a zero.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    position = q / 100.0 * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median, p95 and sample count of raw samples (for the detail record)."""
    return {
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "n": len(samples),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the default "exclusive"
    method), which is how a run-to-run spread of the end-to-end metrics is
    judged.
    """
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        raise ValueError("spread of values whose median is zero")
    return (q3 - q1) / abs(median)


def poisson_schedule(rate: float, count: int, seed: int) -> List[float]:
    """Due send offsets (seconds from the loop's start) of an open loop.

    Exponential inter-arrival gaps at *rate* requests/s drawn from
    ``numpy.random.default_rng(seed)``; the first request is due at 0.
    The schedule is absolute: a late send never shifts later due times.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, count - 1)
    return [0.0] + np.cumsum(gaps).tolist()


# ----------------------------------------------------------------- span trees


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def _interval(span: Mapping) -> Tuple[float, float]:
    start = float(span["start_s"])
    return start, start + float(span["duration_s"])


def adopt_orphans(spans: List[Dict]) -> List[Dict]:
    """Link parentless spans recorded on pool threads to their caller.

    The tile pool runs each tile's kernel on a worker thread whose span
    stack is empty, so those ``kernel`` spans arrive as roots.  Such a root
    whose interval lies inside a ``tiled_layer`` span of another thread in
    the same process is re-parented under the latest-starting such span.
    Returns copies; the input is not modified.
    """
    hosts: Dict[int, List[Tuple[float, float, Mapping]]] = defaultdict(list)
    for span in spans:
        if span["name"] == ADOPTING_SPAN:
            hosts[span["pid"]].append((*_interval(span), span))
    starts = {}
    for pid, entries in hosts.items():
        entries.sort(key=lambda entry: entry[0])
        starts[pid] = [entry[0] for entry in entries]
    adopted = []
    for span in spans:
        span = dict(span)
        if span.get("parent_id") is None and span["name"] == ORPHAN_SPAN:
            start, end = _interval(span)
            entries = hosts.get(span["pid"], [])
            index = bisect.bisect_right(starts.get(span["pid"], []), start)
            for host_start, host_end, host in reversed(entries[:index]):
                if end <= host_end and host["thread"] != span["thread"]:
                    span["parent_id"] = host["span_id"]
                    break
        adopted.append(span)
    return adopted


def self_times(spans: Sequence[Mapping]) -> Dict[str, float]:
    """Self time of every span: its duration minus what its children cover.

    Children's intervals are clipped to the parent's and merged before
    subtracting, so children running in parallel (tile threads) or
    overlapping (coalesced requests) are not counted twice.
    """
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            children[parent].append(_interval(span))
    result = {}
    for span in spans:
        start, end = _interval(span)
        clipped = [
            (max(a, start), min(b, end)) for a, b in children.get(span["span_id"], ())
        ]
        result[span["span_id"]] = max(end - start - union_length(clipped), 0.0)
    return result


def coverage(spans: Sequence[Mapping], window: Tuple[float, float]) -> float:
    """Share of the wall-clock *window* that some span covers."""
    start, end = window
    if end <= start:
        raise ValueError("empty coverage window")
    clipped = []
    for span in spans:
        a, b = _interval(span)
        clipped.append((max(a, start), min(b, end)))
    return union_length(clipped) / (end - start)


def rollup(spans: Sequence[Mapping], *, design: Optional[str] = None) -> Dict[str, float]:
    """Self seconds summed per per-layer metric name (see :func:`span_key`).

    A ``tiled_layer`` span is charged to the design named by its nearest
    ancestor with a ``design`` attribute (``chipsim.run``), else *design*.
    """
    linked = adopt_orphans(list(spans))
    own = self_times(linked)
    by_id = {span["span_id"]: span for span in linked}
    totals: Dict[str, float] = defaultdict(float)
    for span in linked:
        key = span_key(span, _design_of(span, by_id, design))
        if key is not None:
            totals[key] += own[span["span_id"]]
    return dict(totals)


def _design_of(span: Mapping, by_id: Mapping, default: Optional[str]) -> Optional[str]:
    seen = set()
    while span is not None and span["span_id"] not in seen:
        seen.add(span["span_id"])
        design = (span.get("attrs") or {}).get("design")
        if design is not None:
            return design
        span = by_id.get(span.get("parent_id"))
    return default


def span_key(span: Mapping, design: Optional[str] = None) -> Optional[str]:
    """The per-layer metric a span's self time is charged to (or None)."""
    name = span["name"]
    attrs = span.get("attrs") or {}
    if name == "layer":
        return f"inference.layer_self_s.{attrs.get('layer')}"
    if name == "kernel":
        return f"engine.kernel_self_s.{attrs.get('kernel')}"
    if name == "adc_quantize":
        return "engine.adc_quantize_self_s"
    if name == "tiled_layer":
        return f"chipsim.tiled_layer_self_s.{design}"
    if name in ("cache_lookup", "train", "program", "calibrate", "run"):
        return f"sweep.stage_self_s.{name}"
    return None


def ring_fill(spans: Sequence[Mapping]) -> int:
    """The most spans any one (process, thread) ring holds."""
    counts: Dict[Tuple, int] = defaultdict(int)
    for span in spans:
        counts[(span["pid"], span["thread"])] += 1
    return max(counts.values(), default=0)


# --------------------------------------------------------------- host probes


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shm_entries() -> set:
    """Names currently in ``/dev/shm`` (empty set where it does not exist)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _blas_config() -> Dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {key: deps.get(key) for key in ("blas", "lapack")}


def _git_sha(root: Path) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources (identifies a checkout without git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> Dict:
    """Where and how a result was measured."""
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cpus = os.cpu_count()
    return {
        "git_sha": _git_sha(ROOT),
        "source_sha256": source_digest(ROOT),
        "nproc": usable_cpus,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_config(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "seed": seed,
    }


def counter_totals(name: str, label: str) -> Dict[str, float]:
    """Current totals of a ``repro.obs.REGISTRY`` counter, summed per *label*."""
    from repro.obs import REGISTRY

    collector = REGISTRY.get(name)
    totals: Dict[str, float] = defaultdict(float)
    if collector is not None:
        for labels, value in collector.samples():
            totals[labels.get(label, "")] += value
    return dict(totals)


def delta(after: Mapping[str, float], before: Mapping[str, float]) -> Dict[str, float]:
    """Per-key growth of a counter between two :func:`counter_totals` reads."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}
