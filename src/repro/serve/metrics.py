"""Lightweight serving metrics: counters, gauges and fixed-bucket histograms.

The online engine needs visibility into where latency goes — cache hit
rates, the latency distribution, how many samples/evaluations each query
actually consumed — without dragging in a metrics dependency.  This module
is the minimal registry that covers those needs: named :class:`Counter`,
:class:`Gauge` and :class:`Histogram` instruments created on first use, a
structured :meth:`MetricsRegistry.dump` for programmatic consumers, and a
:meth:`MetricsRegistry.report` text format for humans (printed by the
``serve-batch`` CLI and persisted by the throughput benchmark).

Gauges carry point-in-time levels rather than event counts — the streaming
update path uses them for index *staleness* (dirty-node fraction, retired
samples, seconds since the last refresh), where a counter's monotonicity
would be wrong.

All instruments are thread-safe: the engine serves batches from a thread
pool, so every update of a counter, gauge or histogram takes the
registry-wide lock (updates are tiny; contention is negligible next to a
query).  Creating an instrument takes the same lock; looking up one that
exists does not — a dict read is atomic, and an instrument once created
is never replaced.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: Default latency buckets, in milliseconds (upper bounds; +inf implicit).
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Default buckets for count-valued distributions (samples used,
#: marginal evaluations): powers of four cover 1 .. ~1e6 in 10 buckets.
COUNT_BUCKETS: Tuple[float, ...] = tuple(float(4 ** i) for i in range(11))

#: Default buckets for ratios in [0, 1] (``certified_ratio``): steps of
#: 0.05.
RATIO_BUCKETS: Tuple[float, ...] = tuple(i / 20 for i in range(1, 21))


def labelled(name: str, **labels: str) -> str:
    """Build a labelled instrument name, Prometheus-style.

    The registry itself is label-blind — every instrument is keyed by a
    plain string — so per-kind breakdowns are encoded *into* the name:
    ``labelled("serve_queries_total", kind="point")`` yields
    ``serve_queries_total{kind="point"}``.  Labels are sorted so the same
    label set always maps to the same instrument, and
    :func:`repro.obs.prom.render_prometheus` splits the suffix back out
    into real Prometheus labels at exposition time.  Values are escaped
    per the exposition format (``\\``, ``"``, newline), so an odd or
    hostile value cannot corrupt the rendered text;
    :func:`repro.obs.prom.parse_prometheus` round-trips the escapes.
    """
    if not labels:
        return name
    from repro.obs.prom import escape_label_value

    inner = ",".join(
        f'{k}="{escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def record_staleness(metrics: "MetricsRegistry", stats,
                     now: Optional[float] = None) -> None:
    """Set the ``staleness_*`` gauges from one update's
    :class:`repro.stream.UpdateStats`.

    Called right after an ``update()`` and again at scrape time (so
    ``staleness_seconds_since_refresh`` ages between updates).
    """
    now = time.time() if now is None else now
    metrics.set_gauge("staleness_dirty_fraction", stats.dirty_fraction)
    metrics.set_gauge("staleness_samples_retired",
                      float(stats.samples_retired))
    metrics.set_gauge("staleness_samples_added", float(stats.samples_added))
    metrics.set_gauge("staleness_trees_rebuilt", float(stats.trees_rebuilt))
    metrics.set_gauge("staleness_generation", float(stats.generation))
    metrics.set_gauge("staleness_seconds_since_refresh",
                      max(0.0, now - stats.updated_unix))


class Counter:
    """A monotone named counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A named value that can go up and down (a level, not a count)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A fixed-bucket histogram with mean/min/max and quantile estimates.

    ``buckets`` are ascending finite upper bounds; an implicit +inf bucket
    catches the tail.  Quantiles are estimated by linear interpolation
    inside the containing bucket — coarse, but honest enough for latency
    reporting, and O(#buckets) memory regardless of observation count.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float],
                 lock: threading.Lock):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be ascending, got {buckets!r}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing +inf bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bucket with ``value <= bound`` (the +inf slot past
        # the last); NaN compares false everywhere and lands in bucket 0.
        i = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[i] += 1
            self.count += 1
            self.total += value
            # As min()/max() would: NaN never replaces either bound.
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (``0 <= q <= 1``) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if seen + c >= rank and c > 0:
                lo = self.buckets[i - 1] if i > 0 else min(self.min, self.buckets[0])
                hi = self.buckets[i] if i < len(self.buckets) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max) if hi != float("inf") else self.max
                frac = (rank - seen) / c
                return lo + (hi - lo) * max(0.0, min(frac, 1.0))
            seen += c
        return self.max


class MetricsRegistry:
    """A named collection of counters and histograms.

    Instruments are created on first use, so call sites never need to
    pre-register anything::

        metrics.inc("queries_total")
        metrics.observe("latency_ms", 1.7)
        print(metrics.report())
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # prefix -> stage -> histogram.
        self._stage_histograms: Dict[str, Dict[str, Histogram]] = {}

    # An existing instrument is returned without the lock; only creation
    # takes it, and re-checks, so two threads creating one name concurrently
    # still end up sharing a single instrument.

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is not None:
            return c
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name, self._lock)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is not None:
            return g
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name, self._lock)
        return g

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is not None:
            return h
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                # Default buckets key off the *base* name: a labelled
                # instrument like latency_ms{kind="point"} must share the
                # latency bucket family with its unlabelled sibling.
                base = name.partition("{")[0]
                chosen = buckets if buckets is not None else (
                    LATENCY_BUCKETS_MS if base.endswith("_ms")
                    else RATIO_BUCKETS if base.endswith("_ratio")
                    else COUNT_BUCKETS
                )
                h = self._histograms[name] = Histogram(
                    name, chosen, self._lock
                )
        return h

    # Convenience shortcuts -------------------------------------------------

    # inc/observe are the serving hot path: they try the lock-free
    # lookup inline before falling back to the creating accessor.

    def inc(self, name: str, n: int = 1) -> None:
        c = self._counters.get(name)
        if c is None:
            c = self.counter(name)
        c.inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        h = self._histograms.get(name)
        if h is None:
            h = self.histogram(name, buckets)
        h.observe(value)

    def observe_stage_seconds(
        self,
        stages: Mapping[str, float],
        prefix: str = "stage_",
    ) -> None:
        """Record a per-stage seconds breakdown as ``<prefix><name>_ms``.

        The serving engine feeds query-stage timings (weight eval, score
        build, selection, bound) through this, so each stage gets its own
        latency histogram without call sites hand-rolling the unit
        conversion.
        """
        bound = self._stage_histograms.setdefault(prefix, {})
        for stage, seconds in stages.items():
            h = bound.get(stage)
            if h is None:
                # Each (prefix, stage) is bound to its histogram once: the
                # engine observes every stage of every index answer.
                h = bound.setdefault(
                    stage, self.histogram(f"{prefix}{stage}_ms")
                )
            h.observe(float(seconds) * 1e3)

    def merge_dump(self, dump: Mapping, prefix: str = "") -> None:
        """Fold another registry's :meth:`dump` into this one.

        The multi-process serving pool collects each worker's registry as
        a plain dump (registries hold locks and cannot cross process
        boundaries) and merges them here, optionally under a ``prefix``
        (e.g. ``"worker."``) so pooled totals stay distinguishable from
        the parent's own instruments.  Counters add; histograms merge
        bucket-by-bucket, which requires both sides to use the same
        bounds — guaranteed when the name maps to the same default bucket
        family on both sides, and checked otherwise.
        """
        for name, value in dump.get("counters", {}).items():
            self.inc(prefix + name, int(value))
        # Gauges are levels, not counts: the merged-in snapshot replaces
        # whatever this registry held under the prefixed name.
        for name, value in dump.get("gauges", {}).items():
            self.set_gauge(prefix + name, float(value))
        for name, h in dump.get("histograms", {}).items():
            bounds = [
                float(b["le"]) for b in h["buckets"]
                if b["le"] != float("inf")
            ]
            target = self.histogram(prefix + name, buckets=bounds or None)
            if list(target.buckets) != bounds:
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds "
                    f"{bounds} != existing {list(target.buckets)}"
                )
            counts = [int(b["count"]) for b in h["buckets"]]
            with target._lock:
                for i, c in enumerate(counts):
                    target.counts[i] += c
                target.count += int(h["count"])
                target.total += float(h["sum"])
                if h.get("min") is not None:
                    target.min = min(target.min, float(h["min"]))
                if h.get("max") is not None:
                    target.max = max(target.max, float(h["max"]))

    # Output ----------------------------------------------------------------

    def dump(self) -> dict:
        """Structured snapshot: counters, gauges and histograms by name."""
        with self._lock:
            counters = {n: c._value for n, c in sorted(self._counters.items())}
            gauges = {n: g._value for n, g in sorted(self._gauges.items())}
            histograms = {
                n: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "mean": h.mean,
                    "buckets": [
                        {"le": le, "count": c}
                        for le, c in zip(h.buckets + (float("inf"),), h.counts)
                    ],
                }
                for n, h in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def report(self) -> str:
        """Human-readable text report of every instrument."""
        lines = ["== metrics =="]
        if self._counters:
            lines.append("counters:")
            width = max(len(n) for n in self._counters)
            for name in sorted(self._counters):
                c = self._counters[name]
                lines.append(f"  {name:<{width}}  {c.value}")
        if self._gauges:
            lines.append("gauges:")
            width = max(len(n) for n in self._gauges)
            for name in sorted(self._gauges):
                g = self._gauges[name]
                lines.append(f"  {name:<{width}}  {g.value:g}")
        if self._histograms:
            lines.append("histograms:")
            for name in sorted(self._histograms):
                h = self._histograms[name]
                if h.count == 0:
                    lines.append(f"  {name}: count=0")
                    continue
                lines.append(
                    f"  {name}: count={h.count} mean={h.mean:.3g} "
                    f"min={h.min:.3g} p50={h.quantile(0.5):.3g} "
                    f"p95={h.quantile(0.95):.3g} max={h.max:.3g}"
                )
                peak = max(h.counts)
                bounds = h.buckets + (float("inf"),)
                for le, c in zip(bounds, h.counts):
                    if c == 0:
                        continue
                    bar = "#" * max(1, round(24 * c / peak))
                    label = "+inf" if le == float("inf") else f"{le:g}"
                    lines.append(f"    <= {label:>8}  {c:>7}  {bar}")
        return "\n".join(lines)
