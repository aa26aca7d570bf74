"""Result records and plain-text table/series formatting.

Benchmarks print the same rows/series the paper's figures plot; these
helpers keep that output consistent and readable in a terminal log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ReadStats:
    """What a client read stream saw over the measured window."""

    count: int  #: reads served after warm-up
    divergence: float  #: mean weighted ``|answered - true|`` per read
    divergence_unweighted: float  #: mean ``|answered - true|`` per read
    stale_fraction: float  #: share of reads that returned a diverged value
    replica_reads: tuple[int, ...]  #: reads served by each cache
    #: per-object replica-averaged time-averaged copy divergence, averaged
    #: over objects (the any-replica large-read-rate limit)
    replica_divergence: float
    #: every read equalled the star's ``CacheStore.read`` (None: several
    #: caches, so there is no single store to compare with)
    matches_direct: bool | None


@dataclass
class RunResult:
    """Outcome of one simulation run (one policy on one workload).

    Every counter is filled by the serial path
    (:func:`~repro.experiments.runner.build_result`) and by the shard
    merge (:func:`~repro.experiments.parallel.merge_shard_results`) with
    the same arithmetic; a policy without a network reports zeros.
    """

    policy: str
    metric: str
    num_sources: int
    num_objects: int
    duration: float  #: measured (post-warm-up) window length
    weighted_divergence: float  #: mean per-object weighted divergence
    unweighted_divergence: float  #: mean per-object unweighted divergence
    refreshes: int = 0  #: object refreshes applied, summed over caches
    feedback_messages: int = 0
    poll_messages: int = 0  #: poll round-trip messages (CGM baselines)
    messages_total: int = 0  #: all messages that crossed the cache links
    #: refresh messages the sources handed to the network, a batch once
    #: (``refreshes`` for policies that do not count sends)
    refreshes_sent: int = 0
    units: float = 0.0  #: cache-link bandwidth units spent
    queued: int = 0  #: messages still waiting on the cache links at the end
    queued_peak: int = 0  #: worst FIFO backlog of any cache link, messages
    dropped: int = 0  #: messages the fault injector dropped
    retransmitted: int = 0  #: refreshes resent by reliable delivery
    duplicates: int = 0  #: retransmitted copies suppressed at a cache
    migrations: int = 0  #: sources the rebalancer moved between caches
    #: mean final source threshold ``T_j`` (None: a policy without one)
    mean_threshold: float | None = None
    samples: int = 0  #: priority samples the sampling monitors took
    own_refreshes: int = 0  #: refreshes sent for the sources' own priority
    #: mean per-object divergence under the sources' weights (None: a
    #: policy without a source objective)
    source_divergence: float | None = None
    #: mean per-object time-averaged divergence bound (None: not metered)
    mean_bound: float | None = None
    reads: ReadStats | None = None  #: None when no read stream ran

    @property
    def overhead_fraction(self) -> float:
        """Share of cache-link messages that were coordination overhead."""
        if self.messages_total <= 0:
            return 0.0
        overhead = self.feedback_messages + self.poll_messages
        return overhead / self.messages_total

    extras = property(
        lambda self: {"mean_threshold": self.mean_threshold,
                      "cache_queue_peak": self.queued_peak},
        doc="""Read-only view of two counters under their old dict keys.

        Kept only for ``bench/suite.py``, which reads these two keys; the
        next change to the benchmark reads the typed fields and deletes
        this view.""")


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str | None = None,
                 precision: int = 4) -> str:
    """Render an ASCII table with right-aligned numeric columns."""

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}g}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(v.rjust(widths[i]) for i, v in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[float],
                  ys: Sequence[float], x_label: str = "x",
                  y_label: str = "y", precision: int = 4) -> str:
    """Render one figure series as labelled (x, y) pairs."""
    pairs = ", ".join(
        f"({x:.{precision}g}, {y:.{precision}g})" for x, y in zip(xs, ys))
    return f"{name} [{x_label} -> {y_label}]: {pairs}"


def ascii_plot(series: dict[str, list[tuple[float, float]]],
               width: int = 72, height: int = 18,
               x_label: str = "x", y_label: str = "y") -> str:
    """A rough ASCII scatter plot of several named series.

    Good enough to eyeball the *shape* the paper's figures show (who wins,
    where curves cross) directly in benchmark logs.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@%&"
    legend = []
    for k, (name, pts) in enumerate(series.items()):
        mark = markers[k % len(markers)]
        legend.append(f"{mark} = {name}")
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = mark
    lines = [f"{y_label} in [{y_lo:.4g}, {y_hi:.4g}]  "
             f"{x_label} in [{x_lo:.4g}, {x_hi:.4g}]"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append("  ".join(legend))
    return "\n".join(lines)
