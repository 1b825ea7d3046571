"""Metric primitives: counters, gauges, and timestamped series.

Three probe kinds cover every signal the simulator publishes:

* :class:`Counter` — monotonically increasing totals (bytes moved,
  operations issued, events processed);
* :class:`Gauge` — a single last-value scalar (a service's configured
  capacity, a final utilization figure);
* :class:`TimeSeries` — a step function sampled *on change* (burst
  buffer occupancy, busy cores, concurrent flows).  Discrete-event
  simulations make push-on-change sampling exact: between samples the
  value cannot have changed, so no periodic sampler process is needed
  (and none could perturb the simulation);
* :class:`Histogram` — bucketed observations of a repeated quantity
  (per-point wall times in a sweep campaign), for cheap percentile
  estimates without keeping every sample.

Probes live in a :class:`MetricRegistry`, created lazily by name so
instrumentation points never need declaring metrics up front.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A last-value scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self.name}={self.value}>"


class TimeSeries:
    """A timestamped step series, sampled whenever the value changes.

    Consecutive samples at the same timestamp collapse to the last one
    (a DES processes many state changes at one instant; only the value
    the instant settles on is observable).  Timestamps must be
    non-decreasing — they come from the simulation clock.
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self, time: float, value: float) -> None:
        if self.times:
            last = self.times[-1]
            if time < last:
                raise ValueError(
                    f"series {self.name!r}: time went backwards "
                    f"({time} < {last})"
                )
            if time == last:  # lint: ignore[SIM022] — same-instant collapse is intentional
                self.values[-1] = value
                return
        self.times.append(time)
        self.values.append(value)

    def items(self) -> Iterator[tuple[float, float]]:
        return zip(self.times, self.values)

    @property
    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    @property
    def peak(self) -> Optional[float]:
        return max(self.values) if self.values else None

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TimeSeries {self.name}: {len(self)} samples>"


def quantile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank quantile of raw samples (``None`` when empty)."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


#: Default histogram bucket upper bounds, in seconds: tuned for the
#: wall times of sweep points (sub-second micro points up to ten-minute
#: full-scale simulations).  The implicit final bucket is +inf.
DEFAULT_SECONDS_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)


class Histogram:
    """Bucketed observations with cumulative counts (Prometheus-style).

    ``bounds`` are the inclusive upper edges of the finite buckets; an
    implicit +inf bucket catches everything above the last bound.
    ``counts[i]`` is the number of observations ``<= bounds[i]`` (the
    +inf count is :attr:`count`).
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> None:
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r}: bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1

    def snapshot(self) -> dict:
        """JSON-ready view: cumulative ``(le, count)`` pairs plus totals."""
        return {
            "buckets": [
                {"le": bound, "count": cumulative}
                for bound, cumulative in zip(self.bounds, self.counts)
            ],
            "count": self.count,
            "sum": self.sum,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.name}: {self.count} observations>"


class MetricRegistry:
    """Lazily-created probes, addressed by dotted metric name.

    Names follow ``<group>.<subject>.<quantity>`` —
    ``storage.bb-private.occupancy_bytes``, ``compute.cn0.busy_cores``.
    One name maps to exactly one probe kind; asking for the same name
    with a different kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.series: dict[str, TimeSeries] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        probe = self.counters.get(name)
        if probe is None:
            self._claim(name)
            probe = self.counters[name] = Counter(name)
        return probe

    def gauge(self, name: str) -> Gauge:
        probe = self.gauges.get(name)
        if probe is None:
            self._claim(name)
            probe = self.gauges[name] = Gauge(name)
        return probe

    def timeseries(self, name: str) -> TimeSeries:
        probe = self.series.get(name)
        if probe is None:
            self._claim(name)
            probe = self.series[name] = TimeSeries(name)
        return probe

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        probe = self.histograms.get(name)
        if probe is None:
            self._claim(name)
            probe = self.histograms[name] = Histogram(name, bounds)
        return probe

    def _claim(self, name: str) -> None:
        if (
            name in self.counters
            or name in self.gauges
            or name in self.series
            or name in self.histograms
        ):
            raise ValueError(f"metric {name!r} already exists with another kind")

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        return sorted(
            [*self.counters, *self.gauges, *self.series, *self.histograms]
        )

    def snapshot(self) -> dict:
        """Plain-data view of every probe (JSON-ready)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "series": {
                n: {"times": list(s.times), "values": list(s.values)}
                for n, s in sorted(self.series.items())
            },
            "histograms": {
                n: h.snapshot() for n, h in sorted(self.histograms.items())
            },
        }

    def __len__(self) -> int:
        return (
            len(self.counters)
            + len(self.gauges)
            + len(self.series)
            + len(self.histograms)
        )
