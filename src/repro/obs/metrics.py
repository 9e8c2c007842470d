"""A stdlib-only metrics registry for the serving stack.

Three instrument kinds, all usable standalone or through a
:class:`MetricsRegistry`:

* :class:`Counter` — a monotonically increasing total.  ``inc()`` is a
  single attribute add, cheap enough for per-request hot paths.
* :class:`Gauge` — a point-in-time value (``set``/``inc``/``dec``).
  Most gauges in the server are never touched on the request path:
  they are written by *collectors* (callbacks run at scrape time) that
  read the engine's existing ``stats()`` dicts, so instrumenting a
  subsystem costs nothing until someone actually scrapes ``/metrics``.
* :class:`Histogram` — fixed log-spaced buckets (default 10µs..~5min,
  factor 2) with p50/p95/p99 readout.  ``observe()`` is one bisect
  over 26 floats; merging two histograms preserves per-bucket counts
  exactly (the property the bucket-math tests pin).

The registry renders two wire forms:

* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition 0.0.4 (``# HELP``/``# TYPE`` once per family, label
  children, ``_bucket``/``_sum``/``_count`` series for histograms).
* :meth:`MetricsRegistry.render_json` — the same data as one JSON
  object, which is what ``repro top`` polls.

Label sets are immutable per instrument: ``registry.counter(name,
follower="b")`` returns the one child for that label combination, so
call sites can cache the instrument object and skip the dict lookup.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_buckets",
]


def default_buckets(
    start: float = 1e-5, factor: float = 2.0, count: int = 26
) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds: 10µs, 20µs, ... ~5.6 minutes.

    One fixed ladder for every latency histogram keeps histograms
    mergeable (identical bounds) and the exposition size constant.
    """
    return tuple(start * factor**i for i in range(count))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str = "", help: str = "", labels: dict | None = None):
        self.name = name
        self.help = help
        self.labels = labels or {}
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def to_json(self) -> int | float:
        return self.value


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str = "", help: str = "", labels: dict | None = None):
        self.name = name
        self.help = help
        self.labels = labels or {}
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount

    def to_json(self) -> int | float:
        return self.value


class Histogram:
    """Fixed log-bucket latency histogram with quantile readout.

    ``observe`` places a sample in the first bucket whose upper bound
    is >= the value; samples beyond the last bound land in the
    overflow (+Inf) bucket.  :meth:`quantile` returns the upper bound
    of the bucket holding the nearest-rank sample — an estimate that
    always *brackets* the true quantile (true <= estimate <= true *
    factor), which is the contract the property tests check.
    """

    __slots__ = (
        "name", "help", "labels", "bounds", "counts", "sum", "count", "max",
    )

    def __init__(
        self,
        name: str = "",
        help: str = "",
        labels: dict | None = None,
        buckets: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.help = help
        self.labels = labels or {}
        self.bounds = tuple(buckets) if buckets is not None else default_buckets()
        self.counts = [0] * (len(self.bounds) + 1)  # last slot == +Inf
        self.sum = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile estimate (upper bucket bound)."""
        if self.count == 0:
            return 0.0
        rank = max(1, min(self.count, int(fraction * self.count) + 1))
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max  # overflow bucket: the observed max
        return self.max

    def bracket(self, fraction: float) -> tuple[float, float]:
        """The ``(lower, upper]`` bounds of the quantile's bucket."""
        upper = self.quantile(fraction)
        if self.count == 0:
            return (0.0, 0.0)
        index = bisect_left(self.bounds, upper)
        lower = self.bounds[index - 1] if index > 0 else 0.0
        if index >= len(self.bounds):  # overflow: upper is the max
            lower = self.bounds[-1]
        return (lower, upper)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (identical bounds only)."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, bucket_count in enumerate(other.counts):
            self.counts[i] += bucket_count
        self.sum += other.sum
        self.count += other.count
        if other.max > self.max:
            self.max = other.max
        return self

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


_TYPES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


def _format_value(value: int | float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape(value: object) -> str:
    """A label value as the 0.0.4 text format quotes it: ``\\``, ``"``
    and newline escaped, so no value can end its series early."""
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape(val)}"' for key, val in sorted(merged.items())
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """Get-or-create instrument registry with scrape-time collectors.

    A *collector* is a zero-argument callable registered with
    :meth:`register_collector`; every scrape (either renderer) runs
    all collectors first, so gauges derived from engine ``stats()``
    dicts are refreshed only when someone looks.
    """

    def __init__(self):
        self._instruments: dict[tuple[str, tuple], object] = {}
        self._families: dict[str, type] = {}
        self._collectors: list[Callable[[], None]] = []

    # -- instrument creation ---------------------------------------------

    def _get(self, cls, name: str, help: str, labels: dict, **kwargs):
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is not None:
            if type(instrument) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{_TYPES[type(instrument)]}"
                )
            return instrument
        family = self._families.get(name)
        if family is not None and family is not cls:
            raise ValueError(
                f"metric family {name!r} already registered as {_TYPES[family]}"
            )
        instrument = cls(name, help, labels, **kwargs)
        self._instruments[key] = instrument
        self._families[name] = cls
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def register_collector(self, collector: Callable[[], None]) -> None:
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector()

    # -- rendering --------------------------------------------------------

    def _grouped(self) -> dict[str, list]:
        """Instruments grouped by family name, label-sorted within."""
        groups: dict[str, list] = {}
        for (name, _labels), instrument in sorted(self._instruments.items()):
            groups.setdefault(name, []).append(instrument)
        return groups

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        self.collect()
        lines: list[str] = []
        for name, instruments in self._grouped().items():
            kind = _TYPES[type(instruments[0])]
            help_text = next(
                (inst.help for inst in instruments if inst.help), ""
            )
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for inst in instruments:
                if isinstance(inst, Histogram):
                    cumulative = 0
                    for bound, bucket_count in zip(inst.bounds, inst.counts):
                        cumulative += bucket_count
                        labels = _label_str(
                            inst.labels, {"le": _format_value(bound)}
                        )
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _label_str(inst.labels, {"le": "+Inf"})
                    lines.append(f"{name}_bucket{labels} {inst.count}")
                    lines.append(
                        f"{name}_sum{_label_str(inst.labels)} "
                        f"{_format_value(inst.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_label_str(inst.labels)} {inst.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_label_str(inst.labels)} "
                        f"{_format_value(inst.value)}"
                    )
        return "\n".join(lines) + "\n"

    def render_json(self) -> dict:
        """The same metrics as one JSON object (what ``repro top`` polls)."""
        self.collect()
        payload: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, instruments in self._grouped().items():
            for inst in instruments:
                key = f"{name}{_label_str(inst.labels)}"
                section = {
                    Counter: "counters", Gauge: "gauges", Histogram: "histograms",
                }[type(inst)]
                payload[section][key] = inst.to_json()
        return payload
