"""The zero-dependency metrics core: counters, gauges, log-bucket histograms.

Design constraints, in order:

1. **Exact mergeability.**  A parallel fleet runs one registry per worker
   process; the parent must be able to fold them into a registry that is
   *identical* to what a monolithic run would have produced (property-pinned
   in ``tests/property/test_prop_observability.py``).  So every metric's
   state is a sum: counter values, gauge values and histogram bucket counts
   are added, never averaged, and histograms use **fixed** log-spaced bucket
   bounds chosen at declaration time — two histograms of the same family
   always share bounds, so bucket-wise addition is exact.
2. **One count per event.**  A Stats dataclass field declared
   :func:`exported` is read at snapshot time from the objects passed to
   :meth:`MetricsRegistry.register_stats`, never counted a second time.
3. **A hot null path.**  :data:`NULL_REGISTRY` hands out shared no-op
   children, so instrumented call sites cost one attribute load and a no-op
   call when metrics are disabled; call sites bind children once at
   construction, never per event.
4. **No dependencies.**  The module must import on the numpy-absent CI leg
   and inside forked/spawned worker processes; snapshots are plain dicts of
   JSON-able types so they pickle across process boundaries and serialize
   into artifacts unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import field, fields
from typing import Iterable, Iterator, Mapping

from repro.observability.quantiles import histogram_quantile

#: Metric kinds a family can declare (Prometheus exposition TYPE values).
METRIC_KINDS = ("counter", "gauge", "histogram")


def log_bounds(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` log-spaced histogram upper bounds: ``start * factor**i``.

    Computed the same way in every process, so shard registries always
    agree on bucket boundaries.

    >>> log_bounds(1.0, 2.0, 4)
    (1.0, 2.0, 4.0, 8.0)
    """
    if start <= 0 or factor <= 1.0 or count <= 0:
        raise ValueError("log_bounds needs start > 0, factor > 1, count > 0")
    return tuple(start * factor ** i for i in range(count))


#: Default bounds for wall/logical latency histograms: 1us .. ~33.5s.
LATENCY_BOUNDS = log_bounds(1e-6, 2.0, 26)

#: Default bounds for size/count histograms: 1 .. ~1e6 items.
SIZE_BOUNDS = log_bounds(1.0, 2.0, 21)


class Counter:
    """A monotonically increasing sum.  Merge = addition."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def state(self) -> float:
        return self.value

    def merge_state(self, state: float) -> None:
        self.value += state


class Gauge:
    """A point-in-time level (queue depth, resident clients).

    Cross-shard merge is **summation** — shard gauges measure disjoint
    slices of the population, so the fleet-wide level is their sum.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def state(self) -> float:
        return self.value

    def merge_state(self, state: float) -> None:
        self.value += state


class Histogram:
    """Fixed-bound log-bucket histogram with exact mergeable state.

    ``counts[i]`` counts observations ``<= bounds[i]`` (and greater than the
    previous bound); ``counts[-1]`` is the overflow (+Inf) bucket.  Because
    bounds are fixed per family, merging is element-wise addition of
    ``counts`` plus addition of ``sum`` — no interpolation, no averaging.

    >>> h = Histogram(bounds=(1.0, 10.0))
    >>> for v in (0.5, 5.0, 50.0):
    ...     h.observe(v)
    >>> h.counts, h.count, h.sum
    ([1, 1, 1], 3, 55.5)
    >>> h.quantile(0.5)
    10.0
    """

    __slots__ = ("bounds", "counts", "sum")

    def __init__(self, *, bounds: tuple[float, ...] = LATENCY_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be distinct and ascending")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value

    @property
    def count(self) -> int:
        return sum(self.counts)

    def quantile(self, fraction: float) -> float:
        """Upper bound of the bucket holding the ``fraction`` rank.

        Delegates to :func:`repro.observability.quantiles.histogram_quantile`
        — the same module the benchmark percentile helpers use.
        """
        return histogram_quantile(self.bounds, self.counts, fraction)

    def state(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.sum}

    def merge_state(self, state: Mapping) -> None:
        if list(self.bounds) != list(state["bounds"]):
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(state["counts"]):
            self.counts[i] += c
        self.sum += state["sum"]


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def exported(family: str, help_text: str, **labels: str):
    """A Stats dataclass field that registries export as the ``labels``
    child of counter ``family`` (:meth:`MetricsRegistry.register_stats`)."""
    return field(default=0, metadata={"metric": (family, help_text, labels)})


def exported_fields(stats) -> list[tuple]:
    """``(field, family, help text, labels)`` per :func:`exported` field."""
    return [(spec.name, *spec.metadata["metric"])
            for spec in fields(stats) if "metric" in spec.metadata]


class MetricFamily:
    """A named metric plus its labeled children.

    Children are keyed by their label *values* (one per declared label
    name); the unlabeled child lives under the empty tuple.
    """

    __slots__ = ("name", "kind", "help", "label_names", "_options",
                 "_children")

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: tuple[str, ...], **options) -> None:
        if kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = tuple(label_names)
        self._options = options
        self._children: dict[tuple[str, ...], object] = {}

    def _make_child(self):
        return _METRIC_TYPES[self.kind](**self._options)

    def labels(self, **labels: str):
        """The child for one label-value combination (created on demand)."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def children(self) -> Iterator[tuple[tuple[str, ...], object]]:
        for key in sorted(self._children):
            yield key, self._children[key]

    def state(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "children": [
                {"labels": list(key), "state": child.state()}
                for key, child in self.children()
            ],
        }


class MetricsRegistry:
    """Labeled metric families, declared idempotently.

    Declaring the same name again returns the existing family (or unlabeled
    child) after checking that kind and label names agree — so every module
    can declare what it records without coordinating import order.
    """

    #: Instrumented call sites may branch on this to skip measurement work
    #: (e.g. ``time.perf_counter()`` pairs) when metrics are off.
    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        # Registered Stats objects by id (held here, so no id is reused),
        # and the families their exported fields feed.
        self._stats: dict[int, object] = {}
        self._exported: set[str] = set()

    # -- declaration -------------------------------------------------------

    def _declare(self, name: str, kind: str, help_text: str,
                 labels: tuple[str, ...], **options):
        if name in self._exported:
            raise ValueError(f"metric {name!r} is read from a Stats field")
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(
                name, kind, help_text, labels, **options)
        elif family.kind != kind or family.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} re-declared as {kind}{tuple(labels)}; "
                f"was {family.kind}{family.label_names}")
        return family if labels else family.labels()

    def counter(self, name: str, help_text: str = "",
                labels: tuple[str, ...] = ()):
        """A counter (unlabeled: returns the child; labeled: the family)."""
        return self._declare(name, "counter", help_text, tuple(labels))

    def gauge(self, name: str, help_text: str = "",
              labels: tuple[str, ...] = ()):
        return self._declare(name, "gauge", help_text, tuple(labels))

    def histogram(self, name: str, help_text: str = "",
                  labels: tuple[str, ...] = (),
                  bounds: tuple[float, ...] = LATENCY_BOUNDS):
        return self._declare(name, "histogram", help_text, tuple(labels),
                             bounds=bounds)

    def register_stats(self, stats) -> None:
        """Sum the :func:`exported` fields of ``stats`` into every later
        snapshot; registering an object again is a no-op."""
        for _, family, _, _ in exported_fields(stats):
            if family in self._families:
                raise ValueError(
                    f"metric {family!r} is already a live instrument")
            self._exported.add(family)
        self._stats[id(stats)] = stats

    # -- introspection / merge --------------------------------------------

    def families(self) -> Iterator[MetricFamily]:
        """The live families (exported ones exist only in snapshots)."""
        for name in sorted(self._families):
            yield self._families[name]

    def snapshot(self) -> dict:
        """Plain-dict state: picklable across processes, JSON-able as-is."""
        families = dict(self._families)
        for stats in self._stats.values():
            for field_name, name, help_text, labels in exported_fields(stats):
                if name not in families:
                    families[name] = MetricFamily(name, "counter", help_text,
                                                  tuple(labels))
                families[name].labels(**labels).inc(getattr(stats, field_name))
        return {"families": {name: families[name].state()
                             for name in sorted(families)}}

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold one worker snapshot in: counters/buckets summed exactly."""
        for name, fam_state in snapshot.get("families", {}).items():
            if name in self._exported:
                raise ValueError(f"metric {name!r} is read from a Stats field")
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = MetricFamily(
                    name, fam_state["kind"], fam_state["help"],
                    tuple(fam_state["label_names"]))
            elif (family.kind != fam_state["kind"]
                    or list(family.label_names) != fam_state["label_names"]):
                raise ValueError(f"snapshot disagrees on metric {name!r}")
            for entry in fam_state["children"]:
                key = tuple(entry["labels"])
                child = family._children.get(key)
                if child is None:
                    state = entry["state"]
                    if family.kind == "histogram":
                        child = Histogram(bounds=tuple(state["bounds"]))
                    else:
                        child = family._make_child()
                    family._children[key] = child
                child.merge_state(entry["state"])

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_snapshot(other.snapshot())


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Merge worker snapshots into one snapshot (sum, never average).

    >>> a = MetricsRegistry(); a.counter("requests_total").inc(2)
    >>> b = MetricsRegistry(); b.counter("requests_total").inc(3)
    >>> merged = merge_snapshots([a.snapshot(), b.snapshot()])
    >>> merged["families"]["requests_total"]["children"][0]["state"]
    5
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


# -- the null fast path ----------------------------------------------------


class _NullMetric:
    """Shared no-op child: absorbs any metric mutation, yields zero state."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels: str) -> "_NullMetric":
        return self

    def quantile(self, fraction: float) -> float:
        return 0.0

    value = 0.0
    sum = 0.0
    count = 0


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every declaration returns the no-op child.

    Constructed once as :data:`NULL_REGISTRY`; instrumented classes bind
    their children at construction time, so with the null registry the hot
    loop's only cost is a no-op method call per request — and call sites
    that must measure (``perf_counter`` pairs) branch on :attr:`enabled`.
    """

    enabled = False

    def _declare(self, name, kind, help_text, labels, **options):
        return _NULL_METRIC

    def register_stats(self, stats) -> None:
        pass

    def snapshot(self) -> dict:
        return {"families": {}}

    def merge_snapshot(self, snapshot: Mapping) -> None:
        raise TypeError("cannot merge into the null registry")


NULL_REGISTRY = NullRegistry()


def registry_or_null(metrics: MetricsRegistry | None) -> MetricsRegistry:
    """The conventional default for ``metrics=`` keyword arguments."""
    return NULL_REGISTRY if metrics is None else metrics
