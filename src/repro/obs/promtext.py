"""Prometheus text-format exposition of a :class:`MetricsRegistry`.

Serving the disambiguator under real traffic needs a scrape target, not
a JSON dump: this module renders the registry in the Prometheus text
exposition format (version 0.0.4) using only the stdlib —

* counters become ``<ns>_<name>_total`` samples of ``# TYPE counter``;
* gauges become ``<ns>_<name>`` samples of ``# TYPE gauge``;
* histograms become classic cumulative-bucket families: one
  ``_bucket{le="..."}`` sample per bound (always ending in
  ``le="+Inf"``), plus exact ``_sum`` and ``_count`` samples.  Bucket
  counts are derived from the reservoir
  (:meth:`~repro.obs.metrics.Histogram.cumulative_buckets`): exact
  while the reservoir holds every observation, scaled estimates once
  Algorithm R subsamples — ``_count``/``_sum`` stay exact either way.

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): dots and other illegal characters
become underscores, and a namespace prefix (default ``repro``) keeps
the exported families out of other jobs' way.

Request-scoped labels (:func:`repro.obs.metrics.labelled` encodes them
into the registry name as ``name|key=value,...``) are decoded here and
rendered as proper exposition labels: every series of one base name
shares a single ``# HELP``/``# TYPE`` family header and emits
``family{key="value"} sample`` lines, with label values escaped per the
exposition grammar.  Histogram series merge their labels with ``le``.

The serving tier (:class:`repro.serve.ServingTier`) serves this text
at ``GET /metrics``; the CLI ``--prom[=FILE]`` flag prints or writes
one snapshot.
"""

from __future__ import annotations

import re
from typing import IO

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    split_labels,
)

__all__ = ["DEFAULT_BUCKET_BOUNDS", "render_prometheus", "write_prometheus"]

#: Default histogram bucket upper bounds.  Log-spaced 1/2.5/5 decades
#: covering both sub-millisecond latencies (seconds-valued series) and
#: recursive-call counts in the tens of thousands; ``+Inf`` is always
#: appended by the renderer.
DEFAULT_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    base * 10.0**exponent
    for exponent in range(-4, 5)
    for base in (1.0, 2.5, 5.0)
)

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_FIRST = re.compile(r"^[^a-zA-Z_:]")


def _sanitize(name: str) -> str:
    """A registry metric name as a legal Prometheus metric name."""
    sanitized = _INVALID_CHARS.sub("_", name)
    if _INVALID_FIRST.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    """A sample value in exposition syntax (integers stay integral)."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    """An ``le`` label value (``+Inf`` for the terminal bucket)."""
    if bound == float("inf"):
        return "+Inf"
    if float(bound).is_integer():
        return f"{bound:.1f}"
    return repr(float(bound))


def _escape_label_value(value: str) -> str:
    """A label value escaped per the exposition grammar."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_suffix(labels: dict[str, str], extra: str | None = None) -> str:
    """Rendered ``{key="value",...}`` (empty string when label-free)."""
    pairs = [
        f'{_sanitize(key)}="{_escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    ]
    if extra is not None:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(
    registry: MetricsRegistry | NullMetricsRegistry,
    namespace: str = "repro",
    bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS,
) -> str:
    """The registry as Prometheus text exposition format 0.0.4.

    Families are emitted in sorted-name order (series of one family
    sorted by label set), so output is deterministic for a given
    registry state.  Labelled registry names
    (:func:`repro.obs.metrics.labelled`) become multi-series families
    with one shared ``# HELP``/``# TYPE`` header.
    """
    lines: list[str] = []
    metrics = sorted(registry.snapshot_metrics(), key=lambda m: m.name)
    families_seen: set[str] = set()
    for metric in metrics:
        base_name, labels = split_labels(metric.name)
        base = (
            f"{namespace}_{_sanitize(base_name)}"
            if namespace
            else _sanitize(base_name)
        )
        if isinstance(metric, Counter):
            family = f"{base}_total"
            if family not in families_seen:
                families_seen.add(family)
                lines.append(
                    f"# HELP {family} repro.obs counter {base_name!r}"
                )
                lines.append(f"# TYPE {family} counter")
            lines.append(
                f"{family}{_label_suffix(labels)} "
                f"{_format_value(metric.value)}"
            )
        elif isinstance(metric, Gauge):
            if base not in families_seen:
                families_seen.add(base)
                lines.append(f"# HELP {base} repro.obs gauge {base_name!r}")
                lines.append(f"# TYPE {base} gauge")
            lines.append(
                f"{base}{_label_suffix(labels)} {_format_value(metric.value)}"
            )
        elif isinstance(metric, Histogram):
            if base not in families_seen:
                families_seen.add(base)
                lines.append(
                    f"# HELP {base} repro.obs histogram {base_name!r}"
                )
                lines.append(f"# TYPE {base} histogram")
            for bound, count in metric.cumulative_buckets(bounds):
                suffix = _label_suffix(
                    labels, extra=f'le="{_format_bound(bound)}"'
                )
                lines.append(f"{base}_bucket{suffix} {count}")
            lines.append(
                f"{base}_sum{_label_suffix(labels)} "
                f"{_format_value(metric.total)}"
            )
            lines.append(f"{base}_count{_label_suffix(labels)} {metric.count}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(
    registry: MetricsRegistry | NullMetricsRegistry,
    target: str | IO[str],
    namespace: str = "repro",
) -> int:
    """Write one exposition snapshot; returns the line count."""
    text = render_prometheus(registry, namespace=namespace)
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    return len(text.splitlines())
