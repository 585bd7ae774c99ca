"""Compare two obs snapshots, and gate CI on counter regressions.

Two modes, one CLI (``python -m repro.obs.diff``):

* **pairwise diff** — ``python -m repro.obs.diff before.json after.json``
  prints a table of counter deltas and aggregated span-timing deltas
  between two snapshots written by ``obs.render_json()`` /
  ``fast --profile-json`` / ``pytest benchmarks --obs-json``.

* **regression gate** — ``python -m repro.obs.diff --baseline
  BENCH_baseline.json --bench fig7_max_n_32 --snapshot fresh.json``
  checks the fresh snapshot's counters against the named benchmark's
  ``guard`` mapping in the baseline file.  A counter regresses when
  ``actual > expected * (1 + tolerance) + slack``; the per-counter
  ``tolerances`` mapping in the baseline overrides the default
  tolerance for individual counters.  Exit 1 on regression — this is
  what CI's bench-regression job runs.

  Timing-derived guards are only comparable between *like* hosts, so
  when the baseline entry records the core count it was measured on
  (``container_cpus``) and the snapshot carries the candidate host's
  (the ``bench.host_cpus`` gauge the serving benchmarks set), a
  mismatch demotes regressions to annotations: the deltas are printed,
  the exit code stays 0.  A 4-core laptop must not "regress" numbers
  measured on a 1-core CI container.

Histograms are flattened to ``name.count`` / ``name.sum`` /
``name.mean`` scalars; span trees are aggregated per span name into
``(count, total_ms)`` so two runs with different tree shapes still
compare.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterable, TextIO

#: Default relative tolerance for the regression gate.
DEFAULT_TOLERANCE = 0.2
#: Default absolute slack (keeps zero-valued baselines from tripping).
DEFAULT_SLACK = 10


def load(path: str) -> dict[str, Any]:
    with open(path) as f:
        return json.load(f)


def flatten_counters(doc: dict[str, Any]) -> dict[str, float]:
    """The snapshot's metrics as flat name -> number (histograms split)."""
    out: dict[str, float] = {}
    for name, value in doc.get("metrics", doc).items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[name] = value
        elif isinstance(value, dict) and "count" in value:
            out[f"{name}.count"] = value.get("count", 0)
            out[f"{name}.sum"] = value.get("sum", 0)
            out[f"{name}.mean"] = value.get("mean", 0.0)
            for q in ("p50", "p95", "p99"):
                if q in value:
                    out[f"{name}.{q}"] = value[q]
    return out


def _walk_spans(nodes: Iterable[dict[str, Any]]) -> Iterable[dict[str, Any]]:
    for n in nodes:
        yield n
        yield from _walk_spans(n.get("children", ()))


def span_totals(doc: dict[str, Any]) -> dict[str, tuple[int, float]]:
    """Aggregate the snapshot's span tree: name -> (count, total_ms)."""
    out: dict[str, tuple[int, float]] = {}
    for node in _walk_spans(doc.get("trace", ())):
        name = node.get("name", "?")
        dur = node.get("duration_ms")
        count, total = out.get(name, (0, 0.0))
        out[name] = (count + 1, total + (dur or 0.0))
    return out


def diff_counters(
    before: dict[str, Any], after: dict[str, Any]
) -> list[tuple[str, float | None, float | None]]:
    """Counter rows ``(name, before_value, after_value)``; None = absent."""
    a, b = flatten_counters(before), flatten_counters(after)
    return [(name, a.get(name), b.get(name)) for name in sorted(set(a) | set(b))]


def _fmt(v: float | None) -> str:
    if v is None:
        return "-"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.4f}"
    return f"{int(v)}"


def render_diff(
    before: dict[str, Any],
    after: dict[str, Any],
    *,
    out: TextIO = sys.stdout,
) -> None:
    """Print counter and span-timing deltas between two snapshots."""
    rows = diff_counters(before, after)
    if rows:
        width = max(len(name) for name, _, _ in rows)
        print("== counters ==", file=out)
        for name, a, b in rows:
            if a == b:
                delta = ""
            elif a is None or b is None:
                delta = "  (added)" if a is None else "  (removed)"
            else:
                sign = "+" if b >= a else ""
                pct = f" ({(b - a) / a:+.1%})" if a else ""
                delta = f"  {sign}{_fmt(b - a)}{pct}"
            print(f"{name:<{width}}  {_fmt(a):>12} -> {_fmt(b):>12}{delta}", file=out)
    spans_a, spans_b = span_totals(before), span_totals(after)
    names = sorted(set(spans_a) | set(spans_b))
    if names:
        width = max(len(n) for n in names)
        print("\n== span timings (aggregated by name) ==", file=out)
        for name in names:
            ca, ta = spans_a.get(name, (0, 0.0))
            cb, tb = spans_b.get(name, (0, 0.0))
            print(
                f"{name:<{width}}  n:{ca:>6} -> {cb:<6} "
                f"total_ms:{ta:>10.2f} -> {tb:<10.2f}",
                file=out,
            )


def gate(
    baseline: dict[str, Any],
    bench: str,
    snapshot_doc: dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    slack: float = DEFAULT_SLACK,
    out: TextIO = sys.stdout,
) -> int:
    """Check a snapshot against a baseline benchmark's guarded counters.

    Returns an exit code: 0 pass, 1 regression, 2 usage error.  The
    benchmark entry may carry a ``tolerances`` mapping overriding the
    default relative tolerance per counter name.
    """
    benchmarks = baseline.get("benchmarks", {})
    if bench not in benchmarks:
        print(
            f"error: benchmark {bench!r} not in baseline "
            f"(have: {', '.join(sorted(benchmarks))})",
            file=sys.stderr,
        )
        return 2
    entry = benchmarks[bench]
    guard = entry.get("guard", {})
    if not guard:
        print(f"warning: benchmark {bench!r} has no guarded counters", file=out)
        return 0
    tolerances = entry.get("tolerances", {})
    metrics = flatten_counters(snapshot_doc)
    failures = []
    for name, expected in guard.items():
        tol = tolerances.get(name, tolerance)
        actual = metrics.get(name)
        if actual is None:
            failures.append(f"{name}: missing from snapshot (baseline {expected})")
            continue
        limit = expected * (1.0 + tol) + slack
        ok = actual <= limit
        print(
            f"{'ok' if ok else 'FAIL':4} {name}: baseline={expected} "
            f"actual={_fmt(actual)} limit={limit:g} (tol {tol:.0%})",
            file=out,
        )
        if not ok:
            failures.append(
                f"{name}: {_fmt(actual)} > limit {limit:g} (baseline {expected})"
            )
    if failures:
        mismatch = _core_count_mismatch(entry, metrics)
        if mismatch is not None:
            baseline_cpus, host_cpus = mismatch
            print(
                f"\n{bench}: host has {host_cpus} cpu(s), baseline was "
                f"measured on {baseline_cpus} — demoting "
                f"{len(failures)} regression(s) to annotations "
                f"(timing guards are only comparable between like hosts):",
                file=out,
            )
            for f_ in failures:
                print(f"  ~ {f_}", file=out)
            return 0
        print(f"\n{bench}: {len(failures)} counter(s) regressed:", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        return 1
    print(f"\n{bench}: all guarded counters within tolerance", file=out)
    return 0


def _core_count_mismatch(
    entry: dict[str, Any], metrics: dict[str, float]
) -> tuple[int, int] | None:
    """``(baseline_cpus, host_cpus)`` when both are known and differ.

    The baseline entry records ``container_cpus`` (the host it was
    measured on); benchmarks record the candidate host's count as the
    ``bench.host_cpus`` gauge.  Either side missing -> no annotation
    (the gate stays strict).
    """
    baseline_cpus = entry.get("container_cpus")
    host_cpus = metrics.get("bench.host_cpus")
    if baseline_cpus is None or host_cpus is None:
        return None
    if int(baseline_cpus) == int(host_cpus):
        return None
    return int(baseline_cpus), int(host_cpus)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description="diff two obs snapshots, or gate one against a baseline",
    )
    parser.add_argument("snapshots", nargs="*", help="two snapshot JSON files to diff")
    parser.add_argument("--baseline", help="BENCH_baseline.json for gate mode")
    parser.add_argument("--bench", help="benchmark key under 'benchmarks'")
    parser.add_argument("--snapshot", help="fresh snapshot JSON for gate mode")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--slack", type=float, default=DEFAULT_SLACK)
    args = parser.parse_args(argv)

    if args.baseline or args.bench or args.snapshot:
        if not (args.baseline and args.bench and args.snapshot):
            parser.error("gate mode needs --baseline, --bench, and --snapshot")
        return gate(
            load(args.baseline),
            args.bench,
            load(args.snapshot),
            tolerance=args.tolerance,
            slack=args.slack,
        )
    if len(args.snapshots) != 2:
        parser.error("pairwise mode needs exactly two snapshot files")
    render_diff(load(args.snapshots[0]), load(args.snapshots[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
