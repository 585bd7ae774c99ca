"""A strict parser for the Prometheus text exposition that
``repro.obs.live.render_prometheus`` writes, shared by the tests that
scrape ``/metrics``."""

from __future__ import annotations

import re

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict[str, dict[tuple[tuple[str, str], ...], float]]:
    """A tiny exposition-format parser.

    Returns ``{metric_name: {labels-as-sorted-tuple: value}}``.  Raises
    ``ValueError`` on malformed lines, duplicate ``TYPE`` declarations,
    or samples for a family declared after its samples started — enough
    rigor to catch a broken renderer, not a full Prometheus parser.
    """
    out: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    typed: set[str] = set()
    sampled: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: bad TYPE line: {line!r}")
            name = parts[2]
            if name in typed:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
            if name in sampled:
                raise ValueError(
                    f"line {lineno}: TYPE for {name} after its samples"
                )
            typed.add(name)
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: bad sample line: {line!r}")
        name, _braced, raw_labels, raw_value = m.groups()
        labels: dict[str, str] = {}
        if raw_labels:
            pos = 0
            while pos < len(raw_labels):
                lm = _LABEL.match(raw_labels, pos)
                if not lm:
                    raise ValueError(
                        f"line {lineno}: bad labels: {raw_labels!r}"
                    )
                labels[lm.group(1)] = (
                    lm.group(2)
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                pos = lm.end()
                if pos < len(raw_labels):
                    if raw_labels[pos] != ",":
                        raise ValueError(
                            f"line {lineno}: bad labels: {raw_labels!r}"
                        )
                    pos += 1
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad value {raw_value!r}"
            ) from exc
        sampled.add(name)
        key = tuple(sorted(labels.items()))
        family = out.setdefault(name, {})
        if key in family:
            raise ValueError(
                f"line {lineno}: duplicate sample {name}{dict(key)}"
            )
        family[key] = value
    return out
