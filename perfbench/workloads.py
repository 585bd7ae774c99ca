"""The three workloads, each a closed loop with one caller.

Every operation is timed from the moment its input is handed to the
program until its output is back, and read in reference seconds (see
``refclock.py``).  Input generation and the correctness check run
outside that interval.  Each operation also has a cycle time, from its
input being handed over until the program is ready for the next input;
it differs from the latency only for serve, whose loop does bookkeeping
after each reply.  Each workload also splits every operation into the
same fixed table of layers, following the serving chain of ROADMAP.md:

========== ==========================================================
front      turning the caller's input into the program's: HTML parse
           and the Figure 3 tree encoding (sanitize), Fast parse
           (analyze), request parse and admission gate (serve)
compile    artifact lookup, or compile after the parse on a miss,
           less its automata and transducer algorithms
algorithm  the automata and transducer algorithms: composition,
           pre-image, type checking, inclusion and emptiness
           (analyze, serve)
eval       Fast evaluation less its algorithms: the transducer run
           (sanitize), assertion checking (analyze, serve)
dispatch   serve only: the supervisor's pool run less the worker's
           job, i.e. handing the job over, the pipe both ways and
           merging the worker's telemetry
reply      decoding and serializing the result for the caller
unattr     the rest of the operation's time
========== ==========================================================

Layers are timed with the benchmark's own clock around each call into
the program.  Where a layer runs inside the program (the Fast parse
inside an artifact build, the worker side of a served request) its time
comes from the spans the program already records when observability is
on, which is why the layer table is only taken with ``--trace 1``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import inputs
import refclock

LAYERS = ("front", "compile", "algorithm", "eval", "dispatch", "reply")

#: Spans of the automata and transducer algorithms.
_ALGORITHMS = frozenset(
    ("compose", "preimage", "typecheck", "antichain.inclusion", "emptiness.witness")
)

_COUNTERS = ("solver.sat_queries", "exec.cache.hit", "exec.cache.miss")

_now = time.perf_counter


@dataclass
class Tally:
    """What one run measured.  Operations are recorded in wall seconds,
    each bracketed by reference timings, and read back in reference
    seconds (see :mod:`refclock`)."""

    tracing: bool
    attempted: int = 0
    failed: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    ops: list[tuple[float, dict[str, float]]] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def reference(self) -> None:
        """Time the reference computation; call right before the first
        operation and right after each one."""
        self.refs.append(refclock.reference_seconds())

    def record(self, latency: float, cycle: float | None = None, **layers: float) -> None:
        self.ops.append((latency, latency if cycle is None else cycle, layers))

    def scaled(self) -> list[tuple[float, float, dict[str, float]]]:
        """Each operation's latency, cycle and layer times in reference
        seconds."""
        out = []
        for i, (latency, cycle, layers) in enumerate(self.ops):
            k = refclock.scale(self.refs[i], self.refs[i + 1])
            out.append((latency * k, cycle * k, {name: t * k for name, t in layers.items()}))
        return out


# -- program spans and counters ------------------------------------------------


def _walk(spans):
    for sp in spans:
        yield sp
        yield from _walk(sp.children)


def _span_total(spans, name: str) -> float:
    return sum(sp.duration or 0.0 for sp in _walk(spans) if sp.name == name)


def _duration(spans) -> float:
    return sum(sp.duration or 0.0 for sp in spans)


def _algorithm_total(spans) -> float:
    """Time in algorithm spans, counting nested ones once."""
    total = 0.0
    for sp in spans:
        if sp.name in _ALGORITHMS:
            total += sp.duration or 0.0
        else:
            total += _algorithm_total(sp.children)
    return total


def _take_spans():
    """This thread's finished program spans since the last call."""
    from repro.obs import tracer

    roots = tracer.trace()
    tracer.reset_trace()
    return roots


def _read_counters() -> dict[str, int]:
    from repro import obs

    return {name: obs.counter(name).value for name in _COUNTERS}


def _measure(tally: Tally, seconds: float, one) -> None:
    """Call ``one(True)`` until ``seconds`` have passed, with the program's
    observability on when tracing, and count the program's work."""
    from repro import obs

    obs.enabled(tally.tracing)
    try:
        _take_spans()
        before = _read_counters()
        deadline = _now() + seconds
        tally.reference()
        while _now() < deadline:
            one(True)
            tally.reference()
        after = _read_counters()
    finally:
        obs.enabled(False)
    tally.counters = {k: after[k] - before[k] for k in _COUNTERS}


# -- sanitize ------------------------------------------------------------------


def sanitize(seed: int, seconds: float, tracing: bool) -> Tally:
    """Section 5.1: sanitize pages with the composed Fast transducer."""
    from repro.apps.html import (
        MonolithicSanitizer,
        decode_forest,
        encode_forest,
        fast_sanitizer_source,
        parse_html,
        serialize,
    )
    from repro.exec.cache import cached_artifact

    source = fast_sanitizer_source(inputs.SANITIZE_POLICY)
    reference = MonolithicSanitizer(inputs.SANITIZE_POLICY)
    tally = Tally(tracing)
    stream = inputs.pages(seed)

    def one(timed: bool) -> None:
        page = next(stream)
        t0 = _now()
        tree = encode_forest(parse_html(page))
        t1 = _now()
        rem_esc = cached_artifact(source).env.transducers["rem_esc"]
        t2 = _now()
        out = rem_esc.apply_one(tree)
        t3 = _now()
        html = serialize(decode_forest(out))
        t4 = _now()
        if timed:
            tally.record(t4 - t0, front=t1 - t0, compile=t2 - t1, eval=t3 - t2, reply=t4 - t3)
        tally.check(html == reference.sanitize(page))

    # Warm-up: compile the sanitizer.
    one(False)
    _measure(tally, seconds, one)
    return tally


# -- analyze -------------------------------------------------------------------


def _outcome(assertions: list[dict]) -> str:
    if any(a["passed"] is False for a in assertions):
        return inputs.REFUTED
    if all(a["passed"] is True for a in assertions):
        return inputs.PROVED
    return "UNKNOWN"


def analyze(seed: int, seconds: float, tracing: bool) -> Tally:
    """Sections 2, 5.2 and 5.4: compile and check distinct programs."""
    from repro.exec.cache import cached_artifact
    from repro.fast.evaluator import explain_artifact

    tally = Tally(tracing)
    stream = inputs.programs(seed)

    def one(timed: bool) -> None:
        program = next(stream)
        t0 = _now()
        artifact = cached_artifact(program.source)
        t1 = _now()
        report = explain_artifact(artifact)
        t2 = _now()
        reply = json.dumps(report.to_dict())
        t3 = _now()
        if timed:
            spans = _take_spans() if tracing else []
            built = [sp for sp in spans if sp.start < t1]
            ran = [sp for sp in spans if sp.start >= t1]
            parse = _span_total(built, "parse")
            in_build, in_run = _algorithm_total(built), _algorithm_total(ran)
            tally.record(
                t3 - t0,
                front=parse,
                compile=t1 - t0 - parse - in_build,
                algorithm=in_build + in_run,
                eval=t2 - t1 - in_run,
                reply=t3 - t2,
            )
        tally.check(_outcome(json.loads(reply)["assertions"]) == program.expected)

    # Warm-up: one program of each kind, so lazy imports are done.
    for _ in inputs.KINDS:
        one(False)
    _measure(tally, seconds, one)
    return tally


# -- serve ---------------------------------------------------------------------


class _Responses:
    """The ``out`` stream of the serving loop: stamps each response line
    as it is written and hands it on for checking."""

    def __init__(self, on_response) -> None:
        self.on_response = on_response

    def write(self, text: str) -> None:
        if text != "\n":
            self.on_response(_now(), text)

    def flush(self) -> None:
        pass


def _served_layers(sent: float, written: float, spans) -> dict[str, float]:
    """Fold one served request's program spans into the layer table."""
    (pool_run,) = [sp for sp in spans if sp.name == "svc.pool.run"]
    # The worker's own svc.job span is the innermost one; the supervisor's
    # span of the same name holds it.
    jobs = [sp for sp in _walk(pool_run.children) if sp.name == "svc.job"]
    worker = [sp for sp in jobs if not any(c.name == "svc.job" for c in sp.children)]
    work = [child for job in worker for child in job.children]
    built = [sp for sp in work if sp.name == "fast.compile"]
    ran = [sp for sp in work if sp.name != "fast.compile"]
    in_build, in_run = _algorithm_total(built), _algorithm_total(ran)
    return {
        "front": pool_run.start - sent,
        "compile": _duration(built) - in_build,
        "algorithm": in_build + in_run,
        "eval": _duration(ran) - in_run,
        # Worker spans run on the worker's clock, so only their durations
        # are compared with the supervisor's.
        "dispatch": pool_run.duration - _duration(worker),
        "reply": written - (pool_run.start + pool_run.duration),
    }


def serve(seed: int, seconds: float, tracing: bool) -> Tally:
    """Requests through the serving loop of ``fast serve --stdin-jsonl``:
    request parse, the admission gate, a one-worker pool, JSON replies."""
    from repro import obs
    from repro.svc import RequestLimits, ServiceConfig, serve_lines

    tally = Tally(tracing)
    corpus, stream = inputs.requests(seed)
    expected: dict[str, str] = {}
    sent: dict[str, float] = {}
    # Timed responses not yet recorded: (sent, written, layers, checked).
    answered: list[tuple[float, float, dict[str, float], float]] = []

    def on_response(written: float, text: str) -> None:
        doc = json.loads(text)
        rid = doc.get("id", "")
        tally.check(rid in expected and doc.get("outcome") == expected.pop(rid))
        if rid in sent:
            t0 = sent.pop(rid)
            layers = _served_layers(t0, written, _take_spans()) if tracing else {}
            answered.append((t0, written, layers, _now()))

    def settle(resumed: float) -> None:
        # A request's cycle ends when the loop asks for the next line, so
        # the loop's bookkeeping after the reply counts; the benchmark's
        # own check of the reply does not.
        for t0, written, layers, checked in answered:
            tally.record(written - t0, cycle=resumed - t0 - (checked - written), **layers)
        answered.clear()

    def lines():
        # Warm-up: every corpus program once, so the worker holds them.
        for i, program in enumerate(corpus):
            expected[f"w{i}"] = program.expected
            yield json.dumps({"id": f"w{i}", "kind": "run", "source": program.source})
        _take_spans()
        before = _read_counters()
        deadline = _now() + seconds
        i = 0
        while True:
            settle(_now())
            if _now() >= deadline:
                break
            program = next(stream)
            rid = f"r{i}"
            i += 1
            expected[rid] = program.expected
            line = json.dumps({"id": rid, "kind": "run", "source": program.source})
            tally.reference()
            sent[rid] = _now()
            yield line
        tally.reference()
        after = _read_counters()
        tally.counters = {k: after[k] - before[k] for k in _COUNTERS}

    # Worker telemetry is configured when the service starts, so tracing
    # must be on before the serving loop begins.
    obs.enabled(tracing)
    try:
        with open(os.devnull, "w") as err:
            serve_lines(
                lines(), _Responses(on_response), ServiceConfig(jobs=1),
                limits=RequestLimits(), err=err,
            )
    finally:
        obs.enabled(False)
    # A request that never got a response is a failure.
    for _ in expected:
        tally.check(False)
    return tally


WORKLOADS = {"sanitize": sanitize, "analyze": analyze, "serve": serve}
