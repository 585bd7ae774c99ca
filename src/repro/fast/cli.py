"""Command-line interface: ``fast [run|check|fmt|explain|batch|serve] ...``.

* ``run`` — compile and evaluate all assertions, print the report (and
  anything ``print``-ed), exit nonzero if an assertion fails;
* ``check`` — parse and type-check only;
* ``fmt`` — parse and pretty-print back to stdout;
* ``explain`` — evaluate assertions as provenance-carrying verdicts and
  print each one's derivation (rules fired, decisive solver queries,
  witness trees); ``--json`` emits the same as structured JSON;
* ``batch`` — run many programs concurrently through the supervised
  worker pool (:mod:`repro.svc`) with per-file crash isolation:
  ``fast batch examples/ --jobs 8 --timeout 10 --json``;
* ``serve`` — JSONL serving against a persistent worker pool, behind
  an admission gate (per-tenant token-bucket quotas, a deadline
  ceiling, ``health``/``stats`` request kinds): ``--stdin-jsonl``
  (one JSON request per input line, one JSON result per output line)
  or ``--http HOST:PORT`` (the same protocol over HTTP/1.1, with a
  bounded queue and load shedding: ``POST /v1/analyze``,
  ``GET /metrics`` Prometheus exposition, ``GET /healthz``, and
  graceful drain on SIGTERM).

``run`` is the default: ``fast program.fast`` and
``fast --profile program.fast`` both work without naming a subcommand.

Exit codes are distinct so scripts can tell *what* failed:

* ``0`` — success (all assertions passed);
* ``1`` — the program compiled but at least one assertion failed;
* ``2`` — the program could not be read, parsed, or compiled
  (front-end errors: syntax, types, parse-depth caps);
* ``3`` — a resource budget ran out (``--timeout`` /
  ``--max-solver-queries`` / ``--max-steps``): the answer is *unknown*,
  not wrong;
* ``4`` — an internal backend error (solver or transducer invariant).

``batch`` maps the same vocabulary over many files: exit 1 only when
some file *really* FAILed an assertion, exit 2 when no file failed but
some were permanent errors (unparsable), exit 0 otherwise — crashed,
hung, and chaos-faulted jobs degrade to UNKNOWN lines, never to a
supervisor crash.

``--profile`` enables :mod:`repro.obs` and prints the span tree and
metric table to stderr after the command; ``--profile-json PATH``
additionally writes the schema-versioned JSON snapshot to ``PATH``.
``--trace-json PATH`` enables :mod:`repro.obs` and writes the span
trees of every thread (and every worker) as a Chrome/Perfetto
trace-event file (open it at ``ui.perfetto.dev``); ``--flamegraph
PATH`` writes the same spans as collapsed-stack lines for flamegraph
tools.  All of these are emitted however the command exits — assertion
failures, budget exhaustion, and crashes still produce their
observability outputs, so failed runs are debuggable.
Setting ``REPRO_OBS=1`` in the environment has the same effect as
``--profile`` minus the printed report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .. import obs
from ..errors import ReproError
from ..guard import Budget, BudgetExceeded, scope as guard_scope
from ..obs import tracer as obs_tracer
from ..trees.parser import TreeParseError
from ..trees.tree import format_tree
from .errors import FastSyntaxError, FastTypeError
from .evaluator import explain_program, run_program
from .parser import parse_program
from .pretty import pretty

#: Exit codes (see module docstring).
EXIT_OK = 0
EXIT_ASSERTION_FAILED = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

_COMMANDS = ("run", "check", "fmt", "explain", "batch", "serve")

_EPILOG = """\
exit codes:
  0  success — the program ran and every assertion passed
  1  assertion failure — the program compiled but an assert failed
  2  error — the file could not be read, parsed, or compiled
  3  budget exhausted — --timeout/--max-solver-queries/--max-steps ran
     out before an answer was reached (the result is unknown)
  4  internal error — a solver, automaton or transducer invariant
     failed, or the program crashed

batch: 1 only if some file FAILed an assertion; 2 if none failed but
some were permanent errors; 0 otherwise (UNKNOWNs do not fail a batch).
"""


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--profile",
        action="store_true",
        help="enable repro.obs and print the span tree + metric table "
        "to stderr when done",
    )
    common.add_argument(
        "--profile-json",
        metavar="PATH",
        default=None,
        help="also write the observability snapshot as JSON to PATH "
        "(written even on nonzero exits)",
    )
    common.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="enable repro.obs and write the recorded spans as a "
        "Chrome/Perfetto trace-event file to PATH (open at ui.perfetto.dev)",
    )
    common.add_argument(
        "--flamegraph",
        metavar="PATH",
        default=None,
        help="enable repro.obs and write the recorded spans as "
        "collapsed-stack flamegraph lines to PATH",
    )
    common.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the compiled-artifact cache (REPRO_CACHE=off): "
        "parse and compile from source even when a cached environment "
        "exists",
    )
    common.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock budget for the whole command; exceeded -> exit 3",
    )
    common.add_argument(
        "--max-solver-queries",
        type=int,
        metavar="N",
        default=None,
        help="cap on SMT satisfiability queries; exceeded -> exit 3",
    )
    common.add_argument(
        "--max-steps",
        type=int,
        metavar="N",
        default=None,
        help="cap on fixpoint/enumeration steps across all algorithms; "
        "exceeded -> exit 3",
    )

    svc_common = argparse.ArgumentParser(add_help=False)
    svc_common.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=4,
        help="worker processes in the supervised pool (default 4)",
    )
    svc_common.add_argument(
        "--retries",
        type=int,
        metavar="K",
        default=2,
        help="retries per job for transient failures (worker crashes, "
        "corrupt replies); a failed attempt is re-queued at once "
        "(default 2)",
    )
    svc_common.add_argument(
        "--kill-timeout",
        type=float,
        metavar="SECONDS",
        default=300.0,
        help="hard wall-clock cap per attempt when a job has no "
        "--timeout of its own; hung workers are killed and respawned "
        "(default 300)",
    )
    svc_common.add_argument(
        "--stats",
        action="store_true",
        help="print a per-kind latency/retry summary table (p50/p95/p99) "
        "to stderr when done",
    )
    svc_common.add_argument(
        "--worker-max-jobs",
        type=int,
        metavar="N",
        default=None,
        help="proactively recycle a worker after serving N jobs "
        "(default: never)",
    )
    svc_common.add_argument(
        "--worker-max-rss",
        metavar="SIZE",
        default=None,
        help="proactively recycle a worker whose resident set exceeds "
        "SIZE (accepts suffixes: 64M, 1G, 4096; default: never)",
    )
    svc_common.add_argument(
        "--worker-max-age",
        type=float,
        metavar="SECONDS",
        default=None,
        help="proactively recycle a worker older than SECONDS "
        "(default: never)",
    )
    svc_common.add_argument(
        "--worker-max-terms",
        type=int,
        metavar="N",
        default=None,
        help="in-worker hygiene: past N interned terms the worker "
        "consistency-checks and flushes the term/solver/exec caches "
        "between jobs (default: never)",
    )

    parser = argparse.ArgumentParser(
        prog="fast",
        description="Fast: a transducer-based language for tree manipulation "
        "(PLDI 2014 reproduction)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, desc in [
        ("run", "compile and evaluate assertions (the default command)"),
        ("check", "parse and type-check only"),
        ("fmt", "parse and pretty-print"),
        ("explain", "evaluate assertions and print each verdict's derivation"),
    ]:
        p = sub.add_parser(
            cmd,
            help=desc,
            parents=[common],
            epilog=_EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("file", help="path to a .fast program")
        if cmd == "explain":
            p.add_argument(
                "--json",
                action="store_true",
                help="emit the explanations as structured JSON",
            )

    batch = sub.add_parser(
        "batch",
        help="run many programs through the supervised worker pool",
        parents=[common, svc_common],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    batch.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="program files and/or directories of .fast files",
    )
    batch.add_argument(
        "--json",
        action="store_true",
        help="emit the full batch report as JSON",
    )

    serve = sub.add_parser(
        "serve",
        help="serve analysis jobs from a line-oriented loop",
        parents=[common, svc_common],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument(
        "--stdin-jsonl",
        action="store_true",
        help="read one JSON job request per stdin line, write one JSON "
        "result per stdout line",
    )
    serve.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help="serve the same job protocol over HTTP/1.1 with admission "
        "control (bounded queue, tenant quotas, deadline shedding): POST "
        "/v1/analyze (one JSON request per body; shed -> 429/503 with "
        "Retry-After), GET /metrics (Prometheus text exposition), GET "
        "/healthz; PORT 0 picks a free port (printed to stderr)",
    )
    serve.add_argument(
        "--stats-interval",
        type=float,
        metavar="SECONDS",
        default=0.0,
        help="print a rolling jobs/sec + per-kind quantile line, with "
        "per-tenant counts since the previous one, to stderr at most "
        "every SECONDS (0 = never; default 0)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        metavar="N",
        default=64,
        help="admitted requests that may wait for a worker; beyond "
        "this, requests are shed immediately with retry_after "
        "(default 64)",
    )
    serve.add_argument(
        "--max-deadline",
        type=float,
        metavar="SECONDS",
        default=30.0,
        help="server-side ceiling clamped onto every job's deadline; "
        "jobs without one get exactly this much (default 30)",
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        metavar="R",
        default=0.0,
        help="per-tenant admission rate in requests/sec (token "
        "bucket); 0 disables quotas (default 0)",
    )
    serve.add_argument(
        "--tenant-burst",
        type=int,
        metavar="N",
        default=8,
        help="per-tenant burst capacity above --tenant-rate (default 8)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        metavar="SECONDS",
        default=10.0,
        help="on SIGTERM/EOF: seconds to finish admitted jobs before "
        "shedding the rest and closing the pool (default 10)",
    )
    serve.add_argument(
        "--serve-root",
        metavar="DIR",
        default=None,
        help="directory 'file' requests are confined to (default: cwd "
        "for --stdin-jsonl, disabled for --http)",
    )
    serve.add_argument(
        "--max-source-bytes",
        type=int,
        metavar="N",
        default=1 << 20,
        help="cap on inline 'source' and server-side file reads "
        "(default 1 MiB)",
    )
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Insert the default ``run`` command for ``fast [flags] file``."""
    if any(a in _COMMANDS for a in argv):
        return argv
    if any(not a.startswith("-") for a in argv):
        return ["run"] + argv
    return argv  # bare flags like -h / --help go to the main parser


def _emit_outputs(args: argparse.Namespace) -> None:
    """Write every requested observability output.

    Runs in ``main``'s ``finally``, so profile/trace/flamegraph files
    appear whatever the exit path — assertion failure, budget
    exhaustion, even an unexpected crash.  Write failures warn instead
    of raising (they must not mask the command's own exit code).
    """
    try:
        if args.profile:
            print(obs.render_text(), file=sys.stderr)
        if args.profile_json:
            with open(args.profile_json, "w") as f:
                f.write(obs.render_json())
                f.write("\n")
        if args.trace_json:
            obs.write_chrome_trace(args.trace_json)
        if args.flamegraph:
            obs.write_flamegraph(args.flamegraph)
    except OSError as exc:
        print(f"warning: could not write observability output: {exc}",
              file=sys.stderr)


def _budget(args: argparse.Namespace) -> Budget | None:
    if (
        args.timeout is None
        and args.max_solver_queries is None
        and args.max_steps is None
    ):
        return None
    return Budget(
        deadline=args.timeout,
        max_solver_queries=args.max_solver_queries,
        max_steps=args.max_steps,
    )


def _budget_spec(args: argparse.Namespace):
    """The per-job budget for batch/serve (None if no flags given)."""
    from ..svc import BudgetSpec

    if (
        args.timeout is None
        and args.max_solver_queries is None
        and args.max_steps is None
    ):
        return None
    return BudgetSpec(
        deadline=args.timeout,
        max_solver_queries=args.max_solver_queries,
        max_steps=args.max_steps,
    )


def _service_config(args: argparse.Namespace):
    from ..svc import LifecyclePolicy, ServiceConfig, parse_size

    lifecycle = None
    max_rss = getattr(args, "worker_max_rss", None)
    if (
        getattr(args, "worker_max_jobs", None) is not None
        or max_rss is not None
        or getattr(args, "worker_max_age", None) is not None
        or getattr(args, "worker_max_terms", None) is not None
    ):
        lifecycle = LifecyclePolicy(
            max_jobs=args.worker_max_jobs,
            max_rss_bytes=parse_size(max_rss) if max_rss is not None else None,
            max_age=args.worker_max_age,
            max_terms=args.worker_max_terms,
        )
    return ServiceConfig(
        jobs=args.jobs,
        kill_timeout=args.kill_timeout,
        retries=args.retries,
        lifecycle=lifecycle,
    )


def _batch_command(args: argparse.Namespace) -> int:
    from ..svc import run_batch

    report = run_batch(
        args.paths, config=_service_config(args), budget=_budget_spec(args)
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if args.stats:
        print(report.render_stats(), file=sys.stderr)
    return report.exit_code


def _serve_command(args: argparse.Namespace) -> int:
    import signal
    import threading

    if not args.stdin_jsonl and not args.http:
        print(
            "error: fast serve requires --stdin-jsonl or --http HOST:PORT",
            file=sys.stderr,
        )
        return EXIT_ERROR
    from ..svc import GateConfig, RequestLimits, serve_http, serve_lines

    gate_config = GateConfig(
        max_queue=args.max_queue,
        max_deadline=args.max_deadline,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        drain_timeout=args.drain_timeout,
        workers=args.jobs,
    )

    if args.http:
        host, _, port_s = args.http.rpartition(":")
        if not host or not port_s.isdigit():
            print(
                f"error: --http wants HOST:PORT, got {args.http!r}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        limits = RequestLimits(
            root=args.serve_root, max_source_bytes=args.max_source_bytes
        )

        def ready(front) -> None:
            print(
                f"http listening on {front.host}:{front.port} "
                f"(queue {args.max_queue}, deadline ceiling "
                f"{args.max_deadline}s; SIGTERM drains)",
                file=sys.stderr,
            )
            sys.stderr.flush()
            if threading.current_thread() is threading.main_thread():
                for sig in (signal.SIGTERM, signal.SIGINT):
                    signal.signal(sig, lambda *_: front.initiate_drain())

        served = serve_http(
            host,
            int(port_s),
            config=_service_config(args),
            gate_config=gate_config,
            limits=limits,
            stats=args.stats,
            stats_interval=args.stats_interval,
            ready=ready,
        )
        print(f"drained; served {served} jobs", file=sys.stderr)
        return EXIT_OK

    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGTERM,):
            signal.signal(sig, lambda *_: stop.set())
    limits = RequestLimits(
        root=args.serve_root if args.serve_root is not None else os.getcwd(),
        max_source_bytes=args.max_source_bytes,
    )
    served = serve_lines(
        sys.stdin,
        sys.stdout,
        config=_service_config(args),
        gate_config=gate_config,
        limits=limits,
        stats=args.stats,
        stats_interval=args.stats_interval,
        stop=stop,
    )
    print(f"served {served} jobs", file=sys.stderr)
    return EXIT_OK


def _run_command(args: argparse.Namespace, source: str) -> int:
    if args.command == "fmt":
        print(pretty(parse_program(source)), end="")
        return EXIT_OK
    if args.command == "check":
        # Through the artifact cache: a warm `check` is a hash lookup.
        from ..exec.cache import cached_artifact

        cached_artifact(source)
        print("ok")
        return EXIT_OK
    if args.command == "explain":
        explained = explain_program(source)
        if args.json:
            print(json.dumps(explained.to_dict(), indent=2))
        else:
            print(explained.render())
        if any(a.passed is False for a in explained.assertions):
            return EXIT_ASSERTION_FAILED
        if explained.any_unknown:
            return EXIT_BUDGET
        return EXIT_OK
    report = run_program(source)
    for tree in report.printed:
        print(format_tree(tree))
    print(report.render())
    return EXIT_OK if report.ok else EXIT_ASSERTION_FAILED


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(_normalize_argv(argv))

    if getattr(args, "no_cache", False):
        # Read at call time by repro.exec.config; inherited by forked
        # batch/serve workers.
        os.environ["REPRO_CACHE"] = "off"
    if args.profile or args.profile_json:
        obs.enabled(True)
    if args.trace_json or args.flamegraph:
        obs.enabled(True)
        obs_tracer.reset_retained()  # the trace covers this command only

    try:
        if args.command == "batch":
            # Budgets are enforced per job inside the workers, so no
            # guard_scope here — the supervisor itself is unbudgeted.
            return _batch_command(args)
        if args.command == "serve":
            return _serve_command(args)

        try:
            with open(args.file) as f:
                source = f.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR

        budget = _budget(args)
        try:
            if budget is not None:
                with guard_scope(budget):
                    return _run_command(args, source)
            return _run_command(args, source)
        except BudgetExceeded as exc:
            print(f"unknown: {exc}", file=sys.stderr)
            print(f"  resources at abort: {exc.snapshot}", file=sys.stderr)
            return EXIT_BUDGET
        except (FastSyntaxError, FastTypeError, TreeParseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        except ReproError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        # Observability outputs are emitted on every exit path,
        # including uncaught exceptions.
        _emit_outputs(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
