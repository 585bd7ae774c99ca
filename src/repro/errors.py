"""The common error hierarchy of the reproduction.

Every error the library raises on purpose derives from
:class:`ReproError`, so callers (and the ``fast`` CLI) can map failures
to outcomes by family instead of pattern-matching messages:

* front-end errors — :class:`repro.fast.lexer.FastSyntaxError`,
  :class:`repro.fast.errors.FastTypeError`,
  :class:`repro.trees.parser.TreeParseError` and the
  :class:`ParseDepthError` depth caps — exit code 2;
* resource exhaustion — :class:`repro.guard.BudgetExceeded` and the
  other :class:`repro.guard.GuardError` degradations — exit code 3;
* backend errors — :class:`repro.smt.terms.SmtError`,
  :class:`repro.automata.sta.AutomatonError`,
  :class:`repro.transducers.sttr.TransducerError` — exit code 4.

Errors that know where they came from carry a :class:`SourceLocation`;
the constructors of the concrete families fill it in from their own
position types (token positions, byte offsets).

The whole hierarchy pickles faithfully: the analysis service
(:mod:`repro.svc`) runs jobs in subprocess workers and ships failures
back over a pipe, so every attribute an error carries — location,
budget snapshot, partial outputs — must survive the round trip.
Default exception pickling re-calls ``cls(*args)``, which breaks for
every subclass whose constructor takes more than ``args`` holds;
:meth:`ReproError.__reduce__` instead rebuilds instances structurally
(``__new__`` + ``args`` + ``__dict__``), which works for any subclass
without per-class boilerplate (tested over the full public hierarchy in
``tests/test_errors_pickle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SourceLocation:
    """A position in some input text; any subset of the fields may be known."""

    line: Optional[int] = None
    column: Optional[int] = None
    offset: Optional[int] = None

    def __str__(self) -> str:
        if self.line is not None and self.column is not None:
            return f"line {self.line}, column {self.column}"
        if self.line is not None:
            return f"line {self.line}"
        if self.offset is not None:
            return f"offset {self.offset}"
        return "unknown location"


def _rebuild_error(
    cls: type, args: tuple, state: dict
) -> "ReproError":
    """Reconstruct an error without calling any subclass ``__init__``."""
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class ReproError(Exception):
    """Base class of every deliberate error in the library.

    ``location`` is a :class:`SourceLocation` when the error can point at
    the input that caused it, else None.
    """

    def __init__(
        self, message: str, location: SourceLocation | None = None
    ) -> None:
        super().__init__(message)
        self.location = location

    def __reduce__(self):
        # Structural pickling: subclass constructors take positions,
        # snapshots, partial outputs — none of which survive the default
        # ``cls(*args)`` protocol.  Rebuilding from __new__ + __dict__
        # round-trips every subclass, including ones defined later.
        return (_rebuild_error, (type(self), self.args, self.__dict__.copy()))


class ParseDepthError(ReproError):
    """Input nesting exceeded a parser's explicit depth cap.

    Raised instead of letting a recursive-descent parser die with a raw
    ``RecursionError`` on adversarially deep input.  The concrete
    parsers raise subclasses that also belong to their own error family
    (:class:`repro.trees.parser.TreeParseDepthError`,
    :class:`repro.fast.lexer.FastParseDepthError`), so existing
    ``except`` clauses keep working.
    """
