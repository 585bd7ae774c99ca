"""Every public error class must pickle-round-trip faithfully.

The analysis service (:mod:`repro.svc`) executes jobs in subprocess
workers; failures cross the process boundary as pickles.  Default
exception pickling calls ``cls(*args)``, which silently drops any
attribute not stored in ``args`` (locations, budget snapshots, partial
outputs) and outright fails for constructors with extra required
parameters.  :meth:`repro.errors.ReproError.__reduce__` fixes this
structurally; this suite proves it for the whole hierarchy, including
representative instances of every concrete class.
"""

from __future__ import annotations

import pickle

import pytest

from repro.automata.sta import AutomatonError
from repro.errors import ParseDepthError, ReproError, SourceLocation
from repro.fast.errors import (
    FastNameError,
    FastParseDepthError,
    FastSyntaxError,
    FastTypeError,
)
from repro.guard.budget import (
    Budget,
    BudgetExceeded,
    DeadlineExceeded,
    GuardError,
    SolverBudgetExceeded,
    SolverUnknown,
    StepBudgetExceeded,
)
from repro.guard.chaos import SolverFault
from repro.smt.linear import ModPresentError
from repro.smt.lra_fm import UnsupportedRealFragment
from repro.smt.terms import EvaluationError, NonLinearError, SmtError, SortError
from repro.transducers.run import OutputTruncated, TransductionError
from repro.transducers.sttr import TransducerError
from repro.trees.parser import TreeParseDepthError, TreeParseError
from repro.trees.tree import Tree


def _snapshot():
    b = Budget(deadline=1.0, max_solver_queries=10, max_steps=100)
    b.start()
    b.steps = 7
    b.solver_queries = 3
    return b.snapshot()


class _Pos:
    """Stand-in for an ast.Pos (line/column attributes only)."""

    line = 3
    column = 9


#: (instance factory, label) for every public exception class.  Each
#: factory builds the instance the way production code does — through
#: the real constructor — so the test covers the attributes each class
#: actually carries.
_CASES = [
    (lambda: ReproError("base", SourceLocation(line=1, column=2)), "ReproError"),
    (lambda: ParseDepthError("too deep"), "ParseDepthError"),
    (lambda: GuardError("guard"), "GuardError"),
    (lambda: BudgetExceeded("spent", _snapshot()), "BudgetExceeded"),
    (lambda: DeadlineExceeded("deadline", _snapshot()), "DeadlineExceeded"),
    (lambda: SolverBudgetExceeded("queries", _snapshot()), "SolverBudgetExceeded"),
    (lambda: StepBudgetExceeded("steps", _snapshot()), "StepBudgetExceeded"),
    (lambda: SolverUnknown("gave up"), "SolverUnknown"),
    (lambda: SolverFault("injected"), "SolverFault"),
    (lambda: FastSyntaxError("bad token", 4, 11), "FastSyntaxError"),
    (lambda: FastParseDepthError("deep", 4, 11), "FastParseDepthError"),
    (lambda: FastTypeError("ill-typed", _Pos()), "FastTypeError"),
    (lambda: FastNameError("unknown name", _Pos()), "FastNameError"),
    (lambda: TreeParseError("bad tree", 17), "TreeParseError"),
    (lambda: TreeParseDepthError("deep tree", 17), "TreeParseDepthError"),
    (lambda: SmtError("smt"), "SmtError"),
    (lambda: SortError("sorts"), "SortError"),
    (lambda: NonLinearError("nonlinear"), "NonLinearError"),
    (lambda: EvaluationError("eval"), "EvaluationError"),
    (lambda: ModPresentError("mod present"), "ModPresentError"),
    (lambda: UnsupportedRealFragment("mixed atoms"), "UnsupportedRealFragment"),
    (lambda: AutomatonError("structure"), "AutomatonError"),
    (lambda: TransducerError("structure"), "TransducerError"),
    (lambda: TransductionError("invariant"), "TransductionError"),
    (
        lambda: OutputTruncated(
            "cut at 2", [Tree("a"), Tree("b", (), (Tree("c"),))], 2
        ),
        "OutputTruncated",
    ),
]


@pytest.mark.parametrize(
    "factory", [c[0] for c in _CASES], ids=[c[1] for c in _CASES]
)
def test_round_trip(factory):
    original = factory()
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is type(original)
    assert clone.args == original.args
    assert str(clone) == str(original)
    assert clone.location == original.location
    # Every instance attribute the error carries must survive —
    # compare reprs so snapshots, positions, and tree lists all count.
    assert set(clone.__dict__) == set(original.__dict__)
    for key, value in original.__dict__.items():
        if key == "pos":  # _Pos stand-ins have identity equality only
            continue
        assert repr(clone.__dict__[key]) == repr(value), key


def test_snapshot_attributes_survive():
    exc = DeadlineExceeded("deadline of 1.0s exceeded", _snapshot())
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.snapshot is not None
    assert clone.snapshot.steps == 7
    assert clone.snapshot.solver_queries == 3
    assert clone.snapshot.max_steps == 100


def test_output_truncated_partial_outputs_survive():
    exc = OutputTruncated("cut", [Tree("x", (), (Tree("y"),))], 1)
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.limit == 1
    assert clone.outputs == [Tree("x", (), (Tree("y"),))]


def test_every_public_repro_error_subclass_is_covered():
    """A new public exception class must be added to _CASES."""

    def walk(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from walk(sub)

    covered = {type(factory()) for factory, _ in _CASES}
    public = {
        cls
        for cls in walk(ReproError)
        if not cls.__name__.startswith("_")
        # svc transports failures as structured dicts, not pickles of
        # its own exception types; chaos SolverFault is covered above.
        and cls.__module__.startswith("repro.")
    }
    missing = {c.__name__ for c in public - covered}
    assert not missing, f"exception classes without a pickle case: {missing}"
