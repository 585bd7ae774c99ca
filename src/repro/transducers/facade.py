"""The user-facing ``Transducer`` facade: an STTR plus a solver.

This is the value a Fast ``trans`` definition evaluates to.  All of
Section 3.5's operations are methods:

    >>> sani = rem_script.compose(esc).restrict(node_tree)
    >>> sani.apply_one(dom_tree)
    >>> sani.pre_image(bad_output).is_empty()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..automata.language import Language
from ..smt.solver import DEFAULT_SOLVER, Solver
from ..trees.tree import Tree
from . import properties
from .compose import compose as _compose
from .domain import domain as _domain
from .restrict import preimage as _preimage, restrict_input, restrict_output
from .run import OutputTruncated, run_checked as _run_checked
from .sttr import STTR
from .typecheck import type_check as _type_check


@dataclass(frozen=True)
class Transducer:
    """A tree transformation backed by an STTR."""

    sttr: STTR
    solver: Solver = field(default_factory=lambda: DEFAULT_SOLVER, compare=False)

    @property
    def name(self) -> str:
        return self.sttr.name

    @property
    def input_type(self):
        return self.sttr.input_type

    @property
    def output_type(self):
        return self.sttr.output_type

    # -- execution -----------------------------------------------------------

    def _compiled(self):
        """The compiled form with its generated walk, built on the first
        run of this transducer (analyses that never run it never build
        it).

        Lowering failures are remembered as None (fall back to the
        interpreter forever) — the compiled tier is an optimization,
        never a new way to fail.  The slot lives in ``__dict__`` so the
        frozen dataclass stays frozen for its declared fields.
        """
        if "_compiled_sttr" not in self.__dict__:
            try:
                from ..exec.compiled import CompiledSTTR

                compiled = CompiledSTTR(self.sttr)
                compiled.walks()
            except Exception:
                compiled = None
            object.__setattr__(self, "_compiled_sttr", compiled)
        return self.__dict__["_compiled_sttr"]

    def _checked(
        self, tree: Tree, limit: Optional[int]
    ) -> tuple[list[Tree], bool]:
        """``run_checked`` via the compiled tier when enabled."""
        from ..exec import config as exec_config

        if exec_config.compiled_enabled():
            compiled = self._compiled()
            if compiled is not None:
                from ..exec.compiled import run_compiled_checked

                return run_compiled_checked(compiled, tree, limit=limit)
        return _run_checked(self.sttr, tree, limit=limit)

    def apply(
        self,
        tree: Tree,
        limit: Optional[int] = None,
        on_truncate: str = "raise",
    ) -> list[Tree]:
        """All outputs on ``tree`` (Definition 7), optionally capped.

        When ``limit`` actually cuts the enumeration the cut is not
        silent: with ``on_truncate="raise"`` (the default) a
        :class:`~repro.transducers.run.OutputTruncated` is raised
        carrying the partial result; ``on_truncate="truncate"`` opts
        back into the plain shortened list.
        """
        if on_truncate not in ("raise", "truncate"):
            raise ValueError(
                f"on_truncate must be 'raise' or 'truncate', got {on_truncate!r}"
            )
        outputs, truncated = self._checked(tree, limit)
        if truncated and on_truncate == "raise":
            raise OutputTruncated(
                f"{self.name}: output enumeration cut off at limit={limit} "
                f"({len(outputs)} outputs kept; pass on_truncate='truncate' "
                f"to accept partial results)",
                outputs,
                limit,
            )
        return outputs

    def apply_one(self, tree: Tree) -> Optional[Tree]:
        """One output, or None when ``tree`` is outside the domain.

        Complete for the reason :func:`repro.transducers.run.run_one`
        gives: a per-task cap of one output preserves non-emptiness.
        """
        # Indexed, not unpacked: unpacking allocates an iterator until
        # the interpreter specializes it, which would run the collection
        # the run put off right here (see trees/tree.py::pause_collector).
        outputs = self._checked(tree, 1)[0]
        return outputs[0] if outputs else None

    def __call__(self, tree: Tree) -> Optional[Tree]:
        return self.apply_one(tree)

    # -- operations (paper Section 3.5) -----------------------------------------

    def compose(self, other: "Transducer", name: str | None = None) -> "Transducer":
        """``compose t1 t2``: first self, then other (Section 4 algorithm)."""
        return Transducer(_compose(self.sttr, other.sttr, self.solver, name), self.solver)

    def restrict(self, lang: Language) -> "Transducer":
        """``restrict t l``: only accept inputs in ``l``."""
        return Transducer(restrict_input(self.sttr, lang, self.solver), self.solver)

    def restrict_out(self, lang: Language) -> "Transducer":
        """``restrict-out t l``: only inputs whose output can be in ``l``."""
        return Transducer(restrict_output(self.sttr, lang, self.solver), self.solver)

    def domain(self) -> Language:
        """``domain t`` (Definition 6)."""
        return _domain(self.sttr, self.solver)

    def pre_image(self, lang: Language) -> Language:
        """``pre-image t l``: inputs that can produce an output in ``l``."""
        return _preimage(self.sttr, lang, self.solver)

    def type_check(
        self, input_lang: Language, output_lang: Language
    ) -> Optional[Tree]:
        """None when every input in ``input_lang`` maps into
        ``output_lang``; else a counterexample input."""
        return _type_check(input_lang, self.sttr, output_lang, self.solver)

    def is_empty(self) -> bool:
        """Fast's ``is-empty`` on transductions: is the domain empty?"""
        return self.domain().is_empty()

    # -- governed (three-valued) variants -----------------------------------------

    def type_check_verdict(
        self, input_lang: Language, output_lang: Language, budget=None
    ):
        """:meth:`type_check` under a resource budget.

        Returns a :class:`repro.guard.Verdict`: PROVED when every input
        in ``input_lang`` maps into ``output_lang``, REFUTED with a
        counterexample witness, UNKNOWN when the budget ran out first.
        """
        from ..guard import governed

        return governed(
            lambda: self.type_check(input_lang, output_lang),
            budget,
            proved="transduction type-checks",
            refuted="counterexample input found",
        )

    def is_empty_verdict(self, budget=None):
        """:meth:`is_empty` under a resource budget (PROVED = domain empty)."""
        from ..guard import governed

        return governed(
            lambda: self.domain().witness(),
            budget,
            proved="transduction domain is empty",
            refuted="domain witness found",
        )

    # -- properties ---------------------------------------------------------------

    def is_linear(self) -> bool:
        return properties.is_linear(self.sttr)

    def is_deterministic(self) -> bool:
        return properties.is_deterministic(self.sttr, self.solver)

    def size(self) -> tuple[int, int]:
        """(states, rules) — the measure reported in Section 5.2."""
        return self.sttr.size()
