"""Type checking of transductions (Fast's ``type-check l1 t l2``).

``type_check(l1, t, l2)`` holds when every input in ``l1`` only produces
outputs in ``l2``.  It reduces to Boolean algebra plus pre-image:
the inputs that can produce an output *outside* ``l2`` are
``pre-image(t, complement l2)``; the check fails exactly on
``l1 intersect pre-image(t, complement l2)``, and a witness of that
intersection is a counterexample input.
"""

from __future__ import annotations

from typing import Optional

from ..automata.language import Language
from ..obs import provenance as prov
from ..obs import tracer as obs_tracer
from ..smt.solver import Solver
from ..trees.tree import Tree, format_tree
from .restrict import preimage
from .sttr import STTR


def type_check(
    input_lang: Language,
    sttr: STTR,
    output_lang: Language,
    solver: Solver | None = None,
) -> Optional[Tree]:
    """None when the transduction type-checks; else a counterexample input."""
    solver = solver or input_lang.solver
    with obs_tracer.span("typecheck", trans=sttr.name) as sp:
        with prov.step(
            "typecheck",
            f"type-check {sttr.name}: complement output, pre-image, "
            "intersect with input, decide emptiness",
        ) as st:
            with obs_tracer.span("typecheck.complement"):
                bad_outputs = output_lang.complement()
            with obs_tracer.span("typecheck.preimage"):
                bad_inputs = preimage(sttr, bad_outputs, solver)
            with obs_tracer.span("typecheck.emptiness"):
                cex = input_lang.intersect(bad_inputs).witness()
            st.set(ok=cex is None)
            if cex is not None:
                prov.note(
                    "witness",
                    "offending input region: input-language tree whose "
                    f"image escapes the output language: {format_tree(cex)}",
                )
        sp.set(ok=cex is None)
    return cex
