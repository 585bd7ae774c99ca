"""Symbolic tree transducers with regular lookahead (STTRs)."""

from .compose import compose
from .domain import domain, domain_sta
from .facade import Transducer
from .output_terms import (
    OutApply,
    OutNode,
    OutputTerm,
    TApp,
    identity_output,
    is_linear as output_is_linear,
    states_at,
    substitute_attrs,
)
from .properties import composition_is_exact, is_deterministic, is_linear, single_valued
from .restrict import identity_sttr, preimage, restrict_input, restrict_output
from .run import OutputTruncated, TransductionError, run, run_checked, run_one
from .sttr import STTR, STTRRule, TransducerError, trule
from .testing import Inequivalence, equivalent_up_to, find_inequivalence
from .typecheck import type_check

__all__ = [
    "OutApply",
    "OutNode",
    "OutputTerm",
    "STTR",
    "STTRRule",
    "TApp",
    "OutputTruncated",
    "TransducerError",
    "Transducer",
    "TransductionError",
    "compose",
    "composition_is_exact",
    "Inequivalence",
    "domain",
    "domain_sta",
    "identity_output",
    "identity_sttr",
    "is_deterministic",
    "is_linear",
    "output_is_linear",
    "preimage",
    "restrict_input",
    "equivalent_up_to",
    "find_inequivalence",
    "restrict_output",
    "run",
    "run_checked",
    "run_one",
    "single_valued",
    "states_at",
    "substitute_attrs",
    "trule",
    "type_check",
]
