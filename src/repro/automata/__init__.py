"""Alternating symbolic tree automata (STAs) and their algorithms."""

from .cleanup import reachable_lookahead_rules, universal_states
from .boolean_ops import complement, difference, intersect, union
from .determinize import BottomUpDTA, determinize, to_top_down
from .emptiness import is_empty, witness
from .equivalence import equivalent, included_in
from .language import Language
from .minimize import minimize, minimize_dta
from .normalize import NormalizedSTA, normalize
from .semantics import accepts, accepts_all
from .sta import STA, AutomatonError, STARule, State, disjoint_union, rule

__all__ = [
    "AutomatonError",
    "BottomUpDTA",
    "Language",
    "NormalizedSTA",
    "STA",
    "STARule",
    "State",
    "accepts",
    "accepts_all",
    "complement",
    "determinize",
    "difference",
    "disjoint_union",
    "equivalent",
    "included_in",
    "intersect",
    "is_empty",
    "minimize",
    "minimize_dta",
    "normalize",
    "rule",
    "to_top_down",
    "union",
    "universal_states",
    "reachable_lookahead_rules",
    "witness",
]
