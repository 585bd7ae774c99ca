"""Ranked tree types with symbolic attributes.

A tree type ``T^sigma_Sigma`` (paper Section 3.1) pairs a finite ranked
alphabet ``Sigma`` (constructors with fixed arities) with an attribute
record drawn from the label theory: every node carries one value per
attribute field.  The Fast declaration

    type HtmlE[tag : String]{nil(0), val(1), attr(2), node(3)}

becomes ``TreeType("HtmlE", [("tag", STRING)], {nil: 0, val: 1,
attr: 2, node: 3})``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..smt.sorts import BOOL, INT, REAL, STRING, Sort
from ..smt.terms import Value, Var

if TYPE_CHECKING:  # pragma: no cover
    from .tree import Tree


class TreeTypeError(Exception):
    """A tree or constructor does not conform to its declared type."""


@dataclass(frozen=True)
class Constructor:
    """A ranked constructor ``f`` with ``rank`` children."""

    name: str
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise TreeTypeError(f"constructor {self.name} has negative rank")


@dataclass(frozen=True)
class AttributeField:
    """One field of the attribute record carried by every node."""

    name: str
    sort: Sort


@dataclass(frozen=True)
class TreeType:
    """A ranked alphabet plus an attribute record.

    ``constructors`` maps names to :class:`Constructor`.  At least one
    nullary constructor must exist so the type is inhabited (the paper
    requires ``Sigma(0)`` to be non-empty).
    """

    name: str
    fields: tuple[AttributeField, ...]
    constructors: tuple[Constructor, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.constructors]
        if len(set(names)) != len(names):
            raise TreeTypeError(f"duplicate constructor names in {self.name}")
        if not any(c.rank == 0 for c in self.constructors):
            raise TreeTypeError(f"type {self.name} has no nullary constructor")
        field_names = [f.name for f in self.fields]
        if len(set(field_names)) != len(field_names):
            raise TreeTypeError(f"duplicate attribute fields in {self.name}")

    # -- lookups -----------------------------------------------------------

    def constructor(self, name: str) -> Constructor:
        for c in self.constructors:
            if c.name == name:
                return c
        raise TreeTypeError(f"{self.name} has no constructor {name!r}")

    def rank(self, name: str) -> int:
        return self.constructor(name).rank

    def field(self, name: str) -> AttributeField:
        for f in self.fields:
            if f.name == name:
                return f
        raise TreeTypeError(f"{self.name} has no attribute field {name!r}")

    def attr_vars(self) -> tuple[Var, ...]:
        """The guard variables: one per attribute field (interned)."""
        from ..smt.builders import mk_var

        return tuple(mk_var(f.name, f.sort) for f in self.fields)

    def nullary(self) -> Constructor:
        """Some nullary constructor (used for witness construction)."""
        return next(c for c in self.constructors if c.rank == 0)

    # -- attribute handling --------------------------------------------------

    def default_attrs(self) -> tuple[Value, ...]:
        out: list[Value] = []
        for f in self.fields:
            if f.sort is BOOL:
                out.append(False)
            elif f.sort is INT:
                out.append(0)
            elif f.sort is REAL:
                out.append(Fraction(0))
            elif f.sort is STRING:
                out.append("")
            else:  # pragma: no cover - no other sorts exist
                raise TreeTypeError(f"no default for sort {f.sort}")
        return tuple(out)

    def check_attrs(self, attrs: Sequence[Value]) -> None:
        if len(attrs) != len(self.fields):
            raise TreeTypeError(
                f"{self.name} expects {len(self.fields)} attribute(s), "
                f"got {len(attrs)}"
            )
        for f, v in zip(self.fields, attrs):
            ok = (
                (f.sort is BOOL and isinstance(v, bool))
                or (f.sort is INT and isinstance(v, int) and not isinstance(v, bool))
                or (f.sort is REAL and isinstance(v, (int, Fraction)) and not isinstance(v, bool))
                or (f.sort is STRING and isinstance(v, str))
            )
            if not ok:
                raise TreeTypeError(
                    f"attribute {f.name} of {self.name} expects {f.sort}, "
                    f"got {v!r}"
                )

    def attr_env(self, attrs: Sequence[Value]) -> dict[str, Value]:
        """Bind attribute values to field names (for guard evaluation)."""
        return {f.name: v for f, v in zip(self.fields, attrs)}

    # -- validation ----------------------------------------------------------

    def validate(self, tree: "Tree") -> None:
        """Check that a tree conforms to this type (raises otherwise)."""
        ctor = self.constructor(tree.ctor)
        self.check_attrs(tree.attrs)
        if len(tree.children) != ctor.rank:
            raise TreeTypeError(
                f"{tree.ctor} has rank {ctor.rank}, got "
                f"{len(tree.children)} children"
            )
        for child in tree.children:
            self.validate(child)

    def contains(self, tree: "Tree") -> bool:
        try:
            self.validate(tree)
        except TreeTypeError:
            return False
        return True


def make_tree_type(
    name: str,
    fields: Iterable[tuple[str, Sort]],
    constructors: Mapping[str, int],
) -> TreeType:
    """Convenience builder mirroring the Fast ``type`` declaration."""
    return TreeType(
        name,
        tuple(AttributeField(n, s) for n, s in fields),
        tuple(Constructor(n, r) for n, r in constructors.items()),
    )
