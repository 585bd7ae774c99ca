"""Concrete trees.

A :class:`Tree` is an immutable node ``f[a1 .. am](t1 .. tk)``: a
constructor name, a tuple of attribute values, and a tuple of children.
Trees are structural — a tree belongs to a :class:`~repro.trees.types.TreeType`
if it validates against it — which keeps transducer outputs cheap to build.

``Tree`` is a ``__slots__`` class, not a dataclass: a transducer run and
the HTML encoding build one per node, so construction is four slot
stores.  Fields are never reassigned after ``__init__``.  The hash is
computed on first use and cached: one iterative post-order pass hashes
the nodes not yet hashed, so a tree that is built and never hashed (an
encoded page, most run outputs) pays nothing for it.  Equality,
hashing, pickling, ``repr`` and the other whole-tree walks are
iterative, because ``val`` chains of the HTML encoding are thousands of
nodes deep.  A tree pickles as a flat post-order list of its distinct
nodes, so shared subtrees stay shared, and is rebuilt where it is
loaded, so its hash follows the loading process's hash seed.

Trees are built bottom up from finished children and never change, so
no tree is part of a reference cycle and reference counting frees every
one.  Python's cyclic collector cannot free any of them, yet it counts
each node and its children tuple and rescans them in every collection
while a page is built.  :func:`pause_collector` and
:func:`resume_collector` keep the collector off around the bulk builds
and runs of the HTML pipeline and of both transducer tiers.
"""

from __future__ import annotations

import gc
import os
import threading
from fractions import Fraction
from typing import Iterator, Sequence

from ..smt.terms import Value


class Tree:
    """An attributed ranked tree ``ctor[attrs](children)``."""

    __slots__ = ("ctor", "attrs", "children", "_hash")

    ctor: str
    attrs: tuple[Value, ...]
    children: tuple["Tree", ...]

    def __init__(
        self,
        ctor: str,
        attrs: tuple[Value, ...] = (),
        children: tuple["Tree", ...] = (),
    ) -> None:
        self.ctor = ctor
        self.attrs = attrs
        self.children = children
        # The hash, once computed: trees key memoization tables in the
        # automaton algorithms, and recomputing a deep hash per lookup
        # is quadratic.
        self._hash: int | None = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = _hash_nodes(self)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Node pairs on an explicit stack; unequal hashes reject a pair
        # before its fields are read.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (
                hash(a) != hash(b)
                or a.ctor != b.ctor
                or a.attrs != b.attrs
                or len(a.children) != len(b.children)
            ):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __reduce__(self):
        # Flat, so the pickler does not recurse per node; rebuilt from
        # the fields, so the hash is recomputed under the loading
        # process's hash seed (worker processes have their own).
        nodes = dag_post_order(self)
        index = {id(t): i for i, t in enumerate(nodes)}
        flat = [
            (t.ctor, t.attrs, tuple([index[id(c)] for c in t.children]))
            for t in nodes
        ]
        return (_from_post_order, (flat,))

    def __repr__(self) -> str:
        return format_tree(self)

    @property
    def rank(self) -> int:
        return len(self.children)

    def size(self) -> int:
        """Number of nodes (iterative: trees can be thousands deep).

        Shared subtree objects are counted once per occurrence.
        """
        return sum(1 for _ in self.iter_nodes())

    def depth(self) -> int:
        """Length of the longest root-to-leaf path (leaf = 1).

        Computed over distinct subtree objects: witness trees produced by
        the emptiness fixpoint share subtrees aggressively (they are DAGs
        in memory), so a path-walking implementation would be exponential.
        """
        memo: dict[int, int] = {}
        for t in dag_post_order(self):
            memo[id(t)] = 1 + max((memo[id(c)] for c in t.children), default=0)
        return memo[id(self)]

    def iter_nodes(self) -> Iterator["Tree"]:
        """All nodes, pre-order."""
        stack = [self]
        while stack:
            t = stack.pop()
            yield t
            stack.extend(reversed(t.children))

    def count(self, ctor: str) -> int:
        """How many nodes use the given constructor."""
        return sum(1 for n in self.iter_nodes() if n.ctor == ctor)


def _hash_nodes(tree: Tree) -> int:
    """Hash ``tree`` and every unhashed node below it, children first.

    The stack holds unhashed nodes; the top is hashed once none of its
    children is left unhashed, so no call recurses and each node's
    ``hash((ctor, attrs, children))`` reads its children's cached hashes.
    """
    stack = [tree]
    while stack:
        t = stack[-1]
        for c in t.children:
            if c._hash is None:
                stack.append(c)
                break
        else:
            stack.pop()
            t._hash = hash((t.ctor, t.attrs, t.children))
    return tree._hash


def _from_post_order(nodes: list[tuple[str, tuple, tuple[int, ...]]]) -> Tree:
    """Unpickle :meth:`Tree.__reduce__`'s list: each entry names its
    children by their position in the list; the root is last."""
    built: list[Tree] = []
    for ctor, attrs, kids in nodes:
        built.append(Tree(ctor, attrs, tuple([built[i] for i in kids])))
    return built[-1]


def dag_post_order(tree: Tree) -> list[Tree]:
    """Distinct subtree objects, children before parents (iterative).

    Visits each *object* exactly once, so it is linear even when subtrees
    are shared (DAG-shaped witnesses); use this for bottom-up analyses.
    """
    out: list[Tree] = []
    seen: set[int] = set()
    stack: list[tuple[Tree, bool]] = [(tree, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            out.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for c in t.children:
            stack.append((c, False))
    return out


def node(ctor: str, attrs: Sequence[Value] = (), *children: Tree) -> Tree:
    """Build a tree node; ``attrs`` may be a single value for 1-field types."""
    if not isinstance(attrs, (tuple, list)):
        attrs = (attrs,)
    return Tree(ctor, tuple(attrs), tuple(children))


def _format_attr(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return f"{value.numerator}.0"
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _format_head(tree: Tree) -> str:
    attrs = " ".join(_format_attr(a) for a in tree.attrs)
    return tree.ctor + (f"[{attrs}]" if attrs else "[]" if tree.attrs else "")


def format_tree(tree: Tree) -> str:
    """Render in the paper's surface syntax: ``f["a"](c1, c2)``.

    Iterative: the stack holds trees still to render and the literal
    separators between them.
    """
    parts: list[str] = []
    stack: list[Tree | str] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(_format_head(item))
        children = item.children
        if children:
            parts.append("(")
            stack.append(")")
            for i in range(len(children) - 1, 0, -1):
                stack.append(children[i])
                stack.append(", ")
            stack.append(children[0])
    return "".join(parts)


# -- the cyclic collector ----------------------------------------------------

_pause_lock = threading.Lock()
#: Pauses entered and not yet left, over all threads.
_pauses = 0
#: Whether the outermost pause found the collector on.
_reenable = False


def pause_collector() -> None:
    """Keep the cyclic collector off until the matching
    :func:`resume_collector`; call it first thing, then ``try: ...
    finally: resume_collector()``.

    For code that builds or walks acyclic trees in bulk: reference
    counting still frees them, and only cycles made meanwhile (an
    exception's traceback) wait for the collector.  Pauses nest and may
    overlap across threads; the outermost exit turns the collector back
    on, unless it was already off when the outermost pause began.

    This is a plain call rather than a decorator or ``with`` block on
    purpose: an argument tuple or a bound ``__enter__`` is a tracked
    allocation, which would run the collection the previous pause put
    off before this pause begins.  Nothing here allocates, so a run of
    paused calls shares that one collection.
    """
    global _pauses, _reenable
    _pause_lock.acquire()
    if not _pauses:
        _reenable = gc.isenabled()
        gc.disable()
    _pauses += 1
    _pause_lock.release()


def resume_collector() -> None:
    """Leave one :func:`pause_collector`."""
    global _pauses
    _pause_lock.acquire()
    # A child forked inside a pause starts at zero pauses (see below)
    # and may still leave the pause it inherited.
    if _pauses:
        _pauses -= 1
        if not _pauses and _reenable:
            gc.enable()
    _pause_lock.release()


def _reset_pauses_in_child() -> None:
    """A forked child keeps only the forking thread: pauses entered by
    other threads would never be left, so the child starts with none,
    and with a fresh lock in case another thread held it at the fork."""
    global _pause_lock, _pauses
    _pause_lock = threading.Lock()
    if _pauses:
        _pauses = 0
        if _reenable:
            gc.enable()


os.register_at_fork(after_in_child=_reset_pauses_in_child)
