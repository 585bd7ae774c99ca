"""Seeded inputs for the benchmark, each with its known correct answer.

Inputs are plain strings, and every expected answer is worked out by
hand from how the input was built, never by running the program.

* Pages for the ``sanitize`` workload come from the repository's Section
  5.1 page generator (``repro.apps.html.pages``), which only makes
  inputs.  The sanitized output is checked against the repository's
  hand-fused DOM sanitizer, an independent implementation.
* Programs for ``analyze`` and ``serve`` come from three families that
  follow the paper's case studies, with parameters drawn from the seed:

  - ``lists`` (Figure 8, Section 5.4): ``map_caesar`` shifts by ``k``
    modulo an even ``m`` and ``filter_ev`` keeps even elements.  An even
    element plus an odd ``k`` stays odd modulo an even ``m``, so
    ``comp2`` deletes every element exactly when ``k`` is odd.
  - ``sanitizer`` (Figure 2, Section 2): ``remScript`` removes the tags
    in ``R`` and the bad-output language looks for the tags in ``B``.
    No input can produce a bad output exactly when ``B`` is a subset of
    ``R``.
  - ``taggers`` (Section 5.2): tagger A tags ``v % a = r1`` and tagger B
    tags ``v % b = r2``.  Some element gets both tags exactly when
    ``r1 = r2`` modulo ``gcd(a, b)`` (Chinese remainder theorem).

  Every program asserts the "safe" property, so its ``run`` outcome is
  PROVED when the property holds and REFUTED when it does not.  Each
  family is asked for safe and unsafe programs in equal shares; which
  one is the costlier differs by family, so a mix left to chance would
  move the latency percentiles from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PROVED, REFUTED = "PROVED", "REFUTED"

#: Page sizes in bytes, doubling up to 20 KB, the smallest page of the
#: paper's Section 5.1 sweep (``PAPER_PAGE_SIZES``).  The sweep's larger
#: pages, 40 KB to 409 KB, are left out: the pure-Python transducer takes
#: about 30 ms per KB on a 2-vCPU x86 VM, so a 409 KB page alone would
#: take half a run.  Every run cycles through the same ladder, so the mix
#: of sizes, and with it the latency distribution, does not depend on the
#: seed; the seed picks each page's content and the order.
PAGE_SIZES = (1_250, 2_500, 5_000, 10_000, 20_000)

#: The tags the sanitizer removes: the paper's Section 5.1 sanitizer.
SANITIZE_POLICY = ("script",)

_TAG_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Program:
    """One Fast program and the outcome its ``run`` must have."""

    source: str
    expected: str


def pages(seed: int):
    """An endless, seed-determined stream of HTML pages."""
    from repro.apps.html.pages import generate_page

    rng = random.Random(seed)
    while True:
        ladder = list(PAGE_SIZES)
        rng.shuffle(ladder)
        for size in ladder:
            yield generate_page(size, rng.randrange(1 << 30))


def lists_program(rng: random.Random, safe: bool) -> Program:
    k = 2 * rng.randrange(1, 5_000) + safe
    m = 2 * rng.randrange(2, 30)
    source = f"""\
type IList[i : Int]{{nil(0), cons(1)}}
trans map_caesar : IList -> IList {{
    nil() to (nil [0])
  | cons(y) to (cons [(i + {k}) % {m}] (map_caesar y))
}}
trans filter_ev : IList -> IList {{
    nil() to (nil [0])
  | cons(y) where (i % 2 = 0) to (cons [i] (filter_ev y))
  | cons(y) where !(i % 2 = 0) to (filter_ev y)
}}
lang not_emp_list : IList {{ cons(x) }}
def comp : IList -> IList := (compose map_caesar filter_ev)
def comp2 : IList -> IList := (compose comp comp)
def restr : IList -> IList := (restrict-out comp2 not_emp_list)
assert-true (is-empty restr)
def restr1 : IList -> IList := (restrict-out comp not_emp_list)
assert-false (is-empty restr1)
"""
    return Program(source, PROVED if safe else REFUTED)


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice(_TAG_LETTERS) for _ in range(rng.randrange(3, 9)))


def sanitizer_program(rng: random.Random, safe: bool) -> Program:
    removed = sorted({_tag(rng) for _ in range(rng.randrange(1, 4))})
    bad = rng.sample(removed, rng.randrange(1, len(removed) + 1))
    while not safe and set(bad) <= set(removed):
        bad.append(_tag(rng))
    rem = " || ".join(f'(tag = "{t}")' for t in removed)
    kept = " && ".join(f'(tag != "{t}")' for t in removed)
    bad_guard = " || ".join(f'(tag = "{t}")' for t in sorted(set(bad)))
    source = f"""\
type HtmlE[tag : String]{{nil(0), val(1), attr(2), node(3)}}
lang nodeTree : HtmlE {{
    node(x1, x2, x3) given (attrTree x1) (nodeTree x2) (nodeTree x3)
  | nil() where (tag = "")
}}
lang attrTree : HtmlE {{
    attr(x1, x2) given (valTree x1) (attrTree x2)
  | nil() where (tag = "")
}}
lang valTree : HtmlE {{
    val(x1) where (tag != "") given (valTree x1)
  | nil() where (tag = "")
}}
trans remScript : HtmlE -> HtmlE {{
    node(x1, x2, x3) where ({kept})
      to (node [tag] x1 (remScript x2) (remScript x3))
  | node(x1, x2, x3) where ({rem}) to (remScript x3)
  | nil() to (nil [tag])
}}
trans esc : HtmlE -> HtmlE {{
    node(x1, x2, x3) to (node [tag] (esc x1) (esc x2) (esc x3))
  | attr(x1, x2) to (attr [tag] (esc x1) (esc x2))
  | val(x1) where (tag = "'" || tag = "\\"")
      to (val ["\\\\"] (val [tag] (esc x1)))
  | val(x1) where (tag != "'" && tag != "\\"")
      to (val [tag] (esc x1))
  | nil() to (nil [tag])
}}
def rem_esc : HtmlE -> HtmlE := (compose remScript esc)
def sani : HtmlE -> HtmlE := (restrict rem_esc nodeTree)
lang badOutput : HtmlE {{
    node(x1, x2, x3) where ({bad_guard})
  | node(x1, x2, x3) given (badOutput x2)
  | node(x1, x2, x3) given (badOutput x3)
}}
def bad_inputs : HtmlE := (pre-image sani badOutput)
assert-true (is-empty bad_inputs)
"""
    return Program(source, PROVED if safe else REFUTED)


def taggers_program(rng: random.Random, safe: bool) -> Program:
    while True:
        a, b = rng.randrange(2, 9), rng.randrange(2, 9)
        g = math.gcd(a, b)
        # With coprime moduli every pair of residues meets.
        if g > 1 or not safe:
            break
    r1 = rng.randrange(a)
    r2 = rng.choice([r for r in range(b) if ((r1 - r) % g == 0) != safe])
    # Tag labels only make the program (and its terms) distinct.
    t1, t2 = rng.sample(range(100, 1_000_000), 2)
    source = f"""\
type World[v : Int]{{nil(0), tag(1), elem(2)}}
lang noTags : World {{
    elem(ts, rest) given (emptyTags ts) (noTags rest)
  | nil()
}}
lang emptyTags : World {{ nil() }}
lang doubleTagged : World {{
    elem(ts, rest) given (twoTags ts)
  | elem(ts, rest) given (doubleTagged rest)
}}
lang twoTags : World {{ tag(t) given (oneTag t) }}
lang oneTag : World {{ tag(t) }}
trans tagA : World -> World {{
    elem(ts, rest) where (v % {a} = {r1}) to (elem [v] (tag [{t1}] ts) (tagA rest))
  | elem(ts, rest) where !(v % {a} = {r1}) to (elem [v] ts (tagA rest))
  | nil() to (nil [0])
}}
trans tagB : World -> World {{
    elem(ts, rest) where (v % {b} = {r2}) to (elem [v] (tag [{t2}] ts) (tagB rest))
  | elem(ts, rest) where !(v % {b} = {r2}) to (elem [v] ts (tagB rest))
  | nil() to (nil [0])
}}
def pipeline : World -> World :=
    (restrict-out (restrict (compose tagA tagB) noTags) doubleTagged)
assert-true (is-empty pipeline)
"""
    return Program(source, PROVED if safe else REFUTED)


#: One safe and one unsafe program of each family.
KINDS = tuple(
    (family, safe)
    for family in (lists_program, sanitizer_program, taggers_program)
    for safe in (True, False)
)


def _stratified(rng: random.Random):
    """Programs in blocks holding one of each kind in shuffled order, so
    every run sees the same mix whatever its seed."""
    while True:
        block = list(KINDS)
        rng.shuffle(block)
        for family, safe in block:
            yield family(rng, safe)


def programs(seed: int):
    """An endless, seed-determined stream of distinct programs: each one
    carries fresh constants, so neither the artifact cache nor the
    solver's caches can answer it from an earlier one."""
    return _stratified(random.Random(seed))


#: Serve traffic repeats a fixed corpus of programs, as a deployed filter
#: does (the always-on sanitizer of Section 5.1 runs one program on every
#: request); ``analyze`` is the workload where every program is new.  The
#: corpus size is that of ``benchmarks/bench_svc_throughput.py``, and it
#: fits the artifact cache's 32-entry memory LRU.
SERVE_CORPUS_SIZE = 24


def requests(seed: int):
    """``(corpus, stream)`` for the serve workload: the corpus programs
    (each sent once to warm the worker) and an endless stream of requests
    that repeat them, each pass over the corpus in a seed-determined
    order."""
    rng = random.Random(seed)
    fresh = _stratified(random.Random(rng.randrange(1 << 30)))
    corpus = [next(fresh) for _ in range(SERVE_CORPUS_SIZE)]

    def stream():
        while True:
            block = list(corpus)
            rng.shuffle(block)
            yield from block

    return corpus, stream()
