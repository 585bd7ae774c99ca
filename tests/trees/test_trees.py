"""Tests for tree types, values, parsing, and encodings."""

import gc
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import INT, STRING
from repro.trees import (
    Tree,
    TreeTypeError,
    Unranked,
    decode_list,
    decode_string,
    decode_unranked,
    encode_list,
    encode_string,
    encode_unranked,
    format_tree,
    list_tree_type,
    make_tree_type,
    node,
    parse_tree,
)
from repro.trees import tree as tree_mod
from repro.trees.tree import pause_collector, resume_collector

HTML_E = make_tree_type(
    "HtmlE", [("tag", STRING)], {"nil": 0, "val": 1, "attr": 2, "node": 3}
)
BT = make_tree_type("BT", [("i", INT)], {"L": 0, "N": 2})


class TestTreeType:
    def test_constructor_lookup(self):
        assert HTML_E.rank("node") == 3
        assert HTML_E.rank("nil") == 0

    def test_unknown_constructor(self):
        with pytest.raises(TreeTypeError):
            HTML_E.constructor("missing")

    def test_requires_nullary(self):
        with pytest.raises(TreeTypeError):
            make_tree_type("Bad", [], {"only": 2})

    def test_duplicate_constructors_rejected(self):
        from repro.trees.types import Constructor, TreeType

        with pytest.raises(TreeTypeError):
            TreeType("Bad", (), (Constructor("a", 0), Constructor("a", 1)))

    def test_attr_vars(self):
        (v,) = BT.attr_vars()
        assert v.name == "i" and v.sort is INT

    def test_validate_accepts(self):
        t = node("N", 3, node("L", 1), node("L", 2))
        BT.validate(t)

    def test_validate_wrong_rank(self):
        with pytest.raises(TreeTypeError):
            BT.validate(node("N", 3, node("L", 1)))

    def test_validate_wrong_attr_sort(self):
        with pytest.raises(TreeTypeError):
            BT.validate(node("L", "oops"))

    def test_validate_bool_not_int(self):
        with pytest.raises(TreeTypeError):
            BT.validate(node("L", True))

    def test_contains(self):
        assert BT.contains(node("L", 0))
        assert not BT.contains(node("L", "x"))

    def test_default_attrs(self):
        assert HTML_E.default_attrs() == ("",)
        assert BT.default_attrs() == (0,)


class TestTree:
    def test_size_and_depth(self):
        t = node("N", 0, node("L", 1), node("N", 2, node("L", 3), node("L", 4)))
        assert t.size() == 5
        assert t.depth() == 3

    def test_count(self):
        t = node("N", 0, node("L", 1), node("L", 2))
        assert t.count("L") == 2

    def test_iter_nodes_preorder(self):
        t = node("N", 0, node("L", 1), node("L", 2))
        labels = [n.attrs[0] for n in t.iter_nodes()]
        assert labels == [0, 1, 2]

    def test_hashable(self):
        assert node("L", 1) == node("L", 1)
        assert len({node("L", 1), node("L", 1)}) == 1

    def test_equality_is_structural(self):
        t = node("N", 0, node("L", 1), node("L", 2))
        assert t == node("N", 0, node("L", 1), node("L", 2))
        assert t != node("N", 0, node("L", 2), node("L", 1))
        assert t != node("N", 0, node("L", 1))
        assert node("L", 1) != "L"
        # Attribute values compare as values, as tuples do.
        assert node("L", 1) == node("L", Fraction(1))

    def test_deep_equality_and_repr_do_not_recurse(self):
        # Two distinct 5000-deep chains: neither == nor repr may recurse.
        a, b = encode_string("x" * 5000), encode_string("x" * 5000)
        assert a is not b
        assert a == b and not a != b
        assert a != encode_string("x" * 4999 + "y")
        assert repr(a) == 'val["x"](' * 5000 + 'nil[""]' + ")" * 5000

    def test_pickle_rebuilds_the_hash_where_loaded(self):
        # A tree pickled under one hash seed must be found in a set of
        # equal trees under another (worker processes have their own).
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        dump = (
            "import pickle, sys; from repro.trees import Tree; "
            "t = Tree('a', ('x',)); hash(t); "
            "sys.stdout.buffer.write(pickle.dumps(t))"
        )
        load = (
            "import pickle, sys; from repro.trees import Tree; "
            "t = pickle.loads(sys.stdin.buffer.read()); "
            "print(t == Tree('a', ('x',)), t in {Tree('a', ('x',))})"
        )
        pickled = subprocess.run(
            [sys.executable, "-c", dump],
            env={**env, "PYTHONHASHSEED": "1"},
            capture_output=True,
            check=True,
            timeout=60,
        ).stdout
        loaded = subprocess.run(
            [sys.executable, "-c", load],
            env={**env, "PYTHONHASHSEED": "2"},
            input=pickled,
            capture_output=True,
            check=True,
            timeout=60,
        )
        assert loaded.stdout.split() == [b"True", b"True"]

    def test_pickle_roundtrip(self):
        t = node("N", 0, node("L", 1), node("L", 2))
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t) and repr(back) == repr(t)

    def test_deep_chain_pickles(self):
        # The pickler would recurse three levels per node of a nested
        # reduce; the flat one does not.
        t = encode_string("x" * 5000)
        hash(t)
        back = pickle.loads(pickle.dumps(t))
        assert back is not t and back == t and back.depth() == 5001
        # The hash is recomputed where the tree is loaded.
        assert hash(back) == hash(t) == hash(encode_string("x" * 5000))
        assert back in {t}

    def test_pickle_keeps_shared_subtrees_shared(self):
        # Emptiness witnesses share subtrees; a round trip must not
        # unfold the DAG.
        leaf = node("L", 1)
        mid = node("N", 2, leaf, leaf)
        t = node("N", 3, mid, mid)
        back = pickle.loads(pickle.dumps(t))
        assert back == t
        (a, b) = back.children
        assert a is b and a.children[0] is a.children[1]

    def test_deep_hash_is_iterative_and_structural(self):
        def chain(n, top="x"):
            t = node("nil", "")
            for _ in range(n - 1):
                t = node("val", "x", t)
            return node("val", top, t)

        a, b = chain(200_000), chain(200_000)
        assert a is not b and hash(a) == hash(b) and a == b
        assert chain(200_000, top="y") != a
        deeper = node("val", "x", chain(200_000))
        assert deeper != node("val", "x", deeper.children[0].children[0])


class TestFormatParse:
    def test_format(self):
        t = node("node", "div", node("nil", ""), node("nil", ""), node("nil", ""))
        assert format_tree(t) == 'node["div"](nil[""], nil[""], nil[""])'

    def test_roundtrip_escapes(self):
        t = node("val", 'a"b\\c')
        assert parse_tree(format_tree(t)) == t

    def test_parse_numbers(self):
        assert parse_tree("L[-3]") == node("L", -3)
        assert parse_tree("L[3/4]") == node("L", Fraction(3, 4))
        assert parse_tree("L[1.5]") == node("L", Fraction(3, 2))

    def test_parse_bools(self):
        assert parse_tree("L[true]") == node("L", True)
        assert parse_tree("L[false]") == node("L", False)

    def test_parse_nested(self):
        t = parse_tree('N[1](L[2], N[3](L[4], L[5]))')
        assert t.size() == 5 and t.attrs == (1,)

    def test_parse_error_trailing(self):
        from repro.trees import TreeParseError

        with pytest.raises(TreeParseError):
            parse_tree("L[1] extra")

    def test_parse_error_unterminated_string(self):
        from repro.trees import TreeParseError

        with pytest.raises(TreeParseError):
            parse_tree('L["abc')


_trees = st.deferred(
    lambda: st.builds(
        lambda a, kids: node("N", a, *kids) if kids else node("L", a),
        st.integers(-100, 100),
        st.one_of(st.just([]), st.tuples(_trees, _trees).map(list)),
    )
)


@settings(max_examples=100, deadline=None)
@given(_trees)
def test_format_parse_roundtrip(t):
    assert parse_tree(format_tree(t)) == t


class TestListEncoding:
    ILIST = list_tree_type("IList", INT)

    def test_roundtrip(self):
        values = [1, 2, 3, -4]
        t = encode_list(values, self.ILIST)
        assert decode_list(t) == values
        self.ILIST.validate(t)

    def test_empty(self):
        t = encode_list([], self.ILIST)
        assert t.ctor == "nil" and decode_list(t) == []

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), max_size=30))
    def test_roundtrip_property(self, values):
        assert decode_list(encode_list(values, self.ILIST)) == values


class TestStringEncoding:
    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=20))
    def test_roundtrip(self, text):
        assert decode_string(encode_string(text)) == text


_unranked = st.deferred(
    lambda: st.builds(
        lambda lbl, kids: Unranked(lbl, tuple(kids)),
        st.sampled_from(["div", "p", "b", "i", "span"]),
        st.lists(_unranked, max_size=3),
    )
)


class TestUnrankedEncoding:
    def test_simple(self):
        forest = [Unranked("div", (Unranked("p"),)), Unranked("br")]
        t = encode_unranked(forest)
        assert decode_unranked(t) == forest

    def test_empty_forest(self):
        t = encode_unranked([])
        assert t.ctor == "nil" and decode_unranked(t) == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_unranked, max_size=4))
    def test_roundtrip_property(self, forest):
        assert decode_unranked(encode_unranked(forest)) == forest

    def test_node_count_preserved(self):
        forest = [Unranked("a", (Unranked("b"), Unranked("c")))]
        t = encode_unranked(forest)
        assert t.count("node") == 3


class TestCollectorPause:
    @pytest.fixture(autouse=True)
    def collector_on(self):
        gc.enable()
        yield
        assert tree_mod._pauses == 0
        gc.enable()

    def test_nested_pauses(self):
        pause_collector()
        pause_collector()
        assert not gc.isenabled()
        resume_collector()
        assert not gc.isenabled()  # the outer pause still holds
        resume_collector()
        assert gc.isenabled()

    def test_exception_inside_a_pause(self):
        def build():
            pause_collector()
            try:
                raise ValueError("mid-build")
            finally:
                resume_collector()

        with pytest.raises(ValueError):
            build()
        assert gc.isenabled()

    def test_collector_the_caller_turned_off_stays_off(self):
        gc.disable()
        pause_collector()
        resume_collector()
        assert not gc.isenabled()

    def test_overlapping_pauses_in_two_threads(self):
        # This thread pauses first and leaves first; the collector stays
        # off until the other thread has left too.
        other_paused = threading.Event()
        main_left = threading.Event()
        seen = []

        def other():
            pause_collector()
            try:
                other_paused.set()
                main_left.wait(timeout=10)
                seen.append(gc.isenabled())
            finally:
                resume_collector()

        pause_collector()
        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert other_paused.wait(timeout=10)
        finally:
            resume_collector()
        assert not gc.isenabled()
        main_left.set()
        thread.join()
        assert seen == [False]
        assert gc.isenabled()

    def test_many_threads_pausing_keep_the_count(self):
        # More threads than cores, switching often: a lost update to the
        # pause count would leave the collector off or the count above 0.
        def worker():
            for _ in range(2000):
                pause_collector()
                resume_collector()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert tree_mod._pauses == 0 and gc.isenabled()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_with_the_collector_on(self):
        pause_collector()
        try:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child
                try:
                    ok = gc.isenabled() and tree_mod._pauses == 0
                    resume_collector()  # leaving the inherited pause is harmless
                    ok = ok and gc.isenabled() and tree_mod._pauses == 0
                    os.write(write_end, b"1" if ok else b"0")
                finally:
                    os._exit(0)
            os.close(write_end)
            with os.fdopen(read_end, "rb") as pipe:
                answer = pipe.read()
            os.waitpid(pid, 0)
            assert not gc.isenabled()  # the parent is still paused
        finally:
            resume_collector()
        assert answer == b"1"
