"""The explicit-stack walks of syntax.py and transform.py against the
recursive walks they replaced (tests/walk_oracle.py): the same values and
the same exceptions, with the same messages, on drawn formulas and on
malformed trees.  Then every walk, translation and the kernel on trees
10^4 deep, built without the parser, under the default recursion limit."""

import inspect
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from epskernel import kernel, parser, transform
from epskernel import syntax as sx
from epskernel.syntax import (Atom, And, App, Binder, Const, Implies, Not, Or,
                              Quant, Quant2, Signature, Var)

import walk_oracle as oracle
from test_compiled import formulas, terms
from test_sorts import MALFORMED
from test_traversal import names, rename_bound


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as e:          # the type and the message must match
        return "error", type(e), str(e)


TRANSLATIONS = {
    "frege": (transform.frege_embed, oracle.frege_embed),
    "unfrege": (transform.frege_unembed, oracle.frege_unembed),
    "epsilon": (transform.epsilon_embed, oracle.epsilon_embed),
    "epsilon-tau": (lambda f: transform.epsilon_embed(f, True),
                    lambda f: oracle.epsilon_embed(f, True)),
    "concepts-up": (transform.lift_to_concepts, oracle.lift_to_concepts),
    "concepts-down": (transform.lower_from_concepts, oracle.lower_from_concepts),
    "nnf": (transform.push_negation, oracle.push_negation),
}
x, y, c = Var("x", "s"), Var("y", "s"), Const("c")
v = Var("v", "s")


def assert_same(e, other=None):
    """Every walk and translation of `e` gives what the oracle gives, and
    so does alpha_eq of `e` against itself, a renaming and `other`."""
    for walk in ("free_vars", "free_predvars", "subterms"):
        assert outcome(getattr(sx, walk), e) == outcome(getattr(oracle, walk), e), walk
    for b in (e, rename_bound(e, names()), other):
        assert outcome(sx.alpha_eq, e, b) == outcome(oracle.alpha_eq, e, b)
    for v, t in ((x, c), (x, y), (Var("z", "t"), App("f", (x,)))):
        assert outcome(sx.substitute, e, v, t) == outcome(oracle.substitute, e, v, t)
    for name, (new, old) in TRANSLATIONS.items():
        got = outcome(new, e)
        assert got == outcome(old, e), name
        if name == "concepts-up" and got[0] == "value":
            assert outcome(transform.lower_from_concepts, got[1]) \
                == outcome(oracle.lower_from_concepts, got[1])


SCOPE = (("x", "s"), ("y", "s"), ("z", "t"))


@given(formulas(scope=SCOPE, predvars=("X",)), formulas())
@settings(max_examples=300, deadline=None)
def test_drawn_formulas_walk_and_translate_as_before(f, g):
    assert_same(f, g)


@given(formulas(scope=SCOPE), st.sampled_from([x, y, Var("z", "t")]),
       terms("s", SCOPE, 2))
@settings(max_examples=300, deadline=None)
# forall x is renamed, since t has x free; renaming its x renames nothing
# inside, though forall y binds another free name of t
@example(Quant(sx.FORALL, x, None, And(Atom("P", (v,)),
                                       Quant(sx.FORALL, y, None, Atom("R", (x, y))))),
         v, Binder(sx.EPS, Var("w", "s"), Atom("R", (x, y))))
def test_substitution_renames_as_before(f, v, t):
    # t's free variables x and y make binders of those names rename theirs
    assert outcome(sx.substitute, f, v, t) == outcome(oracle.substitute, f, v, t)


@given(formulas(scope=SCOPE))
@settings(max_examples=200, deadline=None)
def test_quantifiers_are_mapped_bottom_up_in_the_same_order(f):
    def recorder(seen):
        def fn(q):
            seen.append(q)
            return Not(q)               # the parents must see the result
        return fn
    new, old = [], []
    assert transform._map_subformulas(f, recorder(new)) \
        == oracle._map_subformulas(f, recorder(old))
    assert new == old


Px = Atom("P", (x,))
MOST = Quant(sx.MOST, x, None, Px)

MALFORMED_WALKS = MALFORMED + [
    # a most quantifier under push_negation, alone and beside a misplaced
    # term, so that which fault is met first matters
    Not(MOST), And(MOST, c), Or(c, MOST), Implies(Not(c), 42),
    Quant(sx.FORALL, x, Not(Not(c)), Px), Quant2(sx.FORALL2, "X", "s", c),
    Atom("P", (Binder(sx.EPS, x, And(c, Px)),)), Atom("P", (42,)),
    Atom("P", (Binder(sx.EPS, x, Not(Not(Not(MOST)))),)),
    # two non-nodes: the walk's order decides which one is reported
    And(42, "P"), Atom("R", (x, 42, "P")),
]


@pytest.mark.parametrize("e", MALFORMED_WALKS, ids=range(len(MALFORMED_WALKS)))
def test_malformed_trees_walk_and_translate_as_before(e):
    assert_same(e, Px)


# -- depth -----------------------------------------------------------------

DEPTH = 10_000
DSIG = Signature(frozenset({"s"}), {"c": "s"}, {"f": (("s",), "s")},
                 {"P": ("s",)})
z = Var("z", "s")


def build(kind, leaf, depth=DEPTH):
    """A formula `depth` deep of the given kind around P(leaf)."""
    f = Atom("P", (leaf,))
    if kind == "term":
        t = leaf
        for _ in range(depth):
            t = App("f", (t,))
        return Atom("P", (t,))
    for i in range(depth):
        if kind == "not":
            f = Not(f)
        elif kind == "and":
            f = And(f, Atom("P", (leaf if i % 2 else c,)))
        elif kind == "prefix":
            f = Quant(sx.FORALL if i % 2 else sx.EXISTS, x if i % 2 else y, None, f)
        else:
            f = Atom("P", (Binder(sx.EPS, x if i % 2 else y, f),))
    return f


def public(module):
    return {name for name, v in vars(module).items()
            if inspect.isfunction(v) and v.__module__ == module.__name__
            and not name.startswith("_")}


CALLED = {"is_term", "is_formula", "children", "free_vars",
          "free_predvars", "subterms", "fresh_name", "substitute", "alpha_eq",
          "well_sorted", "term_sort", "frege_embed", "frege_unembed",
          "epsilon_embed", "quantifier_free", "concept_guard",
          "lift_to_concepts", "lower_from_concepts", "push_negation"}


def test_the_depth_test_calls_every_public_walk():
    assert public(sx) | public(transform) == CALLED


@pytest.mark.parametrize("kind", ["not", "and", "prefix", "eps", "term"])
def test_walks_return_at_depth(kind):
    f, same, other = build(kind, z), build(kind, z), build(kind, c)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert sx.is_formula(f) and not sx.is_term(f)
        assert len(sx.children(f)) == (2 if kind == "and" else 1)
        assert sx.free_vars(f) == {z} and sx.free_predvars(f) == set()
        assert len(sx.subterms(f)) == {"not": 1, "and": DEPTH + 1, "prefix": 1,
                                       "eps": DEPTH + 1, "term": DEPTH + 1}[kind]
        assert sx.fresh_name("z", {"z"}) == "z1"
        assert sx.alpha_eq(f, same) and not sx.alpha_eq(f, other)
        assert sx.alpha_eq(sx.substitute(f, z, c), other)
        assert sx.well_sorted(f, DSIG) == []
        if kind == "term":
            assert sx.term_sort(f.args[0], DSIG) == "s"
        assert sx.alpha_eq(transform.frege_embed(f).formula, f)
        assert sx.alpha_eq(transform.frege_unembed(f).formula, f)
        assert transform.quantifier_free(f) is (kind != "prefix")
        if kind != "prefix":    # each nested quantifier doubles the output
            assert sx.alpha_eq(transform.epsilon_embed(f), f)
        nnf = transform.push_negation(f)
        assert sx.alpha_eq(nnf, Atom("P", (z,)) if kind == "not" else f)
        up = transform.lift_to_concepts(build(kind, z, 1000) if kind == "prefix" else f)
        assert transform.quantifier_free(up) is (kind != "prefix")
        if kind == "prefix":
            down = transform.lower_from_concepts(up)
            assert isinstance(down, Quant) and down.kind == sx.FORALL
        assert transform.concept_guard("X", "s") is not None
        assert parser.print_formula(f)
        proof = kernel.ProofTree(kernel.Sequent((f,), same), "hyp")
        assert kernel.check_proof(proof, DSIG).accepted
    finally:
        sys.setrecursionlimit(limit)
