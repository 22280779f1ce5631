"""The one sort walk (syntax.well_sorted and syntax.term_sort) against the
two walks it replaced (tests/sort_oracle.py): the same diagnostics in the
same order, and the same sort or SortError message, on drawn formulas
under matching and broken signatures, and on malformed trees."""

import pytest
from hypothesis import given, settings, strategies as st

from epskernel import syntax as sx
from epskernel.syntax import (Atom, And, App, Binder, Const, Generic,
                              GenericRestricted, Not, Or, PredApp, Quant,
                              Quant2, Signature, Var)

import sort_oracle as oracle
from test_compiled import SIG, formulas


def sort_of(term_sort, t, sig):
    try:
        return term_sort(t, sig)
    except sx.SortError as e:
        return "SortError", str(e)


def assert_same(e, sig):
    """The same diagnostics for e, and for each subterm of e the same
    diagnostics and the same sort or SortError message."""
    try:
        subterms = sx.subterms(e)
    except TypeError:       # e holds something that is not a node
        subterms = []
    for x in (e, *subterms):
        assert sx.well_sorted(x, sig) == oracle.well_sorted(x, sig), x
        assert sort_of(sx.term_sort, x, sig) == sort_of(oracle.term_sort, x, sig), x


@st.composite
def signatures(draw):
    """SIG, or SIG with sorts or symbols missing, symbols at other sorts
    and symbols of other arities."""
    if draw(st.booleans()):
        return SIG

    def changed(sorts):
        how = draw(st.sampled_from(["keep", "drop", "more", "fewer", "resort"]))
        if how == "drop":
            return None
        if how == "more":
            return (*sorts, draw(st.sampled_from(["s", "t", "u"])))
        if how == "fewer":
            return sorts[:-1]
        if how == "resort" and sorts:
            return (draw(st.sampled_from(["s", "t", "u"])), *sorts[1:])
        return sorts

    consts = {c: s[0] for c, s in ((c, changed((s,))) for c, s in SIG.constants.items())
              if s}
    funcs = {}
    for f, (args, res) in SIG.functions.items():
        new = changed((*args, res))
        if new:
            funcs[f] = (new[:-1], new[-1])
    preds = {p: new for p, new in ((p, changed(args))
                                   for p, args in SIG.predicates.items())
             if new is not None}
    sorts = frozenset(s for s in ("s", "t", "u") if draw(st.booleans()))
    return Signature(sorts, consts, funcs, preds)


# scopes and predicate variables the drawn formulas may leave free
FREE = st.sampled_from([(), (("x", "s"),), (("x", "s"), ("y", "t"))])


@given(FREE, st.sampled_from([(), ("X",)]), st.data())
@settings(max_examples=300, deadline=None)
def test_drawn_formulas_get_the_oracles_diagnostics(free, predvars, data):
    f = data.draw(formulas(free, 3, predvars))
    for sig in (SIG, data.draw(signatures())):
        assert_same(f, sig)


x, y, c = Var("x", "s"), Var("y", "s"), Const("c")
Px = Atom("P", (x,))
STRAY = GenericRestricted("most", "s", x, Atom("R", (x, y)))

MALFORMED = [
    # a formula in term position, a term in formula position
    Atom("P", (Px,)), App("f", (Not(Px),)), Atom(sx.EQ, (c, Or(Px, Px))),
    And(c, Px), Not(x), Quant(sx.FORALL, x, c, Px), Binder(sx.EPS, x, y),
    PredApp("X", Atom("Z", ())),
    # not a node at all, at the top and inside
    42, "P", Atom("P", ("c",)), Not(None), App("f", (("c",),)),
    # bad quantifier kinds and majority modes
    Quant("some", x, None, Px), Quant(sx.MOST, x, None, Px, "loose"),
    Quant(sx.FORALL, x, None, Px, "strict"),
    Quant("few", Var("x", "u"), Atom("Q", (x,)), Px, "weak"),
    # a stray variable in a generic restriction, and one bound outside it
    Atom("P", (STRAY,)), Quant(sx.EXISTS, y, None, Atom("P", (STRAY,))),
    Atom("P", (GenericRestricted("many", "s", Var("x", "t"),
                                 Atom("S", (Var("z", "s"), x))),)),
    # undeclared sorts, unknown symbols, wrong arities and sorts
    Atom("P", (Generic("most", "u"),)), Binder(sx.IOTA, Var("x", "u"), Px),
    Quant2(sx.EXISTS2, "X", "u", PredApp("X", Const("d"))),
    Quant2(sx.FORALL2, "X", "t", PredApp("X", c)), PredApp("Y", c),
    Atom("W", (App("g", (x, c)),)), Atom("P", (c, c)), Atom("R", (c,)),
    Atom(sx.EQ, (c,)), Atom(sx.EQ, (c, Const("d"))), App("f", (Const("d"), c)),
    Atom("S", (Var("x", "t"), App("f", (x,)))),
    Quant(sx.FORALL, Var("x", "t"), None, Px), Atom("Q", (Var("v", "u"),)),
]


@pytest.mark.parametrize("e", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_trees_get_the_oracles_diagnostics(e):
    for sig in (SIG, Signature(frozenset({"s"}), {"c": "s"}, {}, {"P": ("s",)})):
        assert_same(e, sig)
