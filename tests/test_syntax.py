import random

import pytest
from hypothesis import given, settings, strategies as st

from epskernel import generators as gen
from epskernel import syntax as sx
from epskernel.syntax import (Atom, And, Binder, Const, Implies, Not, Or,
                              Quant, Signature, Var, alpha_eq, free_vars,
                              fresh_name, substitute, well_sorted)

SIG = gen.SIG_UNARY


def rand_formula(seed, depth=3):
    return gen.random_closed_formula(random.Random(seed), gen.SIG_FULL, depth,
                                     stars=True)


seeds = st.integers(min_value=0, max_value=10**6)


@given(seeds)
def test_alpha_eq_reflexive(seed):
    f = rand_formula(seed)
    assert alpha_eq(f, f)


@given(seeds)
def test_alpha_eq_ignores_bound_names(seed):
    x = Var("x", "s")
    y = Var("y", "s")
    body = Atom("P", (x,))
    f = Quant(sx.FORALL, x, None, body)
    g = Quant(sx.FORALL, y, None, Atom("P", (y,)))
    assert alpha_eq(f, g)
    assert not alpha_eq(f, Quant(sx.EXISTS, y, None, Atom("P", (y,))))


@given(seeds)
def test_substitute_identity(seed):
    # substituting a variable by itself changes nothing
    x = Var("x", "s")
    f = gen.random_formula(random.Random(seed), SIG, 3, {"x": "s"})
    assert alpha_eq(substitute(f, x, x), f)


@given(seeds)
def test_substitute_removes_variable(seed):
    x = Var("x", "s")
    f = gen.random_formula(random.Random(seed), SIG, 3, {"x": "s"})
    g = substitute(f, x, Const("c"))
    assert x not in free_vars(g)


@given(seeds)
@settings(max_examples=50)
def test_substitute_well_sorted(seed):
    x = Var("x", "s")
    f = gen.random_formula(random.Random(seed), SIG, 3, {"x": "s"})
    t = gen.random_term(random.Random(seed + 1), SIG, "s", {}, 2)
    assert well_sorted(substitute(f, x, t), SIG) == []


def test_substitute_avoids_capture():
    # exists v. (P(x) and Q(v)) with x := v must rename the binder
    x, v = Var("x", "s"), Var("v", "s")
    f = Quant(sx.EXISTS, v, None, And(Atom("P", (x,)), Atom("Q", (v,))))
    g = substitute(f, x, v)
    assert v in free_vars(g)
    assert not alpha_eq(g, Quant(sx.EXISTS, v, None,
                                 And(Atom("P", (v,)), Atom("Q", (v,)))))


def test_substitute_avoids_capture_in_binder_terms():
    x, v = Var("x", "s"), Var("v", "s")
    f = Atom("P", (Binder(sx.EPS, v, And(Atom("P", (x,)), Atom("Q", (v,)))),))
    g = substitute(f, x, v)
    assert v in free_vars(g)


def test_substitute_renames_the_inner_binders_a_renaming_would_meet():
    # forall x. Q(y) and (exists x1. not x = x1) with y := x renames the
    # binder x to x1, and so must rename the inner x1 in turn
    x, x1, x2, y = (Var(n, "s") for n in ("x", "x1", "x2", "y"))

    def f(b, q, inner, left, right):
        eq = Atom(sx.EQ, (left, right))
        return Quant(sx.FORALL, b, None,
                     And(Atom("Q", (q,)), Quant(sx.EXISTS, inner, None, Not(eq))))

    g = substitute(f(x, y, x1, x, x1), y, x)
    assert alpha_eq(g, f(x1, x, x2, x1, x2))
    assert not alpha_eq(g, f(x1, x, x1, x1, x1))
    assert free_vars(g) == {x}


def test_fresh_name():
    assert fresh_name("x", {"x", "x1"}) not in {"x", "x1"}
    assert fresh_name("y", set()) == "y"


def test_well_sorted_rejects_bad_arity_and_sorts():
    assert well_sorted(Atom("P", ()), SIG)
    assert well_sorted(Atom("P", (Const("nope"),)), SIG)
    sig2 = Signature(frozenset({"s", "t"}), {"d": "t"}, {}, {"P": ("s",)})
    assert well_sorted(Atom("P", (Const("d"),)), sig2)


def test_well_sorted_accepts_free_variables():
    assert well_sorted(Atom("P", (Var("z", "s"),)), SIG) == []


@given(seeds)
@settings(max_examples=50)
def test_subterms_contains_all_binders(seed):
    f = rand_formula(seed)
    for t in sx.subterms(f):
        if isinstance(t, Binder):
            assert t.kind in sx.BINDER_KINDS


def test_signature_validate():
    bad = Signature(frozenset({"s"}), {"c": "missing"}, {}, {})
    assert bad.validate()
    assert SIG.validate() == []
    # the wording parse_signature and parse_model report, once per symbol
    bad = Signature(frozenset({"s"}), {"c": "s"}, {"f": (("s", "t"), "u")},
                    {"P": ("s", "v", "w")}, "n")
    assert bad.validate() == ["predicate P over unknown sort v",
                              "function f over unknown sort t",
                              "integer sort n is not declared"]
