"""Differential tests: compiled truth() against the tree walk in
eval_oracle.

truth() runs a formula's compiled code; eval_oracle._Evaluator is the
reference.  On every input both must give the same value or raise the same
exception.
"""

import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epskernel import generators as gen
from epskernel import compiled, models, parser, transform
from epskernel import syntax as sx
from epskernel.models import Environment, Model, enumerate_models, truth
from epskernel.syntax import (Atom, And, App, Binder, Const, Generic,
                              GenericRestricted, Implies, Not, Or, PredApp,
                              Quant, Quant2, Signature, Var)

import eval_oracle
from test_acceptance import _prefix_family


def outcome(fn):
    try:
        return "value", fn()
    except Exception as e:          # the error type must match too
        return "error", type(e)


def reference(m, f, env=None):
    # the tree walk without recording; its closed-choice cache keeps the
    # sweeps below fast
    return outcome(lambda: eval_oracle._Evaluator(m, record=False)
                   .formula(f, env or Environment()))


def assert_agrees(m, f, env=None):
    got = outcome(lambda: truth(m, f, env))
    assert got == reference(m, f, env), (parser.print_formula(f), m)


def test_corpus_agrees_on_all_models_up_to_3():
    corpus = gen.proof_corpus(random.Random(20260825), 220)
    formulas = dict.fromkeys(f for p in corpus
                             for f in (*p.sequent.hypotheses, p.sequent.conclusion))
    ms = list(enumerate_models(gen.SIG_UNARY, 3))
    for f in formulas:
        assert compiled.compile_formula(f) is not None, parser.print_formula(f)
        for m in ms:
            assert truth(m, f) == eval_oracle._Evaluator(m, record=False) \
                .formula(f, Environment()), (parser.print_formula(f), m)


def test_prefix_family_and_embeddings_agree_on_all_models_up_to_2():
    sig, family = _prefix_family()
    assert len(family) == 80
    formulas = family + [transform.epsilon_embed(f) for f in family]
    ms = list(enumerate_models(sig, 2))
    for f in formulas:
        assert compiled.compile_formula(f) is not None, parser.print_formula(f)
        for m in ms:
            assert_agrees(m, f)


# -- random formulas, including every fallback node ----------------------

SIG = Signature(frozenset({"s", "t"}), {"c": "s", "d": "t"},
                {"f": (("s",), "t")},
                {"P": ("s",), "Q": ("s",), "R": ("s", "s"), "S": ("s", "t"),
                 "Z": ()})
NAMES = ("x", "y", "z")
THETAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
          Fraction(1))


@st.composite
def terms(draw, sort, scope, depth):
    choices = ["var", "const", "choice"] if depth > 0 else ["var", "const"]
    if sort == "t":
        choices.append("app")
    if sort == "s" and depth > 0:
        choices.append("generic")
    kind = draw(st.sampled_from(choices))
    in_scope = [n for n, s in scope if s == sort]
    if kind == "var" and in_scope:
        return Var(draw(st.sampled_from(in_scope)), sort)
    if kind == "app":
        return App("f", (draw(terms("s", scope, depth - 1)),))
    if kind == "choice":
        v = Var(draw(st.sampled_from(NAMES)), sort)
        body = draw(formulas(scope + ((v.name, sort),), depth - 1))
        return Binder(draw(st.sampled_from(sx.BINDER_KINDS)), v, body)
    if kind == "generic":
        g = draw(st.sampled_from(["most", "many"]))
        if draw(st.booleans()):
            return Generic(g, "s")
        v = Var(draw(st.sampled_from(NAMES)), "s")
        return GenericRestricted(g, "s", v, draw(
            formulas(scope + ((v.name, "s"),), depth - 1)))
    return Const("c" if sort == "s" else "d")


@st.composite
def formulas(draw, scope=(), depth=3, predvars=()):
    kinds = ["atom", "atom", "eq", "generic-atom"]
    if depth > 0:
        kinds += ["not", "and", "or", "implies", "quant", "quant", "quant2"]
    if predvars:
        kinds.append("predapp")
    kind = draw(st.sampled_from(kinds))
    sub = depth - 1
    if kind == "atom":
        pred = draw(st.sampled_from(sorted(SIG.predicates)))
        return Atom(pred, tuple(draw(terms(s, scope, sub))
                                for s in SIG.predicates[pred]))
    if kind == "eq":
        sort = draw(st.sampled_from(["s", "t"]))
        return Atom(sx.EQ, (draw(terms(sort, scope, sub)),
                            draw(terms(sort, scope, sub))))
    if kind == "generic-atom":
        g = draw(terms("s", scope, 1))
        return Atom(draw(st.sampled_from(["P", "Q"])), (g,))
    if kind == "predapp":
        return PredApp(draw(st.sampled_from(predvars)),
                       draw(terms("s", scope, sub)))
    if kind == "not":
        return Not(draw(formulas(scope, sub, predvars)))
    if kind in ("and", "or", "implies"):
        cls = {"and": And, "or": Or, "implies": Implies}[kind]
        return cls(draw(formulas(scope, sub, predvars)),
                   draw(formulas(scope, sub, predvars)))
    if kind == "quant2":
        return Quant2(draw(st.sampled_from([sx.FORALL2, sx.EXISTS2])), "X", "s",
                      draw(formulas(scope, sub, predvars + ("X",))))
    q = draw(st.sampled_from(sx.QUANT_KINDS))
    v = Var(draw(st.sampled_from(NAMES)), draw(st.sampled_from(["s", "t"])))
    inner = scope + ((v.name, v.sort),)
    restr = draw(st.one_of(st.none(), formulas(inner, sub, predvars)))
    mode = draw(st.sampled_from([None, "strict", "weak"])) if q == sx.MOST \
        else None
    return Quant(q, v, restr, draw(formulas(inner, sub, predvars)), mode)


def subset(draw, cells):
    return frozenset(c for c in cells if draw(st.booleans()))


@st.composite
def small_models(draw):
    s = ["a%d" % i for i in range(draw(st.integers(1, 3)))]
    t = ["b%d" % i for i in range(draw(st.integers(1, 2)))]
    f_table = {(e,): draw(st.sampled_from(t)) for e in s
               if draw(st.integers(0, 4))}     # sometimes partial
    return Model(
        signature=SIG, domains={"s": s, "t": t},
        preds={"P": subset(draw, [(e,) for e in s]),
               "Q": subset(draw, [(e,) for e in s]),
               "R": subset(draw, list(itertools.product(s, s))),
               "S": subset(draw, list(itertools.product(s, t))),
               "Z": subset(draw, [()])},
        consts={"c": draw(st.sampled_from(s)), "d": draw(st.sampled_from(t))},
        funcs={"f": f_table},
        most_threshold=draw(st.sampled_from(THETAS)),
        many_threshold=draw(st.sampled_from(THETAS)),
        majority_mode=draw(st.sampled_from(["strict", "weak"])),
        star_regime=draw(st.sampled_from(["A", "B"])))


@given(formulas(), st.lists(small_models(), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_random_formulas_agree(f, ms):
    for m in ms:
        assert_agrees(m, f)


# -- routing: what the mask form leaves to the ordered form ---------------

M = parser.parse_model("sort s = {a,b,c}\nconst c : s = a\n"
                       "fun f : s -> s = {a: b, c: a}\n"
                       "pred P : s = {a,b}\npred Q : s = {b}")
X = Var("x", "s")


def count_tree_walks(monkeypatch):
    """Count the calls that truth() runs again in the ordered form."""
    walks = []
    ordered = compiled.ordered

    def counting(model, node, env, mode):
        walks.append(mode)
        return ordered(model, node, env, mode)
    monkeypatch.setattr(compiled, "ordered", counting)
    return walks


@pytest.mark.parametrize("text", ["forall x:s. P(x) or Q(f(x))",
                                  "exists x:s. Q(f(x))",
                                  "P(most:s) and Q(eps x:s. P(x))"])
def test_tree_walk_only_where_needed(text, monkeypatch):
    f = parser.parse_formula(text, M.signature)
    want = models.eval_formula(M, None, f).value
    walks = count_tree_walks(monkeypatch)
    assert truth(M, f) == want
    # a partial function sends only the calls that meet its gap to the
    # ordered form
    assert len(walks) == (1 if "f(x)" in text else 0)


@pytest.mark.parametrize("f", [
    Quant2(sx.EXISTS2, "X", "s", PredApp("X", Const("c"))),
    Atom("P", (X,)),                                    # free variable
    And(Atom("P", (Const("c"),)),
        Quant(sx.EXISTS, X, None, Atom("Q", (Var("y", "s"),)))),
])
def test_uncompilable_formulas(f):
    assert compiled.compile_formula(f) is not None
    assert_agrees(M, f)


def test_environment_and_builtins_use_the_tree(monkeypatch):
    walks = count_tree_walks(monkeypatch)
    assert truth(M, Atom("P", (X,)), Environment().bind("x", "b"))
    assert truth(M, Atom("P", (Const("c"),)), Environment())   # empty env
    assert len(walks) == 0
    dens = parser.parse_model("sort nat = int\npred prime : nat = @prime\n"
                              "measure nat = density(100)")
    f = parser.parse_formula("most x:nat. not prime(x)", dens.signature)
    assert truth(dens, f)
    assert len(walks) == 0


def test_partial_function_errors_match_the_tree():
    # the tree raises here: f(b) is undefined and nothing short-circuits
    f = parser.parse_formula("forall x:s. Q(f(x))", M.signature)
    assert outcome(lambda: truth(M, f)) == ("error", models.EvalError)
    # here the tree never reaches f(b)
    g = parser.parse_formula("forall x:s. P(x) implies P(f(x)) or Q(x)",
                             M.signature)
    assert_agrees(M, g)


def test_missing_symbols_match_the_tree():
    bare = Model(signature=M.signature, domains={"s": ["a", "b"]})
    for text in ["exists x:s. P(x)", "P(c) or Q(c)", "forall x:s. x = x"]:
        assert_agrees(bare, parser.parse_formula(text, M.signature))
    assert_agrees(bare, Quant(sx.FORALL, Var("x", "u"), None, Atom("P", (X,))))
    empty = Model(signature=M.signature, domains={"s": []},
                  preds={"P": frozenset()})
    assert_agrees(empty, parser.parse_formula("forall x:s. P(x)", M.signature))
    assert_agrees(empty, parser.parse_formula("P(eps x:s. P(x))", M.signature))


def test_replaced_models_read_their_own_settings():
    m = parser.parse_model("sort s = {a,b,c,d}\npred P : s = {b,c}")
    f = parser.parse_formula("most x:s. P(x)", m.signature)
    assert not truth(m, f)
    weak = dataclasses.replace(m, majority_mode="weak")
    assert truth(weak, f)
    assert not truth(m, f)
    low = dataclasses.replace(m, most_threshold=Fraction(1, 4))
    assert truth(low, f)


def test_compiled_formulas_still_pickle():
    f = parser.parse_formula("exists x:s. P(x) and Q(eps y:s. P(y))", M.signature)
    want = truth(M, f)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and truth(M, g) == want


def test_deep_nesting_raises_like_the_tree():
    deep = Atom("P", (Const("c"),))
    for _ in range(3000):
        deep = Not(deep)
    assert outcome(lambda: truth(M, deep)) == ("error", RecursionError)
    assert outcome(lambda: models.eval_formula(M, None, deep)) \
        == ("error", RecursionError)
    shallow = Atom("P", (Const("c"),))
    for _ in range(101):
        shallow = Not(shallow)
    assert truth(M, shallow) is False
