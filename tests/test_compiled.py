"""Differential tests: compiled truth() and the ordered form against the
tree walk in eval_oracle.

truth() runs a formula's compiled code; eval_oracle._Evaluator is the
reference.  On every input both must give the same value or raise the same
exception, and STRICT the same flags, witnesses and messages too.
"""

import dataclasses
import functools
import gc
import itertools
import pickle
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epskernel import generators as gen
from epskernel import compiled, models, parser, transform
from epskernel import syntax as sx
from epskernel.cli import main
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


def result(evaluate, m, f, env=None):
    """(value, flags, witnesses) of evaluate(m, env, f), or the error
    raised: an EvalError by its message, anything else by its type."""
    try:
        r = evaluate(m, env, f)
    except models.EvalError as e:
        return "EvalError", str(e)
    except Exception as e:
        return type(e).__name__
    return r.value, r.flags, r.witnesses


def strict(m, env, f):
    """f's STRICT run, its witnesses printed as eval_formula prints them."""
    return models._result(*compiled.ordered(m, f, env, compiled.STRICT))


@st.composite
def environments(draw, m):
    """An Environment that binds the free x and the predicate variable Y
    of drawn formulas, each or both or neither."""
    env = Environment()
    if draw(st.booleans()):
        env = env.bind("x", draw(st.sampled_from(m.domains["s"])))
    if draw(st.booleans()):
        env = env.bind_pred("Y", subset(draw, m.domains["s"]))
    return env


@given(st.one_of(formulas(), formulas((("x", "s"),), 3, ("Y",))), small_models(),
       st.data())
@settings(max_examples=300, deadline=None)
def test_strict_agrees_with_the_oracle(f, m, data):
    # STRICT runs on its own, not only after another form has raised: its
    # value, flags, witnesses and errors are the semantics'
    env = data.draw(environments(m))
    assert result(strict, m, f, env) == result(eval_oracle.eval_formula, m, f, env), \
        (parser.print_formula(f), m, env.vars, env.predvars)


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
    # the semantics reads a choice term's domain before it reads its kind
    for m, sort, want in [(empty, "s", "empty domain for sort s"),
                          (bare, "u", "model has no sort u")]:
        x = Var("x", sort)
        f = Atom("P", (Binder("zeta", x, Atom("P", (x,))),))
        assert_agrees(m, f)
        for evaluate in (eval_oracle.eval_formula, models.eval_formula, strict):
            assert result(evaluate, m, f) == ("EvalError", want)


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


def test_deep_nesting_evaluates_as_truth_does():
    deep = Atom("P", (Const("c"),))
    for _ in range(3000):
        deep = Not(deep)
    # both forms are flat code: an even number of nots over P(c), which
    # holds
    assert truth(M, deep) is True
    assert models.eval_formula(M, None, deep).value is truth(M, deep)
    shallow = Atom("P", (Const("c"),))
    for _ in range(101):
        shallow = Not(shallow)
    assert truth(M, shallow) is False


def test_mask_form_compiles_and_runs_at_depth():
    deep = Atom("P", (Const("c"),))
    for _ in range(10 ** 4):
        deep = Not(deep)
    assert compiled.compile_formula(deep) is not None
    assert truth(M, deep) is True
    assert truth(M, Not(deep)) is False


@pytest.mark.parametrize("connective", ["implies", "and", "or"])
@pytest.mark.parametrize("depth", [300, 10 ** 4])
def test_right_nested_connectives_run_at_depth(connective, depth):
    # implies nests to the right; the parentheses make and/or do so too
    if connective == "implies":
        text = "P(c) implies " * depth + "Q(c)"
    else:
        text = ("P(c) %s (" % connective) * depth + "Q(c)" + ")" * depth
    f = parser.parse_formula(text, M.signature)
    assert compiled.compile_formula(f) is not None
    assert truth(M, f) is (connective == "or")


# -- generated code --------------------------------------------------------

# M with every symbol renamed
RENAMED = parser.parse_model("sort t = {a,b,c}\nconst d : t = a\n"
                             "fun g : t -> t = {a: b, c: a}\n"
                             "pred A : t = {a,b}\npred B : t = {b}")


def test_formulas_equal_up_to_names_have_one_truth():
    f = parser.parse_formula("exists x:s (P(x)). Q(eps y:s. not P(y) or y = c) "
                             "or Q(f(c)) and (most z:s. P(z))", M.signature)
    g = parser.parse_formula("exists x:t (A(x)). B(eps y:t. not A(y) or y = d) "
                             "or B(g(d)) and (most z:t. A(z))", RENAMED.signature)
    run_f = compiled.compile_formula(f)[0]
    assert run_f.__code__.co_filename == "<mask form>"
    assert_agrees(M, f)
    assert_agrees(RENAMED, g)
    assert truth(M, f) == truth(RENAMED, g)


def test_code_cache_stays_at_its_bound():
    # i negates the conjuncts at its set bits: a shape of its own for each i
    bits = (compiled.CODE_CACHE + 10).bit_length()
    for i in range(compiled.CODE_CACHE + 10):
        conjuncts = [Atom("P", (Const("c"),)) for _ in range(bits)]
        f = functools.reduce(And, [Not(a) if i >> k & 1 else a
                                   for k, a in enumerate(conjuncts)])
        assert truth(M, f) == (i == 0)
    codes = compiled._codes
    assert len(codes) == codes.maxsize == compiled.CODE_CACHE


Y, Z = Var("y", "s"), Var("z", "s")


@pytest.mark.parametrize("f, env", [
    # free variables bound from an Environment
    (And(Atom("P", (X,)), Quant(sx.EXISTS, Y, Atom("Q", (X,)), Atom("P", (Y,)))),
     Environment().bind("x", "b")),
    # a free variable read in an element loop
    (Quant(sx.EXISTS, Y, None, And(Atom("P", (X,)), Atom(sx.EQ, (Y, Const("c"))))),
     Environment().bind("x", "a")),
    # several free names, one under not: each read from its own place
    (And(And(Atom("P", (X,)), Not(Atom("Q", (Z,)))),
         Or(Atom("Q", (Z,)), Atom(sx.EQ, (X, Z)))),
     Environment().bind("x", "a").bind("z", "b")),
    # a partial function where it is defined
    (Quant(sx.FORALL, X, Atom("P", (X,)), Atom("Q", (App("f", (Const("c"),)),))),
     None),
    # a choice term that reads an outer bound variable
    (Quant(sx.FORALL, Z, None, Or(Not(Atom("P", (Z,))), Quant(
        sx.EXISTS, X, None, And(Atom("Q", (X,)), Atom("P", (Binder(
            sx.EPS, Y, Atom(sx.EQ, (Y, Z))),)))))), None),
])
def test_generated_code_runs_without_the_ordered_form(f, env, monkeypatch):
    walks = count_tree_walks(monkeypatch)
    assert_agrees(M, f, env)
    assert walks == []


@pytest.mark.parametrize("f, env", [
    # a bound and a free predicate variable
    (Quant2(sx.EXISTS2, "X", "s", And(PredApp("Y", X), PredApp("X", Const("c")))),
     Environment().bind("x", "a").bind_pred("Y", ["a", "c"])),
    # predicate variables, one under a choice term
    (Quant2(sx.FORALL2, "X", "s", Or(Not(PredApp("X", Const("c"))), Quant(
        sx.EXISTS, X, None, And(PredApp("X", X), Atom("P", (Binder(
            sx.EPS, Y, PredApp("X", Y)),)))))), None),
])
def test_predicate_variables_are_left_to_the_ordered_form(f, env, monkeypatch):
    # truth's own code runs the ordered nodes of a second-order quantifier
    # and a predicate variable: no call runs again in STRICT
    walks = count_tree_walks(monkeypatch)
    for _ in range(2):
        assert_agrees(M, f, env)
    assert walks == []


def test_eval_formula_runs_concept_lifted_formulas_in_record(monkeypatch):
    # RECORD writes the nodes that record or hold a choice term in the
    # ordered form, second-order ones too, and the parts that record
    # nothing in the mask form, in one function that nothing fails in
    sig = M.signature
    f = transform.lift_to_concepts(parser.parse_formula(
        "forall x:s. P(x) implies Q(eps y:s. P(y)) or (exists z:s. Q(z))", sig))
    assert isinstance(f, Quant2)
    walks = count_tree_walks(monkeypatch)
    got = models.eval_formula(M, None, f)
    assert walks == [compiled.RECORD]
    assert got == eval_oracle.eval_formula(M, None, f)


@pytest.mark.parametrize("text", ["Q(many:s) or P(most:s)",
                                  "P(most:s(y:s. Q(y))) or P(most:s)",
                                  "Q(c) or P(most:s) or P(most:s(y:s. Q(y)))"])
def test_each_generic_atom_records_its_count(text):
    # the emitter reads a generic atom as a count quantifier it builds,
    # which it must tell apart from the one it built before
    sig = gen.SIG_UNARY
    f = parser.parse_formula(text, sig)
    compiled._codes.clear()
    for m in enumerate_models(sig, 2):
        assert result(models.eval_formula, m, f) == \
            result(eval_oracle.eval_formula, m, f), m


RECORD_FREE = ["forall x:s. P(x) implies Q(x)", "exists x:s. P(x) and not Q(c)",
               "forall2 X:s. (forall x:s. X(x) implies P(x)) or exists x:s. X(x)",
               "exists2 X:s. X(c) and forall x:s. X(x) implies Q(x)"]


def records(f):
    """Whether f holds a choice or generic term or a count quantifier."""
    return any(isinstance(e, (Binder, Generic, GenericRestricted)) or
               type(e) is Quant and e.kind not in (sx.FORALL, sx.EXISTS)
               for e in sx._preorder(f))


def test_record_writes_a_formula_with_nothing_to_record_as_truth_does(
        monkeypatch):
    # written and drawn formulas and their concept-lifted forms: RECORD's
    # source is TRUTH's, second-order nodes included, and eval_formula
    # agrees with the oracle
    sources = emitted(monkeypatch)
    sig = gen.SIG_UNARY
    rng = random.Random(25)
    drawn = [gen.random_closed_formula(rng, sig, 2) for _ in range(60)]
    fs = [parser.parse_formula(text, sig) for text in RECORD_FREE]
    for f in drawn:
        fs.append(f)
        try:
            fs.append(transform.lift_to_concepts(f))
        except transform.TransformError:
            pass                # a restricted quantifier does not lift
    fs = [f for f in fs if not records(f)]
    assert sum(isinstance(f, Quant2) for f in fs) > 10
    ms = list(enumerate_models(sig, 2))
    for f in fs:
        written = []
        for mode in (compiled.TRUTH, compiled.RECORD):
            compiled._codes.clear()
            compiled.compile_formula(f, mode)
            written.append(sources[-1])
        assert written[0] == written[1], parser.print_formula(f)
        for m in ms:
            assert result(models.eval_formula, m, f) == \
                result(eval_oracle.eval_formula, m, f), parser.print_formula(f)


@pytest.mark.parametrize("text", ["eps x:s. Q(x)", "tau x:s. P(x)",
                                  "iota x:s. Q(x)", "iota x:s. P(x)"])
def test_truth_of_a_bare_choice_term_is_its_element(text):
    t = parser.parse_formula(text, M.signature)
    assert isinstance(t, Binder)
    want = eval_oracle.eval_term(M, None, t)
    assert models.eval_term(M, None, t) == want
    assert truth(M, t) == want.value


# -- what truth derives from a model ---------------------------------------

def reads(run, m):
    """The keys of the derived values that the mask form's run reads, each
    written in its code, and of the values they are derived from in model
    m, whose signature gives a constant's or a function's sort."""
    todo = [c for c in run.__code__.co_consts
            if type(c) is str and (c == "cfg" or compiled._SEP in c)]
    keys = set()
    while todo:
        key = todo.pop()
        keys.add(key)
        tag, *args = key.split(compiled._SEP)
        if tag == "dom" and compiled._sort(m, args[0]) != args[0]:
            todo.append(compiled._key("dom", compiled._sort(m, args[0])))
        elif tag in ("mask", "row", "col", "diag", "tuples", "bit", "map"):
            # a value over a sort that a constant or function names is the
            # one over the sort it names
            sorts = [compiled._sort(m, s) for s in args[1:]]
            source = {"bit": "const", "map": "fn"}.get(tag, "ext")
            todo += [compiled._key(tag, args[0], *sorts)] if sorts != args[1:] \
                else [compiled._key(source, args[0]),
                      *(compiled._key("dom", s) for s in sorts)]
    return keys


def test_truth_derives_each_value_once_per_model(monkeypatch):
    texts = ["exists x:s. P(x)", "forall x:s. P(x) implies Q(x)",
             "P(c) and Q(eps x:s. P(x))", "most x:s (P(x)). Q(x)",
             "Q(c) or (forall x:s. not P(x))"]
    fs = [parser.parse_formula(t, gen.SIG_UNARY) for t in texts]
    ms = list(enumerate_models(gen.SIG_UNARY, 3))
    # the oracle derives the extensions it reads too: ask it on copies,
    # which derive their own
    want = [[eval_oracle._Evaluator(dataclasses.replace(m), record=False)
             .formula(f, Environment()) for f in fs] for m in ms]
    derived, derive = {}, compiled._derive

    def counting(model, d, key):
        derived[id(model), key] = derived.get((id(model), key), 0) + 1
        return derive(model, d, key)
    monkeypatch.setattr(compiled, "_derive", counting)
    walks = count_tree_walks(monkeypatch)
    for _ in range(2):
        for m, values in zip(ms, want):
            assert [truth(m, f) for f in fs] == values, m
    assert walks == []
    assert derived and set(derived.values()) == {1}
    # every model derived the same keys: the union of what the formulas
    # read
    keys = {k for _, k in derived}
    assert len(derived) == len(ms) * len(keys)
    assert keys == {k for f in fs
                    for k in reads(compiled.compile_formula(f)[0], ms[0])}


def test_a_gap_sends_each_truth_call_to_the_ordered_form_once(monkeypatch):
    m = dataclasses.replace(M)              # its own, empty, derived values
    gap = parser.parse_formula("forall x:s. Q(f(x))", M.signature)
    # reads the tables gap reads, but never f(b): a right operand's values
    # are read at the entry
    total = parser.parse_formula(
        "((exists x:s. P(x)) or forall x:s. Q(f(x))) and P(c)", M.signature)
    assert truth(m, total) is True
    assert m._derived.keys() >= reads(compiled.compile_formula(gap)[0], m)
    with pytest.raises(models.EvalError) as want:
        eval_oracle._Evaluator(m, record=False).formula(gap, Environment())
    walks = count_tree_walks(monkeypatch)
    for n in range(1, 4):
        with pytest.raises(models.EvalError) as got:
            truth(m, gap)
        assert str(got.value) == str(want.value)
        assert walks == [compiled.STRICT] * n
    assert truth(m, total) is True
    assert walks == [compiled.STRICT] * 3


def test_a_model_and_its_derived_values_form_no_cycle():
    # a cycle would keep each swept model until the cyclic collector ran
    m = dataclasses.replace(M)
    texts = ["exists x:s. P(x)", "Q(f(c)) and (most x:s. Q(x))",
             "forall x:s. Q(f(x))"]
    fs = [parser.parse_formula(t, M.signature) for t in texts]
    gc.disable()
    try:
        for f in fs:
            outcome(lambda: truth(m, f))
        assert m._derived
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_every_form_derives_each_value_once_per_model(monkeypatch):
    # truth, which misses first, the ordered forms and pred_holds all read
    # the model's derived values, each derived there once
    f = parser.parse_formula("exists x:s. P(x) and Q(eps y:s. P(y) or y = f(c))",
                             M.signature)
    want = eval_oracle.eval_formula(dataclasses.replace(M), None, f)
    m = dataclasses.replace(M)
    derived, derive = [], compiled._derive

    def counting(model, d, key):
        derived.append(key)
        return derive(model, d, key)
    monkeypatch.setattr(compiled, "_derive", counting)
    assert truth(m, f) is want.value
    assert models.eval_formula(m, None, f) == want
    assert strict(m, None, f) == want
    assert m.pred_holds("P", ("a",)) and not m.pred_holds("Q", ("a",))
    # the mask form reads bits: P's and Q's masks, and c's bit and f's map
    # over the sort the signature gives c, which are those over s; RECORD
    # reads what these are derived from too, and STRICT its own shape, seq
    keys = [("mask", "P", "s"), ("ext", "P"), ("dom", "s"), ("seq", "s"),
            ("bit", "c", "c:c"), ("bit", "c", "s"), ("const", "c"),
            ("map", "f", "c:c", "s"), ("map", "f", "s", "s"), ("fn", "f"),
            ("mask", "Q", "s"), ("ext", "Q")]
    assert sorted(derived) == sorted(m._derived) == \
        sorted(compiled._key(*k) for k in keys)


# -- where the ordered form stops ------------------------------------------

@pytest.mark.parametrize("regime", ["A", "B"])
@pytest.mark.parametrize("text, missing", [
    # a witness for each element up to a, where forall is settled
    ("forall x:s. Q(eps y:s. y = x)", ()),
    # the same in regime A; every element's in regime B
    ("forall* x:s. Q(eps y:s. y = x)", ()),
    ("exists* x:s. P(eps y:s. y = x)", ()),
    # f's gap at b lies past a, where forall is settled
    ("forall x:s. Q(x) and P(f(x))", ()),
    # a symbol the model lacks, past what settles the value
    ("P(c) or Q(c)", ("Q",)),
    ("exists x:s. P(x) or Q(x)", ("Q",)),
    ("most x:s. P(x) or Q(f(x))", ("Q",)),
])
def test_the_ordered_form_stops_where_the_semantics_does(text, missing, regime):
    m = dataclasses.replace(M, star_regime=regime, preds={
        p: ext for p, ext in M.preds.items() if p not in missing})
    f = parser.parse_formula(text, M.signature)
    want = result(eval_oracle.eval_formula, m, f)
    assert result(models.eval_formula, m, f) == want
    assert result(strict, m, f) == want


# -- the code cache, keyed by the formula as written -----------------------

# a one-to-one renaming of SIG's symbols: sorts and constants swapped,
# predicates in a cycle
RENAME = {"sort": {"s": "t", "t": "s"}, "const": {"c": "d", "d": "c"},
          "func": {"f": "g"},
          "pred": {"P": "Q", "Q": "R", "R": "S", "S": "Z", "Z": "P"}}


def renamed(e):
    """Node e with its symbols renamed by RENAME."""
    t, sort = type(e), RENAME["sort"]
    if t is Var:
        return Var(e.name, sort[e.sort])
    if t is Const:
        return Const(RENAME["const"][e.name])
    if t is App:
        return App(RENAME["func"][e.func], tuple(map(renamed, e.args)))
    if t is Atom:
        return Atom(RENAME["pred"].get(e.pred, e.pred), tuple(map(renamed, e.args)))
    if t is Generic:
        return Generic(e.kind, sort[e.sort])
    if t is GenericRestricted:
        return GenericRestricted(e.kind, sort[e.sort], renamed(e.var),
                                 renamed(e.restriction))
    if t is Quant2:
        return Quant2(e.kind, e.predvar, sort[e.sort], renamed(e.body))
    if t is Quant:
        return Quant(e.kind, renamed(e.var), e.restriction and renamed(e.restriction),
                     renamed(e.body), e.mode)
    if t is Binder:
        return Binder(e.kind, renamed(e.var), renamed(e.body))
    if t is PredApp:
        return PredApp(e.predvar, renamed(e.arg))
    if t is Not:
        return Not(renamed(e.body))
    return t(renamed(e.left), renamed(e.right))


def renamed_model(m):
    sort, func, pred = RENAME["sort"], RENAME["func"], RENAME["pred"]
    sig = m.signature
    return dataclasses.replace(
        m, signature=Signature(
            frozenset(sort[s] for s in sig.sorts),
            {RENAME["const"][c]: sort[s] for c, s in sig.constants.items()},
            {func[f]: (tuple(sort[s] for s in args), sort[r])
             for f, (args, r) in sig.functions.items()},
            {pred[p]: tuple(sort[s] for s in args)
             for p, args in sig.predicates.items()}),
        domains={sort[s]: d for s, d in m.domains.items()},
        preds={pred[p]: ext for p, ext in m.preds.items()},
        consts={RENAME["const"][c]: e for c, e in m.consts.items()},
        funcs={func[f]: table for f, table in m.funcs.items()})


def helpers(run):
    """The code objects of the functions generated code calls."""
    return {name: fn.__code__ for name, fn in run.__globals__.items()
            if name.startswith("_f") and hasattr(fn, "__code__")}


@given(formulas(), small_models())
@settings(max_examples=300, deadline=None)
def test_a_renamed_formula_gets_the_code_of_a_fresh_emission(f, m):
    g, rm = renamed(f), renamed_model(m)
    codes = compiled._codes
    codes.clear()
    compiled.compile_formula(f)
    run, frees, memos = compiled.compile_formula(g)
    assert_agrees(rm, g)
    # g's ordered code records g's own choice terms and names g's own
    # symbols in its messages
    want = result(eval_oracle.eval_formula, rm, g)
    assert result(models.eval_formula, rm, g) == want
    assert result(strict, rm, g) == want
    codes.clear()
    fresh, fresh_frees, fresh_memos = compiled.compile_formula(g)
    assert (reads(run, rm), frees, memos) == \
        (reads(fresh, rm), fresh_frees, fresh_memos)
    assert run.__code__.co_code == fresh.__code__.co_code
    assert run.__code__ == fresh.__code__ and helpers(run) == helpers(fresh)


PAIRS = parser.parse_model("sort s = {a,b}\nconst c : s = a\npred P : s = {a}\n"
                           "pred Q : s = {b}\npred R : s, s = {(a,a)}")
P_X = Atom("P", (X,))
EPS_Q = Binder(sx.EPS, X, Atom("Q", (X,)))


@pytest.mark.parametrize("a, b, env, values", [
    ("P(c) and Q(c)", "P(c) and P(c)", None, (False, True)),
    (Quant(sx.MOST, X, None, P_X, "strict"), Quant(sx.MOST, X, None, P_X, "weak"),
     None, (False, True)),
    ("R(eps x:s. P(x), eps x:s. P(x))", "R(eps x:s. P(x), eps y:s. P(y))", None,
     (True, True)),
    (P_X, Atom("P", (Y,)), Environment().bind("x", "a").bind("y", "b"),
     (True, False)),
    # a restriction, or a body whose quantifier has one
    ("exists x:s (forall y:s. P(y)). Q(x)", "exists x:s. forall y:s (P(y)). Q(x)",
     None, (False, True)),
    # = is not a predicate symbol
    (Atom("R", (EPS_Q, EPS_Q)), Atom(sx.EQ, (EPS_Q, EPS_Q)), None, (False, True)),
    # an atom's arity: c and eps's body P(x), or eps's body P(c, x)
    ("R(c, eps x:s. P(x))", Atom("R", (Binder(sx.EPS, X, Atom("P", (Const("c"), X))),)),
     None, (True, False)),
    # the same atoms in the other order
    ("P(c) and Q(c)", "Q(c) and P(c)", None, (False, False)),
])
def test_shapes_that_differ_get_entries_of_their_own(a, b, env, values):
    fa, fb = (parser.parse_formula(t, PAIRS.signature) if isinstance(t, str)
              else t for t in (a, b))
    codes = compiled._codes
    codes.clear()
    compiled.compile_formula(fa)
    misses = codes.misses
    compiled.compile_formula(fb)
    assert codes.misses == misses + 1 and len(codes) == 2
    for f in (fa, fb):
        assert_agrees(PAIRS, f, env)
    assert (truth(PAIRS, fa, env), truth(PAIRS, fb, env)) == values


@pytest.mark.parametrize("mode", [compiled.TRUTH, compiled.RECORD,
                                  compiled.STRICT])
def test_a_hit_runs_no_emitter(mode, monkeypatch):
    emits, emit = [], compiled._Emitter.emit

    def counting(self, node):
        emits.append(self.mode)
        return emit(self, node)
    monkeypatch.setattr(compiled._Emitter, "emit", counting)
    text = "exists x:s. P(x) and Q(eps y:s. (forall z:s. P(z) implies P(y)) or y = c)"
    compiled._codes.clear()
    first = compiled.compile_formula(parser.parse_formula(text, M.signature), mode)
    # one emission for the whole formula, its choice body's mask included
    assert emits == [mode]
    f = parser.parse_formula(text, M.signature)
    code = compiled.compile_formula(f, mode)
    assert emits == [mode]
    assert code is first
    walks = count_tree_walks(monkeypatch)
    assert_agrees(M, f)
    assert models.eval_formula(M, None, f) == eval_oracle.eval_formula(M, None, f)
    assert walks == [compiled.RECORD]


W = Var("w", "s")


@pytest.mark.parametrize("first, second, env", [
    # a free x and an x bound in the scope read from different places
    (Quant(sx.EXISTS, X, None, Atom("Q", (Binder(sx.EPS, Z, Atom(sx.EQ, (Z, X))),))),
     Quant(sx.EXISTS, W, None, Atom("Q", (Binder(sx.EPS, Z, Atom(sx.EQ, (Z, X))),))),
     Environment().bind("x", "a")),
    # x is the first free name, then the second
    (Quant(sx.EXISTS, Z, None, And(Atom("Q", (X,)), Atom("P", (Z,)))),
     And(Not(Atom("P", (Y,))),
         Quant(sx.EXISTS, Z, None, And(Atom("Q", (X,)), Atom("P", (Z,))))),
     Environment().bind("x", "b").bind("y", "c")),
])
def test_free_and_bound_names_get_record_entries_of_their_own(first, second, env):
    compiled._codes.clear()
    for f in (first, second):
        assert models.eval_formula(M, env, f) == eval_oracle.eval_formula(M, env, f)
    assert len(compiled._codes) == 2


@pytest.mark.parametrize("text", ["not " * 10 ** 4 + "P(c)",
                                  "P(c) implies " * 10 ** 4 + "Q(c)",
                                  "forall x:s. " * 10 ** 4 + "P(x)"],
                         ids=["not", "implies", "prefix"])
def test_deep_formulas_are_keyed_and_hit(text):
    # the key is a flat tuple: made and hashed at any depth, and the code
    # of both forms is flat
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        want = truth(M, parser.parse_formula(text, M.signature))
        hits = compiled._codes.hits
        assert truth(M, parser.parse_formula(text, M.signature)) is want
        assert compiled._codes.hits == hits + 1
        got = models.eval_formula(M, None, parser.parse_formula(text, M.signature))
        assert (got.value, got.flags, got.witnesses) == (want, [], [])
    finally:
        sys.setrecursionlimit(limit)
    assert want is text.startswith("not")


def test_a_deep_chain_of_closed_choice_terms_evaluates():
    # Q(eps x. Q(x) and not Q(eps y. Q(y) and not Q(... c))), 250 deep:
    # every form compiles and runs it.  The picks alternate: b over c = a,
    # then none, so a, and so on
    t = Const("c")
    for i in range(250):
        v = Var("x" if i % 2 else "y", "s")
        t = Binder(sx.EPS, v, And(Atom("Q", (v,)), Not(Atom("Q", (t,)))))
    f = Atom("Q", (t,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert truth(M, f) is False
        got = models.eval_formula(M, None, f)
    finally:
        sys.setrecursionlimit(limit)
    assert got.value is False
    assert [e for _, e in got.witnesses] == ["b", "a"] * 125


# -- a closed choice or generic term met twice -------------------------------

REPEATED = [
    ("R(most:s(x:s. P(x)), most:s(x:s. P(x)))", 1),
    # no satisfier when c is not in Q: a presupposition failure
    ("R(many:s(x:s. Q(x) and x = c), many:s(x:s. Q(x) and x = c))", 1),
    ("R(iota x:s. P(x), iota x:s. P(x))", 1),
    ("Q(iota x:s. R(x, c)) and not P(iota x:s. R(x, c))", 1),
    ("R(eta x:s. Q(x), eta x:s. Q(x))", 1),
    # the generic term's restriction holds a choice term that is not closed
    ("forall y:s. R(y, most:s(x:s. Q(eps z:s. R(x, z)))) "
     "or R(most:s(x:s. Q(eps z:s. R(x, z))), c)", 2),
    ("exists y:s. R(iota x:s. R(x, x), y) and not R(y, iota x:s. R(x, x))", 1),
]


@pytest.mark.parametrize("text, picks", REPEATED)
@given(m=small_models())
@settings(max_examples=40, deadline=None)
def test_a_repeated_closed_term_agrees_in_every_form(text, picks, m):
    f = parser.parse_formula(text, SIG)
    assert_agrees(m, f)
    want = result(eval_oracle.eval_formula, m, f)
    assert result(models.eval_formula, m, f) == want
    assert result(strict, m, f) == want


def emitted(monkeypatch):
    """The source of each code emitted from here on, in order."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)
    monkeypatch.setattr(compiled, "compile", spy, raising=False)
    return sources


@pytest.mark.parametrize("text, picks", REPEATED)
def test_a_repeated_closed_term_is_picked_once(text, picks, monkeypatch):
    # one pick in the mask form's source, and one memo per closed term in
    # the ordered form's.  Each pick of the mask form falls back once on the
    # bit of its sort's least element
    sources = emitted(monkeypatch)
    f = parser.parse_formula(text, SIG)
    compiled._codes.clear()
    compiled.compile_formula(f)
    assert len(re.findall(r"n\d+ & 1 or _raise\(.empty domain",
                          sources[-1])) == picks
    assert compiled.compile_formula(f, compiled.RECORD)[2] == 1


@pytest.mark.parametrize("text, fulls", [
    ("exists x:s. P(x)", 0), ("forall x:s. P(x)", 1), ("most x:s. P(x)", 1),
    ("exists x:s (Q(x)). P(x)", 0)])
def test_a_quantifier_reads_the_full_mask_only_when_it_tests_it(text, fulls,
                                                               monkeypatch):
    # an unrestricted exists tests its body's mask alone: neither form
    # reads the domain's full mask for it
    sources = emitted(monkeypatch)
    f = parser.parse_formula(text, M.signature)
    compiled._codes.clear()
    for mode in (compiled.TRUTH, compiled.STRICT):
        compiled.compile_formula(f, mode)
    assert [source.count(".full") for source in sources] == [fulls, fulls]
    assert_agrees(M, f)
    assert result(strict, M, f) == result(eval_oracle.eval_formula, M, f)


# -- a term over an empty sort ---------------------------------------------

EMPTY_TEXT = ("sort s = {}\nsort t = {a}\npred P : s = {}\npred Q : t = {a}\n"
              "pred R : s, s = {}\n")
EMPTY = parser.parse_model(EMPTY_TEXT)
EMPTY_DOMAIN = ("EvalError", "empty domain for sort s")


@pytest.mark.parametrize("text, want", [
    ("most:s = most:s", EMPTY_DOMAIN),
    ("R(most:s, most:s(x:s. P(x)))", EMPTY_DOMAIN),
    ("most:s(x:s. P(x)) = most:s(x:s. not P(x))", EMPTY_DOMAIN),
    ("P(eps x:s. P(x))", EMPTY_DOMAIN),
    ("exists y:t. P(tau x:s. P(x))", EMPTY_DOMAIN),
    # a generic atom is a count quantifier, which reads no element
    ("P(most:s(x:s. P(x)))", (False, ["empty-restriction"], [])),
    # the semantics never reaches the generic term
    ("(exists y:t. Q(y)) or most:s = most:s", (True, [], [])),
])
def test_a_term_over_an_empty_sort_is_an_input_error(text, want, tmp_path,
                                                     capsys):
    f = parser.parse_formula(text, EMPTY.signature)
    assert result(eval_oracle.eval_formula, EMPTY, f) == want
    assert result(models.eval_formula, EMPTY, f) == want
    assert result(strict, EMPTY, f) == want
    value = ("error", models.EvalError) if want == EMPTY_DOMAIN else \
        ("value", want[0])
    assert outcome(lambda: truth(EMPTY, f)) == value
    model = tmp_path / "empty.model"
    model.write_text(EMPTY_TEXT)
    code = main(["eval", "--model", str(model), text])
    out = capsys.readouterr()
    if want == EMPTY_DOMAIN:
        assert (code, out.out, out.err) == (
            2, "", "error: empty domain for sort s\n")
    else:
        assert code == 0 and out.err == ""
        assert out.out.splitlines()[0].endswith(" = %s" % str(want[0]).lower())


# -- a copied choice term that reads an enclosing variable ----------------

COPY_SIG = Signature(frozenset({"s"}), {"c": "s"}, {},
                     {"P": ("s",), "Q": ("s",), "R": ("s", "s")})


def copy_models():
    """Every model of COPY_SIG up to size 2, and a fixed sample of size 3."""
    rng = random.Random(24)
    elems = ["a", "b", "c"]
    cells = list(itertools.product(elems, elems))
    sample = [Model(signature=COPY_SIG, domains={"s": elems},
                    preds={"P": frozenset((e,) for e in elems if rng.random() < .5),
                           "Q": frozenset((e,) for e in elems if rng.random() < .5),
                           "R": frozenset(c for c in cells if rng.random() < .5)},
                    consts={"c": rng.choice(elems)})
              for _ in range(40)]
    return list(enumerate_models(COPY_SIG, 2)) + sample


def copied_term(rng, x, depth=1):
    """A choice or restricted generic term that reads variable x, its body
    perhaps holding another such term."""
    y = Var("y" if depth else "z", "s")
    inner = copied_term(rng, x, depth - 1) if depth and rng.random() < .4 else x
    body = rng.choice([Atom("R", (inner, y)),
                       And(Atom("P", (y,)), Atom("R", (y, x))),
                       Or(Atom("Q", (y,)), Atom("R", (x, y))),
                       Not(Atom("R", (y, inner))), Atom(sx.EQ, (y, inner))])
    kind = rng.choice([sx.EPS, sx.TAU, sx.IOTA, sx.ETA, "most", "many"])
    if kind in sx.BINDER_KINDS:
        return Binder(kind, y, body)
    return GenericRestricted(kind, "s", y, body)


def holding(rng, x, t, depth):
    """A formula over x in which term t occurs, in an atom, under not, a
    connective (the last operand of one a short-circuit's right operand),
    a quantifier over another variable (t in its restriction too) or a
    quantifier that binds x again."""
    kind = rng.choice(["atom", "atom", "not", "two", "one", "restricted",
                       "rebind"] if depth else ["atom"])
    if kind == "atom":
        return rng.choice([Atom("P", (t,)), Atom("R", (x, t)), Atom("R", (t, x)),
                           Atom(sx.EQ, (t, x)), Atom("R", (t, t))])
    if kind == "not":
        return Not(holding(rng, x, t, depth - 1))
    cls = rng.choice([And, Or, Implies])
    if kind == "two":
        return cls(holding(rng, x, t, depth - 1), holding(rng, x, t, depth - 1))
    if kind == "one":
        return cls(rng.choice([Atom("P", (x,)), Atom("Q", (Const("c"),))]),
                   holding(rng, x, t, depth - 1))
    q = rng.choice([sx.FORALL, sx.EXISTS, sx.MOST])
    if kind == "rebind":
        return Quant(q, x, None, holding(rng, x, t, depth - 1))
    w = Var("w", "s")
    return Quant(q, w, rng.choice([Atom("R", (w, t)), Atom("P", (w,))]),
                 And(Atom("R", (w, x)), holding(rng, x, t, depth - 1)))


def drawn_copies(n, seed=24):
    """n formulas, each with a term that reads x copied under one binder of
    x, and half of them with the term under a second binder of x too."""
    rng = random.Random(seed)
    x = Var("x", "s")
    out = []
    while len(out) < n:
        t = copied_term(rng, x)
        f = Quant(rng.choice([sx.FORALL, sx.EXISTS]), x, None,
                  rng.choice([And, Or, Implies])(holding(rng, x, t, 2),
                                                 holding(rng, x, t, 2)))
        if rng.random() < .5:
            f = Or(f, Quant(rng.choice(sx.QUANT_KINDS), x, None,
                            holding(rng, x, t, 1)))
        out.append(f)
    return out


COPIED = [
    # both operands of a connective loop over x: one loop, one pick each
    "forall x:s. P(eps y:s. R(x, y)) or R(x, eps y:s. R(x, y))",
    "exists x:s. Q(tau y:s. R(y, x)) and not P(tau y:s. R(y, x))",
    "forall x:s. P(iota y:s. R(x, y)) implies Q(iota y:s. R(x, y))",
    "exists x:s. P(most:s(y:s. R(x, y))) and R(most:s(y:s. R(x, y)), x)",
    # a copy first written in a short-circuit's right operand, then after it
    "forall x:s. (P(x) or Q(eps y:s. R(x, y))) and R(eps y:s. R(x, y), x)",
    # copies in a quantifier's restriction and body
    "exists x:s. forall w:s (R(w, eps y:s. R(x, y))). P(eps y:s. R(x, y))",
    # one term under two binders of x, and under one that binds x again
    "(exists x:s. P(eps y:s. R(x, y))) and (forall x:s. Q(eps y:s. R(x, y)))",
    "forall x:s. P(eps y:s. R(x, y)) and (exists x:s. not P(eps y:s. R(x, y)))",
]


def test_copied_choice_terms_agree_with_the_oracle():
    ms = copy_models()
    for f in [parser.parse_formula(text, COPY_SIG) for text in COPIED] + \
            drawn_copies(24):
        for m in ms:
            assert_agrees(m, f)


def test_a_copied_choice_term_is_written_once(monkeypatch):
    # the satisfier loop of eps x2, copied into both disjuncts of eps x1's
    # body, tests R(x1, x2) on two loop bits once: R's row at x1's bit
    # against x2's
    sources = emitted(monkeypatch)
    sig, _ = _prefix_family()
    f = transform.epsilon_embed(parser.parse_formula(
        "exists x1:s. forall x2:s. exists x3:s. P(x3) or R(x1, x2)", sig))
    compiled._codes.clear()
    compiled.compile_formula(f)
    assert len(re.findall(r"n\d+\[b\d+\] & b\d+ != 0", sources[-1])) == 1
    for m in enumerate_models(sig, 2):
        assert_agrees(m, f)


def test_a_deep_closed_chain_is_keyed_once_per_form(monkeypatch):
    # the emitter finds a closed choice term met again by its value number:
    # node_key runs once per form, for the code cache's key
    t = Const("c")
    for i in range(1200):
        v = Var("x" if i % 2 else "y", "s")
        t = Binder(sx.EPS, v, And(Atom("Q", (v,)), Not(Atom("Q", (t,)))))
    calls = []
    key = sx.node_key
    monkeypatch.setattr(sx, "node_key", lambda *a: calls.append(a) or key(*a))
    compiled._codes.clear()
    for mode in (compiled.TRUTH, compiled.RECORD, compiled.STRICT):
        compiled.compile_formula(Atom("Q", (t,)), mode)
    assert len(calls) == 3


# -- the mask form computes with bits ----------------------------------------

def counted(f):
    """Whether f holds a count quantifier."""
    return any(type(e) is Quant and e.kind not in (sx.FORALL, sx.EXISTS)
               for e in sx._preorder(f))


def test_the_mask_form_computes_with_bits(monkeypatch):
    # a term is its element's bit: the mask form of the criterion-5
    # formulas, their embeddings and the corpus formulas without a count
    # quantifier builds no argument tuple and reads no element list
    sources = emitted(monkeypatch)
    _, family = _prefix_family()
    corpus = gen.proof_corpus(random.Random(20260825), 220)
    fs = family + [transform.epsilon_embed(f) for f in family] + [
        f for p in corpus for f in (*p.sequent.hypotheses, p.sequent.conclusion)
        if not counted(f)]
    assert len(fs) > 400
    for f in fs:
        compiled._codes.clear()
        compiled.compile_formula(f)
        assert not re.search(r"\((?:\w+, )+\)|\.elems\b", sources[-1]), \
            (parser.print_formula(f), sources[-1])


WIDE = parser.parse_model(
    "sort s = {a, b, c}\nsort t = {u, v}\nsort e = {}\nsort n = int\n"
    "measure n = density(12)\n"
    "const c : s = b\nconst d : t = v\nconst k : n = 7\n"
    "fun f : s -> t = {a: u, c: v}\n"
    "fun g : s, t -> s = {(a, u): b, (b, u): c, (b, v): a, (c, v): c}\n"
    "fun h : n -> s = {1: a, 2: b, 7: c}\n"
    "pred P : s = {a, c}\npred R : s, t = {(a, u), (c, u), (c, v)}\n"
    "pred S : s, s = {(a, a), (b, c), (c, a)}\n"
    "pred T : s, s, t = {(a, b, u), (c, c, v)}\n"
    "pred E : e = {}\npred prime : n = @prime\npred O : n = {2, 9, 7}\n")
WIDE_RESULTS = {"s": [("f", "t", ("s",)), ("g", "s", ("s", "t")),
                      ("h", "s", ("n",))],
                "t": [("f", "t", ("s",))]}
WIDE_CONSTS = {"s": "c", "t": "d", "n": "k"}


def wide_term(rng, sort, scope, depth):
    """A term of `sort` over WIDE's signature: a variable, a constant, an
    application, a choice or a generic term."""
    kinds = ["var"] * 3 * bool([n for n, s in scope if s == sort])
    kinds += ["const"] * (sort in WIDE_CONSTS)
    if depth > 0:
        kinds += ["choice", "choice", "generic"]
        kinds += ["app"] * bool([r for r in WIDE_RESULTS.get(sort, ())
                                 if r[1] == sort])
    kind = rng.choice(kinds or ["generic"])
    if kind == "var":
        return Var(rng.choice([n for n, s in scope if s == sort]), sort)
    if kind == "const":
        return Const(WIDE_CONSTS[sort])
    if kind == "app":
        name, _, args = rng.choice([r for r in WIDE_RESULTS[sort] if r[1] == sort])
        return App(name, tuple(wide_term(rng, a, scope, depth - 1) for a in args))
    g = rng.choice(["most", "many"])
    if kind == "generic" and (depth < 1 or rng.random() < .3):
        return Generic(g, sort)
    v = Var(rng.choice("yz"), sort)
    body = wide_formula(rng, scope + ((v.name, sort),), depth - 1)
    if kind == "choice":
        return Binder(rng.choice(sx.BINDER_KINDS), v, body)
    return GenericRestricted(g, sort, v, body)


def wide_formula(rng, scope, depth, predvars=("Y",)):
    """A formula over WIDE's signature whose free names are in scope and
    predvars (each predicate variable over s)."""
    kinds = ["atom", "atom", "eq", "predapp"]
    if depth > 0:
        kinds += ["not", "two", "two", "quant", "quant", "quant2"]
    kind = rng.choice(kinds)
    sub = depth - 1
    if kind == "atom":
        pred, sorts = rng.choice(sorted(WIDE.signature.predicates.items()))
        return Atom(pred, tuple(wide_term(rng, s, scope, sub) for s in sorts))
    if kind == "eq":
        sort = rng.choice("sten")
        return Atom(sx.EQ, (wide_term(rng, sort, scope, sub),
                            wide_term(rng, sort, scope, sub)))
    if kind == "predapp":
        return PredApp(rng.choice(predvars), wide_term(rng, "s", scope, sub))
    if kind == "not":
        return Not(wide_formula(rng, scope, sub, predvars))
    if kind == "two":
        return rng.choice([And, Or, Implies])(wide_formula(rng, scope, sub, predvars),
                                              wide_formula(rng, scope, sub, predvars))
    if kind == "quant2":
        return Quant2(rng.choice([sx.FORALL2, sx.EXISTS2]), "X", "s",
                      wide_formula(rng, scope, sub, predvars + ("X",)))
    v = Var(rng.choice("xyz"), rng.choice("sten"))
    inner = scope + ((v.name, v.sort),)
    restriction = wide_formula(rng, inner, sub, predvars) \
        if rng.random() < .3 else None
    return Quant(rng.choice(sx.QUANT_KINDS), v, restriction,
                 wide_formula(rng, inner, sub, predvars))


def wide_models():
    """WIDE in both star regimes, with other thresholds, and built through
    the API with an element of s listed twice."""
    return [WIDE, dataclasses.replace(WIDE, star_regime="A", majority_mode="weak",
                                      most_threshold=Fraction(1, 3)),
            dataclasses.replace(WIDE, domains={**WIDE.domains,
                                               "s": ["a", "b", "a", "c"]})]


def test_every_form_agrees_with_the_oracle_on_every_table():
    # drawn formulas over models with a constant in each non-empty sort, a
    # partial function, a binary function, a ternary predicate, an empty
    # sort, an integer sort with @prime and a predicate variable: the mask
    # form, RECORD and STRICT agree with the oracle in value, flags,
    # witnesses and errors
    rng = random.Random(26)
    ms = wide_models()
    env = Environment().bind("x", "c").bind_pred("Y", ["a", "c"])
    errors = set()
    # two that the domain listing a twice gets wrong where bits compare
    # positions, not elements
    written = [parser.parse_formula(text, WIDE.signature) for text in [
        "forall y:s. exists z:s. not z = y and S(z, z)",
        "exists y:s. forall z:s. z = y or not z = eps w:s. w = y"]]
    for f in written + [wide_formula(rng, (("x", "s"),), 3) for _ in range(400)]:
        for m in ms:
            want = result(eval_oracle.eval_formula, m, f, env)
            assert outcome(lambda: truth(m, f, env)) == \
                reference(m, f, env), (parser.print_formula(f), m.domains)
            assert result(models.eval_formula, m, f, env) == want, \
                parser.print_formula(f)
            assert result(strict, m, f, env) == want, parser.print_formula(f)
            errors.add(want[1] if want[0] == "EvalError" else None)
    # every table the mask form reads was derived, and an empty domain and
    # a gap were met
    tags = {key.split(compiled._SEP)[0] for m in ms[:2] for key in m._derived}
    assert tags >= {"dom", "mask", "diag", "row", "col", "tuples", "bit", "map"}
    assert compiled._key("mask", "prime", "n") in ms[0]._derived
    assert "empty domain for sort e" in errors
    assert any(e and e.startswith("function f undefined") for e in errors)
    # the domain that lists a twice has no bits: every form but STRICT
    # raises on it, and STRICT runs again
    dup = ms[2]
    assert compiled._key("seq", "s") in dup._derived
    assert compiled._key("dom", "s") not in dup._derived


OVERLAP = Model(signature=Signature(frozenset({"s", "t"}), {"c": "s"}, {},
                                    {"P": ("s",), "Q": ("t",)}),
                domains={"s": ["a", "b"], "t": ["b", "c"]},
                preds={"P": frozenset({("b",)}), "Q": frozenset({("c",)})},
                consts={"c": "b"})
YS, ZT = Var("y", "s"), Var("z", "t")


@pytest.mark.parametrize("f", [
    # an element of s and one of t that are equal
    Quant(sx.EXISTS, YS, None, Quant(sx.EXISTS, ZT, None, Atom(sx.EQ, (YS, ZT)))),
    Quant(sx.EXISTS, ZT, None, Atom(sx.EQ, (Const("c"), ZT))),
    # a predicate of s on an element of t, and of t on one of s
    Quant(sx.EXISTS, ZT, None, Atom("P", (ZT,))),
    Quant(sx.FORALL, YS, None, Atom("Q", (Binder(sx.EPS, ZT, Atom("P", (ZT,))),))),
    Atom("Q", (Const("c"),)),
    # a subset of s tested on an element of t
    Quant2(sx.EXISTS2, "X", "s", Quant(sx.EXISTS, ZT, None, PredApp("X", ZT))),
])
def test_a_term_read_at_another_sort_agrees_with_the_oracle(f):
    # ill-sorted over the signature: the semantics compares elements, so
    # the mask form either reads the element's bit over its own sort or
    # leaves the call to STRICT
    assert_agrees(OVERLAP, f)
    want = result(eval_oracle.eval_formula, OVERLAP, f)
    assert result(models.eval_formula, OVERLAP, f) == want
    assert result(strict, OVERLAP, f) == want
