"""Property tests for the one evaluator: truth, eval_formula and the CLI's
eval agree on drawn formulas and models, and eval_formula's value, flags,
witnesses and errors equal those of the tree walk in eval_oracle.
"""

import dataclasses
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from epskernel import models, parser
from epskernel import syntax as sx
from epskernel.cli import main
from epskernel.models import Environment, EvalError
from epskernel.syntax import (Atom, And, Binder, Const, Generic, GenericRestricted,
                              Not, Or, Quant, Var)

import eval_oracle
from test_compiled import NAMES, SIG, formulas, small_models


def result(evaluate, m, f, env=None):
    """(value, flags, witnesses), or the error raised: an EvalError by its
    message, anything else by its type."""
    try:
        r = evaluate(m, env, f)
    except EvalError as e:
        return "EvalError", str(e)
    except Exception as e:
        return type(e).__name__
    return r.value, r.flags, r.witnesses


def agree(m, f, env=None):
    """eval_formula equals the oracle, and truth gives its value or error."""
    want = result(eval_oracle.eval_formula, m, f, env)
    assert result(models.eval_formula, m, f, env) == want, \
        (parser.print_formula(f), m, env and (env.vars, env.predvars))
    got = result(lambda m, env, f: models.EvalResult(
        models.truth(m, f, env), [], []), m, f, env)
    assert got == ((want[0], [], []) if len(want) == 3 else want)
    return want


def cli_eval(model_text, formula_text, *flags):
    """Exit code and first output line of an in-process `epskernel eval`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.model")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(model_text)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["eval", "--model", path, "--witnesses", "--format",
                         "records", *flags, formula_text])
    return code, out.getvalue().split("\n", 1)[0]


def assert_cli_agrees(model_text, f, want, *flags):
    """The CLI reads the model file and the printed formula as
    parse_model/parse_formula do, then reports what eval_formula and truth
    give (`want`, when not None, for f in that model): value, flags and
    witnesses, or exit 2 on an input error."""
    text = parser.print_formula(f)
    code, line = cli_eval(model_text, text, *flags)
    m = parser.parse_model(model_text)
    if "--regime" in flags:
        m = dataclasses.replace(m, star_regime=flags[-1])
    try:
        g = parser.parse_formula(text, m.signature)
    except parser.ParseError:
        g = None
    if not sx.is_formula(g):       # a parse error, or a bare term
        assert code == 2
        return
    if g != f or want is None:
        want = agree(m, g)
    if len(want) != 3:
        assert code == 2, (text, want)
        return
    assert code == 0, text
    rec = json.loads(line)
    assert (rec["value"], rec["flags"]) == want[:2]
    assert rec["witnesses"] == [{"term": t, "element": str(e)}
                                for t, e in want[2]]


def render(m):
    """Model file text for a small model of SIG.  A nullary predicate has
    no file syntax for its one tuple, so Z is always written empty."""
    lines = ["sort %s = {%s}" % (s, ", ".join(d)) for s, d in m.domains.items()]
    for p, ext in sorted(m.preds.items()):
        sorts = SIG.predicates[p]
        elems = [t[0] if len(t) == 1 else "(%s)" % ", ".join(t)
                 for t in sorted(ext) if sorts]
        lines.append("pred %s : %s = {%s}" % (p, ", ".join(sorts), ", ".join(elems)))
    lines += ["const %s : %s = %s" % (c, SIG.constants[c], e)
              for c, e in m.consts.items()]
    for fn, table in m.funcs.items():
        args, res = SIG.functions[fn]
        lines.append("fun %s : %s -> %s = {%s}" % (fn, ", ".join(args), res, ", ".join(
            "%s: %s" % (", ".join(k), v) for k, v in table.items())))
    lines += ["threshold most = %s" % m.most_threshold,
              "threshold many = %s" % m.many_threshold,
              "mode majority = %s" % m.majority_mode]
    return "\n".join(lines) + "\n"


@given(formulas(), small_models())
@settings(max_examples=150, deadline=None)
def test_small_models_match_the_oracle_and_the_cli(f, m):
    agree(m, f)
    # the file has no syntax for Z's one tuple, so the CLI's model may differ
    assert_cli_agrees(render(m), f, None, "--regime", m.star_regime)


@given(formulas((("x", "s"),), 3, ("X",)), small_models(), st.data())
@settings(max_examples=150, deadline=None)
def test_environments_match_the_oracle(f, m, data):
    # x and X may be bound or left free; the exclusion set may hold
    # elements of either sort
    env = Environment()
    if data.draw(st.booleans()):
        env = env.bind("x", data.draw(st.sampled_from(m.domains["s"])))
    if data.draw(st.booleans()):
        env = env.bind_pred("X", data.draw(
            st.lists(st.sampled_from(m.domains["s"]), unique=True)))
    env = env.exclude(data.draw(st.lists(
        st.sampled_from(m.domains["s"] + m.domains["t"]), unique=True)))
    agree(m, f, env)


# -- density models: every builtin over an integer sort -------------------

BUILTINS = ("p", "e", "o")
DENSITY = ("sort nat = int\npred p : nat = @prime\npred e : nat = @even\n"
           "pred o : nat = @odd\nmeasure nat = density(%d)\n")


@st.composite
def nat_terms(draw, scope, depth):
    kinds = (["var"] if scope else []) + (["choice"] if depth else []) or ["generic"]
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return Var(draw(st.sampled_from(scope)), "nat")
    if kind == "generic":
        return Generic(draw(st.sampled_from(["most", "many"])), "nat")
    v = draw(st.sampled_from(NAMES))
    return Binder(draw(st.sampled_from(sx.BINDER_KINDS)), Var(v, "nat"),
                  draw(nat_formulas(scope + (v,), depth - 1)))


@st.composite
def nat_formulas(draw, scope=(), depth=2):
    # a generic atom counts over the domain like a quantifier, so it is no
    # leaf: two binders deep, the oracle's work stays quadratic in n
    kinds = ["atom", "atom", "eq"]
    if depth:
        kinds += ["generic-atom", "not", "and", "or", "quant", "quant"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return Atom(draw(st.sampled_from(BUILTINS)), (draw(nat_terms(scope, depth)),))
    if kind == "eq":
        return Atom(sx.EQ, (draw(nat_terms(scope, depth)),
                            draw(nat_terms(scope, depth))))
    if kind == "generic-atom":
        g = draw(st.sampled_from(["most", "many"]))
        if draw(st.booleans()):
            return Atom(draw(st.sampled_from(BUILTINS)), (Generic(g, "nat"),))
        v = draw(st.sampled_from(NAMES))
        restr = draw(nat_formulas(scope + (v,), depth - 1))
        return Atom(draw(st.sampled_from(BUILTINS)),
                    (GenericRestricted(g, "nat", Var(v, "nat"), restr),))
    if kind == "not":
        return Not(draw(nat_formulas(scope, depth - 1)))
    if kind in ("and", "or"):
        return (And if kind == "and" else Or)(draw(nat_formulas(scope, depth - 1)),
                                              draw(nat_formulas(scope, depth - 1)))
    q = draw(st.sampled_from(sx.QUANT_KINDS))
    v = draw(st.sampled_from(NAMES))
    inner = scope + (v,)
    restr = draw(st.one_of(st.none(), nat_formulas(inner, depth - 1)))
    mode = draw(st.sampled_from([None, "strict", "weak"])) if q == sx.MOST else None
    return Quant(q, Var(v, "nat"), restr, draw(nat_formulas(inner, depth - 1)), mode)


NX, NY = Var("x", "nat"), Var("y", "nat")


@given(nat_formulas(), st.integers(1, 300), st.sampled_from(["A", "B"]))
@example(Quant(sx.MOST, NX, None, Not(Atom("p", (NX,)))), 300, "B")   # 289 = 17**2
@example(Quant(sx.MOST, NX, Atom("o", (NX,)), Atom("e", (NX,))), 299, "B")
@example(Quant(sx.FORALL, NX, Atom(sx.EQ, (NX, Binder(sx.EPS, NY, Atom("p", (NY,))))),
               Atom("e", (NX,))), 10, "B")
@settings(max_examples=40, deadline=None)
def test_density_models_match_the_oracle_and_the_cli(f, n, regime):
    m = dataclasses.replace(parser.parse_model(DENSITY % n), star_regime=regime)
    assert_cli_agrees(DENSITY % n, f, agree(m, f), "--regime", regime)


def test_copies_of_a_choice_term_under_free_and_bound_names():
    # eps y. R(x, y) reads the environment's x in the first conjunct and
    # the quantifier's x in the second: the copies must not share a pick
    m = parser.parse_model("sort s = {a, b}\nconst c : s = a\n"
                           "pred R : s, s = {(a, b), (b, a)}\npred P : s = {b}")
    x, y = Var("x", "s"), Var("y", "s")
    t = Binder(sx.EPS, y, Atom("R", (x, y)))
    f = And(Atom("R", (Const("c"), t)),
            Quant(sx.FORALL, x, None, Atom("P", (t,))))
    for elem in ("a", "b"):
        agree(m, f, Environment().bind("x", elem))


def test_eta_reads_the_exclusion_set_in_every_form():
    m = parser.parse_model("sort s = {a, b}\npred P : s = {a, b}\npred Q : s = {b}")
    f = parser.parse_formula("Q(eta x:s. P(x))", m.signature)
    assert agree(m, f, Environment().exclude({"a"}))[0] is True
    assert agree(m, f)[0] is False
