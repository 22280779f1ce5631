import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epskernel import generators as gen
from epskernel import kernel, models, parser
from epskernel import syntax as sx
from epskernel.parser import ParseError, parse_formula, parse_model, \
    parse_proof_script, parse_signature, parse_term, print_formula, print_term
from epskernel.syntax import Atom, Binder, Const, Generic, Implies, Or, \
    Quant, Var, alpha_eq

SIG = gen.SIG_FULL


def test_round_trip_corpus():
    rng = random.Random(20260825)
    for _ in range(1000):
        f = gen.random_closed_formula(rng, SIG, rng.randrange(1, 5), stars=True)
        assert alpha_eq(f, parse_formula(print_formula(f), SIG)), print_formula(f)


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_fuzz_does_not_crash(text):
    try:
        parse_formula(text, SIG)
    except ParseError:
        pass


def test_precedence():
    f = parse_formula("not P(c) and P(c) or P(c) implies P(c)", SIG)
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    g = parse_formula("P(c) implies P(c) implies P(c)", SIG)
    assert isinstance(g.right, Implies)  # right associative


def test_restricted_quantifier():
    f = parse_formula("forall x:s (P(x)). Q(x)", SIG)
    assert isinstance(f, Quant) and f.restriction is not None
    assert alpha_eq(f, parse_formula(print_formula(f), SIG))


def test_most_modes():
    assert parse_formula("moststrict x:s. P(x)", SIG).mode == "strict"
    assert parse_formula("mostweak x:s. P(x)", SIG).mode == "weak"
    assert parse_formula("most x:s. P(x)", SIG).mode is None


def test_bare_binder_term():
    t = parse_formula("eps x:s. P(x)", SIG)
    assert isinstance(t, Binder) and t.kind == sx.EPS


def test_generic_terms():
    f = parse_formula("P(most:s)", SIG)
    assert isinstance(f.args[0], Generic)
    g = parse_formula("P(most:s(x:s. Q(x)))", SIG)
    assert alpha_eq(g, parse_formula(print_formula(g), SIG))


def test_equality_infix():
    f = parse_formula("c = c", SIG)
    assert isinstance(f, Atom) and f.pred == sx.EQ


def test_comments_and_diagnostics():
    with pytest.raises(ParseError) as ei:
        parse_formula("forall x:s (", SIG)
    assert ei.value.diagnostics
    with pytest.raises(ParseError):
        parse_formula("P(c) and", SIG)
    with pytest.raises(ParseError):
        parse_formula("unknownpred(c)", SIG)


def test_ill_sorted_rejected():
    with pytest.raises(ParseError):
        parse_formula("P(d)", SIG)  # d : t, P wants s


def test_parse_term_env():
    t = parse_term("f(x)", SIG, {"x": "s"})
    assert sx.term_sort(t, SIG) == "t"


def test_parse_signature():
    sig = parse_signature("""
# a comment
sort s
sort t
const c : s
fun f : s -> t
pred R : s, t
""")
    assert sig.sorts == frozenset({"s", "t"})
    assert sig.functions["f"] == (("s",), "t")
    assert sig.predicates["R"] == ("s", "t")


def test_parse_model_full():
    m = parse_model("""
sort s = {a, b, c}
pred P : s = {a, c}
const k : s = b
fun g : s -> s = {a: b, b: c, c: a}
threshold most = 0.6
threshold many = 0.3
mode majority = weak
""")
    assert tuple(m.domain("s")) == ("a", "b", "c")
    assert m.pred_holds("P", ("a",)) and not m.pred_holds("P", ("b",))
    assert m.most_threshold == Fraction(3, 5)
    assert m.many_threshold == Fraction(3, 10)
    assert m.majority_mode == "weak"


def test_parse_model_density():
    m = parse_model("sort nat = int\npred prime : nat = @prime\n"
                    "measure nat = density(100)")
    assert m.signature.integer_sort == "nat"
    assert m.pred_holds("prime", (7,)) and not m.pred_holds("prime", (8,))


def test_parse_model_errors():
    with pytest.raises(ParseError):
        parse_model("sort s = {a}\npred P : s = {zzz}")
    with pytest.raises(ParseError):
        parse_model("pred P : s = {}")


def test_parse_proof_script(fixtures):
    sig = parse_signature((fixtures / "base.sig").read_text())
    tree = parse_proof_script((fixtures / "exists-intro.proof").read_text(), sig)
    assert tree.rule == "exists-i"
    assert tree.premises[0].rule == "hyp"
    assert tree.witness[0] == "x" and tree.witness[1] == Const("c")


def test_proof_script_var_declaration(fixtures):
    sig = parse_signature((fixtures / "base.sig").read_text())
    tree = parse_proof_script(
        (fixtures / "bad-eigenvariable.proof").read_text(), sig)
    assert tree.eigen == "x0"
    assert Var("x0", "s") in sx.free_vars(tree.sequent.hypotheses[1])


def test_proof_script_reference_errors(fixtures):
    sig = parse_signature((fixtures / "base.sig").read_text())
    with pytest.raises(ParseError):
        parse_proof_script("1. P(c) |- P(c) ; imp-e(1, 2)", sig)  # forward
    with pytest.raises(ParseError):
        parse_proof_script("1. P(c) |- P(c) ; hyp\n1. P(c) |- P(c) ; hyp", sig)
    with pytest.raises(ParseError):
        parse_proof_script("1. P(c) |- P(c) ; no-such-rule", sig)


def test_model_diagnostics_name_their_line():
    text = ("sort s = {a, b}\n"
            "\n"
            "pred P : s = {a}\n"
            "const c : s = zz\n"
            "pred Q : s = {zzz}\n")
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert sorted(str(d) for d in e.value.diagnostics) == [
        "error:4:1: constant c = zz not in sort s",
        "error:5:1: element zzz of predicate Q not in sort s"]
    with pytest.raises(ParseError) as e:
        parse_model("# header\nsort n = int\npred R : t = {}\nconst d : t = a\n")
    assert sorted(str(d) for d in e.value.diagnostics) == [
        "error:2:1: integer sort n needs 'measure n = density(N)'",
        "error:3:1: predicate R over unknown sort t",
        "error:4:1: constant d of unknown sort t"]


@pytest.mark.parametrize("text, diagnostic", [
    ("sort nat = int\npred prime : nat = @prime\nmeasure nat = density(0)",
     "error:3:1: bad density bound"),
    ("sort nat = int\npred prime : nat = @prime\nmeasure nat = density(-5)",
     "error:3:1: bad density bound"),
    ("sort nat = int\npred q : nat = @square\nmeasure nat = density(10)",
     "error:2:1: unknown builtin predicate @square"),
    ("sort s = {a, b}\npred prime : s = @prime",
     "error:2:1: builtin @prime needs one argument of an integer sort"),
    ("sort nat = int\npred p : nat, nat = @even\nmeasure nat = density(10)",
     "error:2:1: builtin @even needs one argument of an integer sort"),
])
def test_bad_builtin_declarations_are_located(text, diagnostic):
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert diagnostic in [str(d) for d in e.value.diagnostics]


def test_integer_sort_is_a_range():
    # an integer sort's domain is never materialised per element
    start = time.perf_counter()
    m = parse_model("sort nat = int\npred prime : nat = @prime\n"
                    "measure nat = density(100000000)")
    assert time.perf_counter() - start < 1
    assert m.domain("nat") == range(1, 10 ** 8 + 1)
