import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epskernel import generators as gen
from epskernel import models, parser, transform
from epskernel import syntax as sx
from epskernel.models import (Environment, enumerate_models, eval_formula,
                              eval_term, truth)
from epskernel.syntax import Atom, And, Binder, Const, Implies, Not, Or, \
    Quant, Signature, Var

import eval_oracle
from test_acceptance import _prefix_family

M4 = parser.parse_model("sort s = {a,b,c,d}\npred P : s = {b,c}\npred Q : s = {}")
SIG1 = Signature(frozenset({"s"}), {}, {}, {"P": ("s",)})
X = Var("x", "s")
PX = Atom("P", (X,))


def fparse(text, m=M4):
    return parser.parse_formula(text, m.signature)


# -- choice policies --------------------------------------------------------

def test_eps_picks_least_satisfier():
    r = eval_term(M4, None, Binder(sx.EPS, X, PX))
    assert r.value == "b"


def test_eps_falls_back_to_least_element():
    r = eval_term(M4, None, Binder(sx.EPS, X, Atom("Q", (X,))))
    assert r.value == "a"


def test_tau_picks_least_falsifier():
    assert eval_term(M4, None, Binder(sx.TAU, X, PX)).value == "a"
    # no falsifier: least element
    m = parser.parse_model("sort s = {a,b}\npred P : s = {a,b}")
    x = Var("x", "s")
    assert eval_term(m, None, Binder(sx.TAU, x, Atom("P", (x,)))).value == "a"


def test_iota_unique_and_undetermined():
    m = parser.parse_model("sort s = {a,b,c}\npred P : s = {b}")
    x = Var("x", "s")
    r = eval_term(m, None, Binder(sx.IOTA, x, Atom("P", (x,))))
    assert r.value == "b" and models.FLAG_IOTA not in r.flags
    r2 = eval_term(M4, None, Binder(sx.IOTA, X, PX))  # two satisfiers
    assert models.FLAG_IOTA in r2.flags
    r3 = eval_term(M4, None, Binder(sx.IOTA, X, Atom("Q", (X,))))  # none
    assert models.FLAG_IOTA in r3.flags


def test_eta_respects_exclusion():
    env = Environment().exclude({"b"})
    r = eval_term(M4, env, Binder(sx.ETA, X, PX))
    assert r.value == "c"
    # everything excluded: eta falls back to the eps choice
    env2 = Environment().exclude({"b", "c"})
    assert eval_term(M4, env2, Binder(sx.ETA, X, PX)).value == "b"


def test_evaluation_deterministic():
    f = fparse("P(eps x:s. P(x)) and exists y:s. Q(y)")
    assert [eval_formula(M4, None, f).value for _ in range(3)] \
        == [eval_formula(M4, None, f).value] * 3


# -- most and measures ------------------------------------------------------

def test_most_strict_vs_weak():
    # P holds of 2 of 4: ratio exactly 1/2
    assert not truth(M4, fparse("moststrict x:s. P(x)"))
    assert truth(M4, fparse("mostweak x:s. P(x)"))
    # unannotated "most" follows the model's majority mode
    assert not truth(M4, fparse("most x:s. P(x)"))
    weak = dataclasses.replace(M4, majority_mode="weak")
    assert truth(weak, fparse("most x:s. P(x)"))


def test_most_threshold_override():
    m = dataclasses.replace(M4, most_threshold=Fraction(2, 5))
    assert truth(m, fparse("moststrict x:s. P(x)", m))


def test_most_empty_restriction_flag():
    f = fparse("most x:s (Q(x)). P(x)")
    r = eval_formula(M4, None, f)
    assert r.value is False
    assert models.FLAG_EMPTY_RESTRICTION in r.flags


def test_most_ratio_flag():
    r = eval_formula(M4, None, fparse("most x:s. P(x)"))
    assert any(fl.startswith("most-ratio") for fl in r.flags)


def test_generic_terms_evaluate_as_most():
    m = parser.parse_model("sort dog = {d1,d2,d3}\npred bite : dog = {d1,d2}\n"
                           "pred small : dog = {d2,d3}")
    sig = m.signature
    assert truth(m, parser.parse_formula("bite(most:dog)", sig)) \
        == truth(m, parser.parse_formula("most x:dog. bite(x)", sig))
    fr = parser.parse_formula("bite(most:dog(x:dog. small(x)))", sig)
    qr = parser.parse_formula("most x:dog (small(x)). bite(x)", sig)
    assert truth(m, fr) == truth(m, qr)


def test_density_measure():
    m = parser.parse_model("sort nat = int\npred prime : nat = @prime\n"
                           "measure nat = density(100)")
    # 25 primes below 100
    r = eval_formula(m, None, parser.parse_formula("most x:nat. not prime(x)",
                                                   m.signature))
    assert r.value is True
    assert "most-ratio 3/4" in r.flags


# -- star regimes -----------------------------------------------------------

def test_star_regimes():
    f1 = fparse("forall* x:s. P(x)")
    f2 = fparse("exists* x:s. P(x)")
    b = dataclasses.replace(M4, star_regime="B")
    a = dataclasses.replace(M4, star_regime="A")
    # ratio 1/2: weak forall* holds, strict exists* does not (regime B)
    assert truth(b, f1) and not truth(b, f2)
    # regime A collapses to the classical readings
    assert not truth(a, f1) and truth(a, f2)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_regime_b_star_duality(seed):
    # not forall* == exists* not, via negation pushing
    rng = random.Random(seed)
    f = gen.random_closed_formula(rng, gen.SIG_UNARY, 2, stars=True)
    try:
        nnf = transform.push_negation(Not(f))
    except transform.TransformError:
        return
    for m in enumerate_models(gen.SIG_UNARY, 3):
        assert truth(m, Not(f)) == truth(m, nnf)


# -- square of oppositions --------------------------------------------------

def test_square_with_existential_import():
    m = parser.parse_model("sort s = {a,b}\npred A : s = {}\npred B : s = {a}")
    plain = models.check_square(m, "A", "B")
    # empty restriction: All true, Some false, so subalternation fails
    assert plain.corners["All"] and not plain.corners["Some"]
    assert not plain.relations["subalternation-A-I"]
    imported = models.check_square(m, "A", "B", existential_import=True)
    assert not imported.corners["All"]
    assert imported.relations["subalternation-A-I"]
    assert imported.relations["subalternation-E-O"]


def test_square_contradictories_always_hold():
    for m in enumerate_models(Signature(frozenset({"s"}), {}, {},
                                        {"A": ("s",), "B": ("s",)}), 3):
        r = models.check_square(m, "A", "B")
        assert r.relations["contradictory-A-O"]
        assert r.relations["contradictory-E-I"]


# -- quantifier classification ----------------------------------------------

def test_classification_profiles():
    want = {
        "exists": (True, "upward", "upward", True, True),
        "no": (True, "downward", "downward", True, True),
        "forall": (True, "downward", "upward", False, False),
        "most": (True, "none", "upward", False, False),
    }
    for q, (cons, left, right, symm, inter) in want.items():
        p = models.classify_quantifier(q, 4)
        got = (p.conservative, p.left_monotone, p.right_monotone,
               p.symmetric, p.intersective)
        assert got == (cons, left, right, symm, inter), (q, got)


def test_classification_respects_theta():
    # with theta = 0, weak "most" degenerates to truth on any nonempty
    # restriction, which is still conservative
    p = models.classify_quantifier("most", 3, theta=Fraction(0), mode="weak")
    assert p.conservative


THETAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
          Fraction(1))


def assert_triangle_matches_subset_sweep(q, theta, mode):
    test = models.DETERMINERS[q]

    def fn(dom, a, b):
        return test(len(a & b), len(a), theta, mode)
    fn.__name__ = q
    for size in range(1, 6):
        assert models.classify_quantifier(q, size, theta, mode) \
            == models.classify_quantifier(fn, size), (theta, mode, size)


@pytest.mark.parametrize("q", list(models.DETERMINERS))
def test_number_triangle_matches_the_subset_sweep(q):
    for theta in THETAS:
        for mode in ("strict", "weak"):
            assert_triangle_matches_subset_sweep(q, theta, mode)


@pytest.mark.parametrize("test", [
    lambda hits, total, theta, mode: 2 * hits < total,      # fewer than half
    lambda hits, total, theta, mode: total - hits == 1,     # all but one
    lambda hits, total, theta, mode: hits % 2 == 1,         # an odd number
])
def test_number_triangle_matches_the_subset_sweep_off_the_table(
        test, monkeypatch):
    # count predicates whose profiles no named determiner has, so that
    # every move of the triangle sweep decides some property
    monkeypatch.setitem(models.DETERMINERS, "q", test)
    assert_triangle_matches_subset_sweep("q", Fraction(1, 2), "strict")


def test_classification_errors():
    with pytest.raises(ValueError, match="size bound"):
        models.classify_quantifier("most", 0)
    with pytest.raises(ValueError, match="unknown quantifier"):
        models.classify_quantifier("several", 3)


# -- enumeration ------------------------------------------------------------

def test_enumeration_counts():
    assert len(list(enumerate_models(SIG1, 2))) == 6
    sig2 = Signature(frozenset({"s"}), {}, {}, {"P": ("s",), "Q": ("s",)})
    assert len(list(enumerate_models(sig2, 2))) == 20
    assert models.count_models(sig2, 2) == 20


def test_enumeration_budget():
    sig = Signature(frozenset({"s"}), {}, {}, {"R": ("s", "s", "s")})
    with pytest.raises(models.EnumerationBound):
        list(enumerate_models(sig, 4, budget=1000))


def test_enumeration_deterministic_order():
    a = [tuple(sorted(m.preds["P"])) for m in enumerate_models(SIG1, 2)]
    b = [tuple(sorted(m.preds["P"])) for m in enumerate_models(SIG1, 2)]
    assert a == b


# -- semantic invariants ----------------------------------------------------

@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_critical_equivalences(seed):
    # F(eps x. F) == exists x. F and F(tau x. F) == forall x. F
    rng = random.Random(seed)
    x = Var("x", "s")
    body = gen.random_formula(rng, gen.SIG_UNARY, 2, {"x": "s"})
    eps_form = sx.substitute(body, x, Binder(sx.EPS, x, body))
    tau_form = sx.substitute(body, x, Binder(sx.TAU, x, body))
    for m in enumerate_models(gen.SIG_UNARY, 3):
        assert truth(m, eps_form) == truth(m, Quant(sx.EXISTS, x, None, body))
        assert truth(m, tau_form) == truth(m, Quant(sx.FORALL, x, None, body))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_most_conservativity(seed):
    # most x (A). B == most x (A). (A and B)
    rng = random.Random(seed)
    x = Var("x", "s")
    a = gen.random_formula(rng, gen.SIG_UNARY, 1, {"x": "s"})
    b = gen.random_formula(rng, gen.SIG_UNARY, 1, {"x": "s"})
    f = Quant(sx.MOST, x, a, b)
    g = Quant(sx.MOST, x, a, And(a, b))
    for m in enumerate_models(gen.SIG_UNARY, 3):
        assert truth(m, f) == truth(m, g)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_substitution_lemma(seed):
    # eval(F[x := t]) == eval(F) with x bound to eval(t)
    rng = random.Random(seed)
    x = Var("x", "s")
    f = gen.random_formula(rng, gen.SIG_UNARY, 2, {"x": "s"})
    t = gen.random_term(rng, gen.SIG_UNARY, "s", {}, 1)
    g = sx.substitute(f, x, t)
    for m in enumerate_models(gen.SIG_UNARY, 3):
        elem = eval_term(m, None, t).value
        env = Environment().bind("x", elem)
        assert truth(m, g) == truth(m, f, env)


def test_iota_agrees_with_eps_when_unique():
    for m in enumerate_models(SIG1, 4):
        if sum(1 for e in m.domain("s") if m.pred_holds("P", (e,))) == 1:
            x = Var("x", "s")
            px = Atom("P", (x,))
            assert eval_term(m, None, Binder(sx.IOTA, x, px)).value \
                == eval_term(m, None, Binder(sx.EPS, x, px)).value


# -- choice cache and flags -------------------------------------------------

def test_choice_cache_regression():
    # the evaluator's caches are keyed by id(term): without the `is` check
    # on each entry, a term freed while the evaluator lives could hand its
    # id, and with it its cached choice, to a new term
    sig = Signature(frozenset({"s"}), {}, {},
                    {p: ("s",) for p in ("P", "Q", "A", "B")})
    g1 = parser.parse_formula("P(most:s(y:s. Q(eps z:s. A(z))))", sig)
    g2 = parser.parse_formula("P(most:s(y:s. Q(eps z:s. B(z))))", sig)
    both = Or(g1, g2)
    for m in enumerate_models(sig, 3):
        want = eval_formula(m, None, both).value
        assert truth(m, both) == want
        assert truth(m, g1) == eval_formula(m, None, g1).value
        assert truth(m, g2) == eval_formula(m, None, g2).value
        # the tree walk oracle, which keeps the cache
        assert eval_oracle._Evaluator(m, record=False).formula(both, Environment()) \
            == want


def test_most_ratio_flag_is_recorded_once():
    m = parser.parse_model("sort s = {a,b,c}\npred P : s = {a,b,c}")
    f = parser.parse_formula("forall y:s. forall w:s. most x:s. P(x)",
                             m.signature)
    flags = eval_formula(m, None, f).flags
    assert [fl for fl in flags if fl.startswith("most-ratio")] == ["most-ratio 1"]


def test_generic_restriction_keeps_its_own_variable(tmp_path, capsys):
    # the restriction's free x must stay the outer x, as it does in the
    # restricted-quantifier form of the same sentence
    text = "sort s = {a,b}\npred P : s = {a,b}\npred R : s, s = {(a,b),(b,a)}"
    m = parser.parse_model(text)
    f = parser.parse_formula("forall x:s. P(most:s(y:s. R(x, y)))", m.signature)
    g = parser.parse_formula("forall x:s. most z:s (R(x, z)). P(z)", m.signature)
    assert eval_formula(m, None, g).value is True
    res = eval_formula(m, None, f)
    assert res.value is True and "empty-restriction" not in res.flags
    assert truth(m, f) is True
    path = tmp_path / "capture.model"
    path.write_text(text, encoding="utf-8")
    from epskernel.cli import main
    assert main(["eval", "--model", str(path), "--expect-true",
                 "forall x:s. P(most:s(y:s. R(x, y)))"]) == 0
    assert capsys.readouterr().out.startswith(
        "forall x:s. P(most:s(y:s. R(x, y))) = true\n")


def test_choice_cache_keeps_record_mode_output(monkeypatch):
    # a cached closed choice replays the witnesses of its first evaluation
    sig, family = _prefix_family()
    embedded = [transform.epsilon_embed(f) for f in family]
    ms = list(enumerate_models(sig, 2))

    def results(evaluate):
        return [(r.value, r.flags, r.witnesses)
                for r in (evaluate(m, None, e) for e in embedded for m in ms)]

    cached = results(eval_formula)
    # the tree walk oracle with its choice cache off
    monkeypatch.setattr(eval_oracle._Evaluator, "_is_closed", lambda self, t: False)
    assert results(eval_oracle.eval_formula) == cached


def test_choice_under_a_predicate_variable_is_not_cached():
    # eps x. X(x) has no free individual variable, but picks per X
    m = parser.parse_model("sort s = {a,b}\npred P : s = {b}")
    f = parser.parse_formula("exists2 X:s. P(eps x:s. X(x))", m.signature)
    assert eval_formula(m, None, f).value is True
    assert truth(m, f) is True
