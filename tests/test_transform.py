import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from epskernel import generators as gen
from epskernel import models, parser, transform
from epskernel import syntax as sx
from epskernel.syntax import Atom, And, Implies, Not, Or, PredApp, Quant, \
    Quant2, Signature, Var, alpha_eq

SIG = gen.SIG_UNARY


def fparse(text, sig=SIG):
    return parser.parse_formula(text, sig)


def test_frege_embed_restricted_forms():
    f = fparse("forall x:s (P(x)). Q(x)")
    out = transform.frege_embed(f)
    assert alpha_eq(out.formula, fparse("forall x:s. (P(x) implies Q(x))"))
    assert out.tags == ()
    g = fparse("exists x:s (P(x)). Q(x)")
    assert alpha_eq(transform.frege_embed(g).formula,
                    fparse("exists x:s. (P(x) and Q(x))"))


def test_frege_embed_tags_most():
    out = transform.frege_embed(fparse("most x:s (P(x)). Q(x)"))
    assert transform.TAG_NOT_FREGE_REDUCIBLE in out.tags
    assert isinstance(out.formula, Quant) and out.formula.kind == sx.MOST


def test_frege_unembed_round_trip():
    f = fparse("forall x:s (P(x)). Q(x)")
    there = transform.frege_embed(f).formula
    back = transform.frege_unembed(there).formula
    assert alpha_eq(back, f)


def test_frege_embed_preserves_truth():
    fs = [fparse("forall x:s (P(x)). Q(x)"),
          fparse("exists x:s (P(x)). Q(x)"),
          fparse("not forall x:s (Q(x)). P(x)")]
    for f in fs:
        g = transform.frege_embed(f).formula
        for m in models.enumerate_models(SIG, 3):
            assert models.truth(m, f) == models.truth(m, g)


def test_epsilon_embed_shapes():
    f = fparse("exists x:s. P(x)")
    e = transform.epsilon_embed(f)
    assert alpha_eq(e, fparse("P(eps x:s. P(x))"))
    g = fparse("forall x:s. P(x)")
    assert alpha_eq(transform.epsilon_embed(g),
                    fparse("P(eps x:s. not P(x))"))
    assert alpha_eq(transform.epsilon_embed(g, use_tau=True),
                    fparse("P(tau x:s. P(x))"))


def test_epsilon_embed_quantifier_free():
    rng = random.Random(2)
    for _ in range(30):
        f = gen.random_closed_formula(rng, SIG, 3)
        assert transform.quantifier_free(transform.epsilon_embed(f))


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_epsilon_embed_preserves_truth(seed):
    rng = random.Random(seed)
    f = gen.random_closed_formula(rng, SIG, 3)
    e = transform.epsilon_embed(f)
    for m in models.enumerate_models(SIG, 3):
        assert models.truth(m, f) == models.truth(m, e)


def test_epsilon_embed_rejects_most_and_stars():
    for text in ["most x:s. P(x)", "forall* x:s. P(x)", "exists* x:s. P(x)"]:
        with pytest.raises(transform.TransformError):
            transform.epsilon_embed(fparse(text))


def test_concept_round_trip_truth():
    sig = Signature(frozenset({"s"}), {}, {}, {"P": ("s",)})
    for text in ["forall x:s. P(x)", "exists x:s. P(x)"]:
        f = parser.parse_formula(text, sig)
        up = transform.lift_to_concepts(f)
        down = transform.lower_from_concepts(up)
        for m in models.enumerate_models(sig, 3):
            assert models.truth(m, f) == models.truth(m, up)
            assert models.truth(m, f) == models.truth(m, down)


def test_concept_lift_without_nonemptiness_one_directional():
    sig = Signature(frozenset({"s"}), {}, {}, {"P": ("s",)})
    f = parser.parse_formula("forall x:s. P(x)", sig)
    up = transform.lift_to_concepts(f, require_nonempty=False)
    forward = backward = 0
    for m in models.enumerate_models(sig, 3):
        if models.truth(m, up) and not models.truth(m, f):
            forward += 1
        if models.truth(m, f) and not models.truth(m, up):
            backward += 1
    # lifted |- original holds, the converse has a countermodel
    assert forward == 0 and backward > 0


def test_lower_rejects_wrong_shape():
    with pytest.raises(transform.TransformError):
        transform.lower_from_concepts(fparse("P(c)", gen.SIG_UNARY))
    bad = Quant2(sx.FORALL2, "X", "s", PredApp("X", Var("x", "s")))
    with pytest.raises(transform.TransformError):
        transform.lower_from_concepts(bad)


def test_nnf_structure():
    f = fparse("not (forall x:s. (P(x) implies Q(x)))")
    g = transform.push_negation(f)

    def negations_atomic(h):
        if isinstance(h, Not):
            return isinstance(h.body, (Atom, PredApp))
        if isinstance(h, (And, Or, Implies)):
            return negations_atomic(h.left) and negations_atomic(h.right)
        if isinstance(h, Quant):
            return negations_atomic(h.body)
        if isinstance(h, Quant2):
            return negations_atomic(h.body)
        return True

    assert negations_atomic(g)
    assert isinstance(g, Quant) and g.kind == sx.EXISTS


def test_nnf_star_duals():
    f = fparse("not forall* x:s. P(x)")
    g = transform.push_negation(f)
    assert isinstance(g, Quant) and g.kind == sx.EXISTS_STAR
    assert isinstance(g.body, Not)


def test_nnf_rejects_most():
    with pytest.raises(transform.TransformError):
        transform.push_negation(fparse("not most x:s. P(x)"))


def test_epsilon_embed_reaches_into_choice_terms():
    f = fparse("P(eps x:s. exists y:s. Q(y))")
    g = transform.epsilon_embed(f)

    def quantifiers(e):
        # every Quant node, found through the dataclass fields
        if isinstance(e, tuple):
            return sum((quantifiers(x) for x in e), [])
        if not dataclasses.is_dataclass(e):
            return []
        own = [e] if isinstance(e, (Quant, Quant2)) else []
        return own + sum((quantifiers(getattr(e, fl.name))
                          for fl in dataclasses.fields(e)), [])

    assert quantifiers(f) and not quantifiers(g)
    assert transform.quantifier_free(g)
    assert not transform.quantifier_free(f)
    for m in models.enumerate_models(SIG, 3):
        assert models.truth(m, g) == models.truth(m, f)


def test_push_negation_reaches_into_choice_terms():
    f = fparse("not P(eps x:s. not (P(x) and Q(x)))")
    g = transform.push_negation(f)
    assert parser.print_formula(g) == "not P(eps x:s. not P(x) or not Q(x))"
    h = fparse("P(most:s(y:s. not (P(y) implies Q(y))))")
    assert parser.print_formula(transform.push_negation(h)) \
        == "P(most:s(y:s. P(y) and not Q(y)))"
    for m in models.enumerate_models(SIG, 3):
        assert models.truth(m, g) == models.truth(m, f)
        assert models.eval_formula(m, None, transform.push_negation(h)).value \
            == models.eval_formula(m, None, h).value
