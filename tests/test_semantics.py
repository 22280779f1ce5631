import pytest

from epskernel import models, parser, semantics
from epskernel import syntax as sx
from epskernel.semantics import (DiscourseState, LexiconError, SemanticsError,
                                 build_logical_form, parse_fragment,
                                 parse_lexicon, resolve_pronoun)
from epskernel.syntax import Atom, And, Binder, Not, Quant, Var, alpha_eq

LEX_TEXT = """
noun dog : dog
verb bite : bite(dog)
noun man : man
verb enter : enter(man)
verb whistle : whistle(man)
pron he : man
noun student : student
verb passed-algebra : passedAlgebra(student)
verb passed-logic : passedLogic(student)
noun planet : planet
tverb orbit : orbit(planet, planet)
"""


@pytest.fixture
def lex():
    return parse_lexicon(LEX_TEXT)


def form(sentence, lex, presuppose=False):
    clauses = parse_fragment(sentence, lex)
    return build_logical_form(clauses, lex, presuppose=presuppose)


def test_lexicon_parsing(lex):
    assert lex.nouns["dog"] == "dog"
    assert lex.iverbs["whistle"] == "whistle"
    assert lex.tverbs["orbit"] == "orbit"
    assert lex.pronouns["he"] == "man"
    # nouns double as unary predicates
    assert lex.signature.predicates["man"] == ("man",)


def test_lexicon_errors():
    with pytest.raises(LexiconError):
        parse_lexicon("noun dog")
    with pytest.raises(LexiconError):
        parse_lexicon("verb bite : bite")
    with pytest.raises(LexiconError):
        parse_lexicon("widget dog : dog")


def test_golden_most_dogs_bite(lex, golden):
    f, _ = form("most dogs bite", lex)
    want = parser.parse_formula(
        (golden / "most-dogs-bite.golden").read_text().strip(), lex.signature)
    assert alpha_eq(f, want)


def test_golden_indefinite_and_pronoun(lex, golden):
    f, state = form("a man enters . he whistles", lex)
    want = parser.parse_formula(
        (golden / "a-man-enters-he-whistles.golden").read_text().strip(),
        lex.signature)
    assert alpha_eq(f, want)
    # both clauses talk about one referent: the same eta term
    assert isinstance(f, And)
    assert f.left.args == f.right.args
    assert len(state.referents) == 1


def test_golden_most_students(lex, golden):
    f, state = form("most students that passed-algebra passed-logic", lex)
    want = parser.parse_formula(
        (golden / "most-students.golden").read_text().strip(), lex.signature)
    assert alpha_eq(f, want)
    pres = parser.parse_formula(
        (golden / "most-students.presupposes").read_text().strip(),
        lex.signature)
    assert len(state.presuppositions) == 1
    assert alpha_eq(state.presuppositions[0], pres)


def test_determinism(lex):
    a, _ = form("a man enters . he whistles", lex)
    b, _ = form("a man enters . he whistles", lex)
    assert a == b


def test_universal_matches_classical_forall(lex):
    f, _ = form("every man whistles", lex)
    x = Var("x", "man")
    classical = Quant(sx.FORALL, x, None, Atom("whistle", (x,)))
    m1 = parser.parse_model("sort man = {m1,m2}\npred whistle : man = {m1,m2}\n"
                            "pred man : man = {m1,m2}\npred enter : man = {}")
    m2 = parser.parse_model("sort man = {m1,m2}\npred whistle : man = {m1}\n"
                            "pred man : man = {m1,m2}\npred enter : man = {}")
    for m in (m1, m2):
        assert models.truth(m, f) == models.truth(m, classical)


def test_no_and_not_every(lex):
    f, _ = form("no man whistles", lex)
    assert isinstance(f, Not) and isinstance(f.body, Quant)
    assert f.body.kind == sx.EXISTS
    g, _ = form("not-every man whistles", lex)
    assert isinstance(g, Not)


def test_definite_reuses_referent(lex):
    f, state = form("a man enters . the man whistles", lex)
    assert f.left.args == f.right.args
    assert len(state.referents) == 1


def test_definite_without_antecedent_uses_eps(lex):
    f, _ = form("the man whistles", lex)
    term = f.args[0]
    assert isinstance(term, Binder) and term.kind == sx.EPS


def test_epsilon_presupposition_flag(lex):
    f, _ = form("a man enters", lex, presuppose=True)
    assert isinstance(f, And)
    assert f.right.pred == "man"


def test_transitive_verb(lex):
    f, _ = form("a planet orbits a planet", lex)
    assert f.pred == "orbit" and len(f.args) == 2
    # subject and object referents are distinct entries
    _, state = form("a planet orbits a planet", lex)
    assert len(state.referents) == 2


def test_pronoun_errors(lex):
    with pytest.raises(SemanticsError):
        form("he whistles", lex)


def test_sort_constrained_pronoun(lex):
    _, state = form("a dog bites", lex)
    with pytest.raises(SemanticsError):
        resolve_pronoun(state, "man")
    term, _ = resolve_pronoun(state, "dog")
    assert isinstance(term, Binder)


def test_parse_errors(lex):
    with pytest.raises(SemanticsError):
        form("blorp man whistles", lex)
    with pytest.raises(SemanticsError):
        form("every man blorps", lex)
    with pytest.raises(SemanticsError):
        form("", lex)


def test_universal_with_relative_clause(lex):
    f, _ = form("every student that passed-algebra passed-logic", lex)
    x = Var("x", "student")
    classical = Quant(sx.FORALL, x, None,
                      sx.Implies(Atom("passedAlgebra", (x,)),
                                 Atom("passedLogic", (x,))))
    m1 = parser.parse_model(
        "sort student = {s1,s2}\npred student : student = {s1,s2}\n"
        "pred passedAlgebra : student = {s1}\n"
        "pred passedLogic : student = {s1}\n")
    m2 = parser.parse_model(
        "sort student = {s1,s2}\npred student : student = {s1,s2}\n"
        "pred passedAlgebra : student = {s1,s2}\n"
        "pred passedLogic : student = {s1}\n")
    for m in (m1, m2):
        assert models.truth(m, f) == models.truth(m, classical)
    g, _ = form("no student that passed-algebra passed-logic", lex)
    assert isinstance(g, Not)


def test_plural_stripping(lex):
    f, _ = form("most dogs bite", lex)
    g, _ = form("most dog bite", lex)
    assert alpha_eq(f, g)


def test_a_relative_clause_restricts_the_choice_term(lex):
    for det, kind in (("a", "eta"), ("the", "eps")):
        f, _ = form("%s man that whistles enters" % det, lex)
        assert parser.print_formula(f) == (
            "enter(%s x:man. man(x) and whistle(x))" % kind)


PLANETS = parse_lexicon("""
noun planet : planet
noun dog : dog
verb shine : shine(planet)
verb bite : bite(dog)
tverb orbit : orbit(planet, planet)
pron it : planet
""")


def test_a_pronoun_object_takes_the_referent_of_its_sort():
    # `it` passes over the more salient dog to the shining planet
    f, state = form("a planet that shines shines . a dog bites . "
                    "a planet orbits it", PLANETS)
    shining = "eta x:planet. planet(x) and shine(x)"
    assert parser.print_formula(f.right) == (
        "orbit(eta x:planet. planet(x), %s)" % shining)
    assert [parser.print_term(t) for t, _, _ in state.referents] == [
        "eta x:planet. planet(x)", shining, "eta x:dog. dog(x)"]


@pytest.mark.parametrize("sentence, message", [
    ("a planet orbits", "transitive verb 'orbit' needs an object"),
    ("a planet shines a planet", "verb 'shine' does not take an object"),
    ("every planet that orbits a planet shines",
     "relative clauses with objects are not supported in restrictions"),
])
def test_a_verb_and_its_object_must_agree(sentence, message):
    with pytest.raises(SemanticsError) as e:
        form(sentence, PLANETS)
    assert str(e.value) == message
