"""The operator-precedence front end against the recursive-descent reader it
replaced (tests/parser_oracle.py): the same tokens, trees and diagnostics;
inputs nested 3000 deep, which the old reader could not take; and printed
formulas, which read back as the same formula.  A text that starts with a
term is compared with the old reader's own readers: the term, sort-checked,
when it is the whole input, else the formula."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import parser_oracle as oracle
from conftest import FIXTURES
from epskernel import generators as gen
from epskernel import syntax as sx
from epskernel.kernel import check_proof
from epskernel.parser import (Diagnostic, ParseError, SourceSpan, _span,
                              parse_formula, parse_proof_script, parse_signature,
                              print_formula, print_term, tokenize)
from epskernel.syntax import And, Atom, Binder, Not, Quant
from test_compiled import SIG as COMPILED_SIG, formulas as compiled_formulas

DEPTH = 3000

# single characters and short runs the lexer treats specially
TEXT_PIECES = list("\t \r\n\x0b\xa0#aPx_'-09().,:;={}[]|*<>") + [
    "\r\n", "forall*", "exists*", "->", "|-", ":=", "1.5", "12", "# c\n",
    "é", "Ω", "ß", "٣", "²", "x٣", "forall", "and", " "]

FORMULA_PIECES = [
    "P(c)", "Q(x)", "R(c, f(c))", "Z", "c", "x", "d", "f(c)", "=", "and",
    "or", "not", "implies", "(", ")", "forall x:s.", "exists y:s (P(y)).",
    "most x:s.", "moststrict z:s.", "forall* x:s.", "exists* x:s (Q(x)).",
    "most:s", "many:s", "most:s(y:s. Q(y))", "most x:s", "most", "forall x",
    "forall:s", "eps x:s.", "tau y:s. P(y)", "iota x:s", "forall2 X:s.",
    "exists2 X:s.", "forall2 X", "forall2", "X(c)", "X(c, c)", ",", ".", ":",
    "s", "t", "]", "|-", ";", "1", "P", "P(", "x = c", "#", "many", "eps",
    "P(most)", "f(many x:s)"]

# formulas built by concatenating text, so that the text's grouping is
# the parser's to find: prefixes without parentheses before connectives
OPERANDS = ["P(c)", "Q(x)", "R(c, f(c))", "Z", "c = c", "x = f(c)", "most:s = c",
            "P(most:s(y:s. Q(y)))", "X(c)", "P(eps x:s. Q(x) and P(x))",
            "Q(tau y:s. P(y)) or Z"]
PREFIXES = ["not", "forall x:s.", "exists y:s (P(y) or Q(y)).", "most x:s.",
            "mostweak z:s.", "forall* x:s.", "forall2 X:s.", "exists2 X:s."]
FORMULAS = st.recursive(
    st.sampled_from(OPERANDS),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(PREFIXES), inner).map(" ".join),
        st.tuples(inner, st.sampled_from(["and", "or", "implies"]), inner)
        .map(" ".join),
        inner.map("({})".format)),
    max_leaves=8)

SCRIPT_ROWS = [
    "", "  # a comment", "var x0 : s", "var y : t", "var x0 : s extra",
    "1. P(c) |- P(c) ; hyp", "2. P(c) |- P(c) and P(c) ; and-i(1, 1)",
    "3. P(c) |- P(c) ; and-e1(2)", "2. Q(x0) |- Q(x0) ; hyp",
    "4. Q(x0) |- exists y:s. Q(y) ; exists-i(2) [y := x0]",
    "5. P(c) |- P(c) ; copy(1)", "6. |- P(c) ; hyp [eigen]",
    "6. |- P(c) ; hyp [eigen x0]", "7. P(c) |- x = c ; hyp",
    "8. P(c) |- P(c) ; and-e1(9)", "1.5. P(c) |- P(c) ; hyp",
    "x. P(c) |- P(c) ; hyp", "9. P(c) |- P(c)", "\x0b", "9 P(c)",
    "10. P(c), Q(c) |- P(c) ; hyp (1", "11. P(c) |- P(c) ; hyp [y := ]"]


def kinds_and_places(text):
    """Old and new tokens as (kind, text, line, column); the old lexer
    named '->', '|-' and ':=' apart and emitted newlines."""
    old_toks, old_diags = oracle.tokenize(text)
    old = [("sym" if t.kind in ("arrow", "turnstile", "assign") else t.kind,
            t.text, t.span.line, t.span.column)
           for t in old_toks if t.kind != "nl"]
    try:
        new = []
        for t in tokenize(text):
            span = _span(text, t)
            new.append((t[0], t[1], span.line, span.column))
        new_diags = []
    except ParseError as e:
        new_diags = e.diagnostics
    return (old if not old_diags else None, [str(d) for d in old_diags]), \
        (new if not new_diags else None, [str(d) for d in new_diags])


def outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except ParseError as e:
        return "error", [str(d) for d in e.diagnostics]


def oracle_formula(text, sig):
    """A formula, or a term that is the whole input, by the old reader's
    own readers: term() plus well_sorted, else sorted_formula()."""
    toks, diags = oracle.tokenize(text)
    if diags:
        raise ParseError(diags)
    p = oracle._P(toks, sig)
    first = p.peek()
    if p.at_ident(*oracle.BINDER_KW) or \
            p.at_ident(*oracle.GENERIC_KW) and p.peek(1).text == ":":
        t = p.term()
        if p.peek().kind == "eof":
            errs = [] if sig is None else sx.well_sorted(t, sig)
            if errs:
                span = SourceSpan(first.span.start, p.toks[p.i - 1].span.end,
                                  first.span.line, first.span.column)
                raise ParseError([Diagnostic(e, span) for e in errs])
            return t
        p = oracle._P(toks, sig)
    f = p.sorted_formula()
    p.end()
    return f


@given(st.lists(st.sampled_from(TEXT_PIECES) | st.characters(), max_size=40))
@settings(max_examples=400)
def test_tokens_and_unexpected_characters_match_the_old_lexer(pieces):
    old, new = kinds_and_places("".join(pieces))
    assert new == old


@given(FORMULAS | st.lists(st.sampled_from(FORMULA_PIECES), min_size=1,
                           max_size=12).map(" ".join),
       st.sampled_from([gen.SIG_FULL, None]))
@settings(max_examples=800)
@example("forall2 X . P(c)", None)       # a second-order keyword commits only
@example("(forall2 X . P(c))", None)     # at the start of a formula,
@example("not forall2 X . P(c)", None)   # not after an operator
@example("P(c) or forall2 X . P(c)", None)
@example("most x . P(x) and most:s = c", gen.SIG_FULL)
@example("forall x:s (P(x)). Q(x) implies P(c) or Z", gen.SIG_FULL)
@example("eps x:s. Q(zz)", gen.SIG_FULL)     # a bare term, sort-checked
@example("most:s = c and P(c)", gen.SIG_FULL)   # a leading term, then more
@example("most:s(y:s. Q(y)) = c", None)
@example("tau y:s. P(y) or Z", gen.SIG_FULL)
@example("(P(c) and Q(c)", gen.SIG_FULL)    # an open parenthesis at the end
@example("not (P(c)", gen.SIG_FULL)
@example("((P(c)) or Z", gen.SIG_FULL)
def test_formula_fragments_match_the_old_parser(text, sig):
    assert outcome(parse_formula, text, sig) == outcome(oracle_formula, text, sig)


@given(st.lists(st.sampled_from(SCRIPT_ROWS), min_size=1, max_size=8),
       st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=300)
# a formula's text read again: after a `var` line, after a '|-' in a
# comment, and on lines without '|-'
@example(["1. P(c) |- P(c) ; hyp", "var P : s", "2. P(c) |- P(c) ; hyp"], "\n")
@example(["1. P(c) # |- P(c) ; hyp", "2. P(c) |- P(c) ; hyp"], "\n")
@example(["1. c = c|- P(c) ; hyp", "2. c = cx"], "\n")
@example(["1. P(c)", "2. Q(c) and"], "\n")
# each line extends the previous hypothesis list by one formula
@example(["1. P(c) |- P(c) ; hyp", "2. P(c), Q(c) |- Q(c) ; hyp",
          "3. P(c), Q(c), P(c) and Q(c) |- P(c) and Q(c) ; hyp"], "\n")
def test_script_fragments_match_the_old_parser(rows, newline):
    sig = parse_signature((FIXTURES / "base.sig").read_text())
    text = newline.join(rows)
    assert outcome(parse_proof_script, text, sig) \
        == outcome(oracle.parse_proof_script, text, sig)


def script(tree):
    """Script text for a proof tree: a `var` line per free variable, then
    one numbered line per proof line, the first node seen for a number."""
    by_line, todo = {}, [tree]
    while todo:
        node = todo.pop()
        if node.line not in by_line:
            by_line[node.line] = node
            todo.extend(reversed(node.premises))
    free = set()
    for node in by_line.values():
        for f in (*node.sequent.hypotheses, node.sequent.conclusion):
            free |= sx.free_vars(f)
    out = ["var %s : %s" % (v.name, v.sort) for v in sorted(free, key=repr)]
    for n, node in sorted(by_line.items()):
        rule = node.rule
        if node.premises:
            rule += "(%s)" % ", ".join(str(p.line) for p in node.premises)
        if node.witness is not None:
            rule += " [%s := %s]" % (node.witness[0], print_term(node.witness[1]))
        elif node.eigen is not None:
            rule += " [eigen %s]" % node.eigen
        out.append("%d. %s |- %s ; %s" % (
            n, ", ".join(map(print_formula, node.sequent.hypotheses)),
            print_formula(node.sequent.conclusion), rule))
    return "\n".join(out) + "\n"


def test_every_fixture_and_corpus_script_parses_to_the_old_tree():
    base = parse_signature((FIXTURES / "base.sig").read_text())
    texts = [(p.read_text(), base) for p in sorted(FIXTURES.glob("*.proof"))]
    corpus = gen.proof_corpus(random.Random(20260825), 220)
    mutants = [m for m in map(gen.mutate_eigenvariable, corpus) if m is not None]
    texts += [(script(p), gen.SIG_UNARY) for p in corpus + mutants]
    for text, sig in texts:
        new, old = parse_proof_script(text, sig), oracle.parse_proof_script(text, sig)
        same = new == old      # kept apart: a failing assert prints its operands
        assert same, text


def spine(e, field):
    """The nodes met by following `field` from e, outermost first."""
    out = [e]
    while hasattr(out[-1], field):
        out.append(getattr(out[-1], field))
    return out


def test_not_chain_parses_and_prints_at_depth():
    text = "not " * DEPTH + "P(a)"
    f = parse_formula(text)
    nodes = spine(f, "body")
    assert [type(n) for n in nodes] == [Not] * DEPTH + [Atom]
    assert print_formula(f) == text


def test_connective_chain_parses_and_prints_at_depth():
    text = " and ".join(["P(a)"] * (DEPTH + 1))
    f = parse_formula(text)
    nodes = spine(f, "left")     # left associative
    assert [type(n) for n in nodes] == [And] * DEPTH + [Atom]
    assert all(type(n.right) is Atom for n in nodes[:-1])
    assert print_formula(f) == text


def test_nested_parentheses_parse_at_depth():
    f = parse_formula("(" * DEPTH + "P(a) or not P(a)" + ")" * DEPTH)
    assert print_formula(f) == "P(a) or not P(a)"
    g = parse_formula("not (" * DEPTH + "P(a)" + ")" * DEPTH)
    assert print_formula(g) == "not " * DEPTH + "P(a)"


def test_quantifier_prefix_parses_and_prints_at_depth():
    text = "".join("forall x%d:s. " % i for i in range(DEPTH)) + "P(x0)"
    f = parse_formula(text)
    nodes = spine(f, "body")
    assert [type(n) for n in nodes] == [Quant] * DEPTH + [Atom]
    assert nodes[-1].args[0] == sx.Var("x0", "s")
    assert print_formula(f) == text


def test_binder_body_prints_as_a_term_at_depth():
    text = "eps x:s. " + "not " * DEPTH + "P(x)"
    t = parse_formula(text)
    assert isinstance(t, Binder)
    assert print_term(t) == text


def test_deep_formulas_are_sort_checked(fixtures):
    # the sort check walks an explicit stack, so a formula as deep as the
    # parser reads is checked, and its faults are reported where it starts
    sig = parse_signature((fixtures / "base.sig").read_text())
    text = "not " * DEPTH + "P(c)"
    assert print_formula(parse_formula(text, sig)) == text
    with pytest.raises(ParseError) as e:
        parse_formula("not " * DEPTH + "P(zz)", sig)
    assert [str(d) for d in e.value.diagnostics] == ["error:1:1: unknown constant zz"]
    proof = parse_proof_script("1. P(c) |- P(c) ; hyp\n2. %s |- %s ; hyp\n"
                               % (text, text), sig)
    assert print_formula(proof.sequent.conclusion) == text
    assert check_proof(proof, sig).accepted


def faithful(f):
    """No variable of f sits under an inner binder that gives its name
    another sort: text, which names variables, cannot tell those apart."""
    todo = [(f, {})]
    while todo:
        node, scope = todo.pop()
        if isinstance(node, sx.Var) and scope.get(node.name, node.sort) != node.sort:
            return False
        var = getattr(node, "var", None)
        if var is not None:
            scope = {**scope, var.name: var.sort}
        todo.extend((kid, scope) for kid in sx.children(node))
    return True


EPS = Binder("eps", sx.Var("x", "s"), Atom("P", (sx.Var("x", "s"),)))
TAU = Binder("tau", sx.Var("z", "t"), Atom(sx.EQ, (sx.Const("d"), sx.Const("d"))))


@given(compiled_formulas())
@settings(max_examples=500, deadline=None)
# a choice term's body would take in '= c', and '... or P(c)'; an equality
# that starts the text is printed in parentheses
@example(Atom(sx.EQ, (EPS, sx.Const("c"))))
@example(sx.Or(Atom(sx.EQ, (sx.Const("d"), TAU)), Atom("P", (sx.Const("c"),))))
@example(sx.And(Atom(sx.EQ, (sx.Generic("most", "s"), sx.Const("c"))), Atom("Z", ())))
def test_printed_formulas_read_back(f):
    assume(faithful(f))
    text = print_formula(f)
    g = parse_formula(text, COMPILED_SIG)
    assert sx.is_formula(g) and sx.alpha_eq(f, g), text
