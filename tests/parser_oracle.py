"""The recursive-descent reader that parse_formula, parse_term and
parse_proof_script used before the operator-precedence front end, kept as
the differential oracle for tests/test_front_end.py.

It tokenizes into Token objects that carry a SourceSpan each, matches
blanks as tokens, and parses the connectives with one method per
precedence level.  Its trees and diagnostics are the reference; its speed
is not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from epskernel import syntax as sx
from epskernel.kernel import RULES, ProofTree, Sequent
from epskernel.parser import Diagnostic, ParseError, SourceSpan
from epskernel.syntax import (Atom, And, App, Binder, Const, Generic,
                              GenericRestricted, Implies, Not, Or, PredApp,
                              Quant, Quant2, Var)

QUANT_KW = {
    "forall": (sx.FORALL, None),
    "exists": (sx.EXISTS, None),
    "forall*": (sx.FORALL_STAR, None),
    "exists*": (sx.EXISTS_STAR, None),
    "most": (sx.MOST, None),
    "moststrict": (sx.MOST, "strict"),
    "mostweak": (sx.MOST, "weak"),
}
QUANT2_KW = {"forall2": sx.FORALL2, "exists2": sx.EXISTS2}
BINDER_KW = {"eps", "tau", "iota", "eta"}
GENERIC_KW = {"most", "many"}
KEYWORDS = (set(QUANT_KW) | set(QUANT2_KW) | BINDER_KW | {"many"}
            | {"not", "and", "or", "implies"})

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<starkw>forall\*|exists\*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_'-]*)
  | (?P<num>\d+(\.\d+)?)
  | (?P<arrow>->)
  | (?P<turnstile>\|-)
  | (?P<assign>:=)
  | (?P<sym>[().,:;={}\[\]|])
""", re.VERBOSE)


@dataclass
class Token:
    kind: str
    text: str
    span: SourceSpan


def tokenize(text):
    """Tokenize; unknown bytes become error diagnostics, not crashes."""
    toks, diags = [], []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(pos, pos + 1, line, pos - bol + 1)
            diags.append(Diagnostic("error", "unexpected character %r" % text[pos], span))
            pos += 1
            continue
        kind = m.lastgroup
        tok = m.group()
        span = SourceSpan(pos, m.end(), line, pos - bol + 1)
        if kind == "nl":
            line += 1
            bol = m.end()
            toks.append(Token("nl", tok, span))
        elif kind not in ("ws", "comment"):
            if kind == "starkw":
                kind = "ident"
            toks.append(Token(kind, tok, span))
        pos = m.end()
    toks.append(Token("eof", "", SourceSpan(pos, pos, line, pos - bol + 1)))
    return toks, diags


class _P:
    """Recursive-descent parser over a token list (newlines skipped)."""

    def __init__(self, toks, sig, env=None):
        self.toks = [t for t in toks if t.kind != "nl"]
        self.i = 0
        self.sig = sig
        self.bound = dict(env or {})   # var name -> sort (free, then bound)
        self.predvars = {}   # predicate-variable name -> sort
        self._shadow = None

    def peek(self, k=0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self):
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError([Diagnostic("error", msg, tok.span)])

    def expect(self, text):
        t = self.peek()
        if t.text != text:
            self.fail("expected %r, found %r" % (text, t.text or "end of input"))
        return self.next()

    def end(self):
        if self.peek().kind != "eof":
            self.fail("trailing input")

    def listed(self, item):
        """item (',' item)*"""
        items = [item()]
        while self.peek().text == ",":
            self.next()
            items.append(item())
        return items

    def at_ident(self, *words):
        t = self.peek()
        return t.kind == "ident" and (not words or t.text in words)

    # -- formulas ---------------------------------------------------------

    def sorted_formula(self):
        """A formula, checked against the signature when there is one;
        sort errors point at the formula's first token."""
        first = self.peek()
        f = self.formula()
        errs = sx.well_sorted(f, self.sig) if self.sig is not None else []
        if errs:
            span = SourceSpan(first.span.start, self.toks[self.i - 1].span.end,
                              first.span.line, first.span.column)
            raise ParseError([Diagnostic("error", e, span) for e in errs])
        return f

    def formula(self):
        t = self.peek()
        if t.kind == "ident" and t.text in QUANT_KW and self.peek(1).kind == "ident" \
                and self.peek(2).text == ":":
            return self.quantified()
        if t.kind == "ident" and t.text in QUANT2_KW:
            return self.quantified2()
        return self.implication()

    def quantified(self):
        kw = self.next()
        kind, mode = QUANT_KW[kw.text]
        var = self.binding_var()
        shadow = self._shadow
        restr = None
        if self.peek().text == "(":
            self.next()
            restr = self.formula()
            self.expect(")")
        self.expect(".")
        body = self.formula()
        self._unbind(var, shadow)
        return Quant(kind, var, restr, body, mode)

    def quantified2(self):
        kw = self.next()
        kind = QUANT2_KW[kw.text]
        name = self.ident("predicate variable")
        self.expect(":")
        sort = self.sort_name()
        self.expect(".")
        shadow = self.predvars.get(name)
        self.predvars[name] = sort
        body = self.formula()
        if shadow is None:
            del self.predvars[name]
        else:
            self.predvars[name] = shadow
        return Quant2(kind, name, sort, body)

    def binding_var(self):
        name = self.ident("variable")
        self.expect(":")
        sort = self.sort_name()
        self._shadow = self.bound.get(name)
        self.bound[name] = sort
        return Var(name, sort)

    def _unbind(self, var, shadow):
        if shadow is None:
            self.bound.pop(var.name, None)
        else:
            self.bound[var.name] = shadow

    def ident(self, what):
        t = self.peek()
        if t.kind != "ident":
            self.fail("expected %s, found %r" % (what, t.text or "end of input"))
        return self.next().text

    def sort_name(self):
        name = self.ident("sort name")
        if self.sig is not None and name not in self.sig.sorts:
            self.fail("unknown sort %s" % name, self.toks[self.i - 1])
        return name

    def implication(self):
        left = self.disjunction()
        if self.at_ident("implies"):
            self.next()
            return Implies(left, self.implication())
        return left

    def disjunction(self):
        f = self.conjunction()
        while self.at_ident("or"):
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self):
        f = self.negation()
        while self.at_ident("and"):
            self.next()
            f = And(f, self.negation())
        return f

    def negation(self):
        if self.at_ident("not"):
            self.next()
            return Not(self.negation())
        return self.primary()

    def primary(self):
        t = self.peek()
        if t.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.kind == "ident" and not self._generic_ahead():
            if t.text in QUANT_KW and self.peek(1).kind == "ident" \
                    and self.peek(2).text == ":":
                return self.quantified()
            if t.text in QUANT2_KW and self.peek(1).kind == "ident" \
                    and self.peek(2).text == ":":
                return self.quantified2()
            if t.text in QUANT_KW or t.text in QUANT2_KW:
                self.fail("quantifier %r needs a typed variable" % t.text)
        term = self.term()
        if self.peek().text == "=":
            self.next()
            right = self.term()
            return Atom(sx.EQ, (term, right))
        return self._as_atom(term, t)

    def _generic_ahead(self):
        # "most:S" / "many:S" generic term, as opposed to "most x:S. ..."
        return self.peek().text in GENERIC_KW and self.peek(1).text == ":"

    def _as_atom(self, term, tok):
        if isinstance(term, App):
            if self.sig is not None and term.func in self.sig.predicates:
                return Atom(term.func, term.args)
            if term.func in self.predvars:
                if len(term.args) != 1:
                    self.fail("predicate variable %s is unary" % term.func, tok)
                return PredApp(term.func, term.args[0])
            if self.sig is None:
                return Atom(term.func, term.args)
            self.fail("unknown predicate %s" % term.func, tok)
        if isinstance(term, Const) and self.sig is not None \
                and term.name in self.sig.predicates:
            return Atom(term.name, ())
        if isinstance(term, Const) and self.sig is None:
            return Atom(term.name, ())
        self.fail("expected a formula, found a term", tok)

    # -- terms ------------------------------------------------------------

    def term(self):
        t = self.peek()
        if t.kind == "ident" and t.text in BINDER_KW and self.peek(1).kind == "ident" \
                and self.peek(2).text == ":":
            kw = self.next()
            var = self.binding_var()
            shadow = self._shadow
            self.expect(".")
            body = self.formula()
            self._unbind(var, shadow)
            return Binder(kw.text, var, body)
        if t.kind == "ident" and t.text in GENERIC_KW and self.peek(1).text == ":":
            self.next()
            self.next()
            sort = self.sort_name()
            if self.peek().text == "(":
                self.next()
                var = self.binding_var()
                shadow = self._shadow
                self.expect(".")
                restr = self.formula()
                self.expect(")")
                self._unbind(var, shadow)
                return GenericRestricted(t.text, sort, var, restr)
            return Generic(t.text, sort)
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail("expected a term, found %r" % (t.text or "end of input"))
        name = self.next().text
        if self.peek().text == "(" and name not in self.bound:
            self.next()
            args = self.listed(self.term)
            self.expect(")")
            return App(name, tuple(args))
        if name in self.bound:
            return Var(name, self.bound[name])
        return Const(name)


def parse_formula(text, sig=None, env=None):
    """Parse a formula (or a bare binder/generic term) from text.

    Returns a Formula, or a Term when the whole input is a term.
    `env` maps free-variable names to sorts.  Raises ParseError carrying
    located diagnostics.
    """
    toks, diags = tokenize(text)
    if diags:
        raise ParseError(diags)
    p = _P(toks, sig, env)
    t = p.peek()
    if t.kind == "ident" and (t.text in BINDER_KW or
                              (t.text in GENERIC_KW and p.peek(1).text == ":")):
        result = p.term()
    else:
        result = p.sorted_formula()
    p.end()
    return result


def parse_term(text, sig=None, env=None):
    """Parse a term; `env` maps free-variable names to sorts."""
    toks, diags = tokenize(text)
    if diags:
        raise ParseError(diags)
    p = _P(toks, sig, env)
    t = p.term()
    p.end()
    return t


# ---------------------------------------------------------------------------
# proof scripts
#
#   var x : S
#   n. H1, ..., Hk |- F ; RULE(refs) [x := t | eigen x]
#
# Each line becomes one ProofTree node, built once and shared by every line
# that cites it.  References point to lower-numbered lines; the last line in
# the file is the root.


def parse_proof_script(text, sig):
    """Parse a proof script into a kernel.ProofTree (root = last line)."""
    toks, diags = tokenize(text)
    if diags:
        raise ParseError(diags)
    lines = {}      # number -> what _script_line read
    env = {}        # free variables declared by `var` lines so far
    root = None
    row = []
    for tok in toks:
        if tok.kind not in ("nl", "eof"):
            row.append(tok)
            continue
        if not row:
            continue
        p = _P(row + [Token("eof", "", tok.span)], sig, env)
        row = []
        try:
            if p.at_ident("var"):
                p.next()
                name = p.ident("variable")
                p.expect(":")
                env[name] = p.sort_name()
                p.end()
                continue
            num, line = _script_line(p)
        except ParseError as e:
            diags.extend(e.diagnostics)
            continue
        n = int(num.text)
        if n in lines:
            diags.append(Diagnostic("error", "duplicate line number %d" % n, num.span))
            continue
        lines[n] = line
        root = n
    if diags:
        raise ParseError(diags)
    if root is None:
        raise ParseError([Diagnostic("error", "empty proof script",
                                     SourceSpan(0, 0, 1, 1))])

    nodes = {}
    for n in sorted(lines):
        hyps, concl, rule, refs, witness, eigen = lines[n]
        premises = []
        for tok in refs:
            r = int(tok.text)
            if r not in nodes:
                how = "forward to" if r in lines else "to undefined"
                diags.append(Diagnostic("error", "line %d refers %s line %d"
                                        % (n, how, r), tok.span))
            premises.append(nodes.get(r))
        nodes[n] = ProofTree(Sequent(hyps, concl), rule, tuple(premises),
                             witness=witness, eigen=eigen, line=n)
    if diags:
        raise ParseError(diags)
    return nodes[root]


def _script_line(p):
    """One numbered proof line read by `p`; returns its number token and
    (hypotheses, conclusion, rule, reference tokens, witness, eigen)."""
    num = _line_number(p)
    p.expect(".")
    hyps = [] if p.peek().text == "|-" else p.listed(p.sorted_formula)
    p.expect("|-")
    concl = p.sorted_formula()
    p.expect(";")
    rule = p.ident("rule name")
    if rule not in RULES:
        p.fail("unknown rule %r" % rule, p.toks[p.i - 1])
    refs = []
    if p.peek().text == "(":
        p.next()
        refs = p.listed(lambda: _line_number(p))
        p.expect(")")
    witness = eigen = None
    if p.peek().text == "[":
        p.next()
        if p.at_ident("eigen") and p.peek(1).text != ":=":
            p.next()
            eigen = p.ident("eigenvariable")
        else:
            name = p.ident("witness variable")
            p.expect(":=")
            witness = (name, p.term())
        p.expect("]")
    p.end()
    return num, (tuple(hyps), concl, rule, refs, witness, eigen)


def _line_number(p):
    tok = p.peek()
    if tok.kind != "num" or not tok.text.isdigit():
        p.fail("expected a line number, found %r" % (tok.text or "end of input"))
    return p.next()
