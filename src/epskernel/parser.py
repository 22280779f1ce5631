"""Concrete text syntax: formulas, signatures, models, proof scripts and
lexicons, plus the pretty-printer.

Grammar (ASCII, '#' comments to end of line):

    formula  := QUANT var ':' sort restr? '.' formula
              | QUANT2 PREDVAR ':' sort '.' formula
              | implication
    restr    := '(' formula ')'
    QUANT    := forall | exists | forall* | exists* | most | moststrict | mostweak
    QUANT2   := forall2 | exists2
    implication := disj ('implies' implication)?      # right associative
    disj     := conj ('or' conj)*
    conj     := neg ('and' neg)*
    neg      := 'not' neg | primary
    primary  := '(' formula ')' | binderterm | atom-or-equality

Binder terms: "eps x:S. F", "tau x:S. F", "iota x:S. F", "eta x:S. F";
generic terms: "most:S", "many:S", "most:S(x. R)".  Precedence is
not < and < or < implies; quantifiers and binders extend maximally right.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import syntax as sx
from .kernel import RULES, ProofTree, Sequent
from .syntax import (Atom, And, App, Binder, Const, Generic, GenericRestricted,
                     Implies, Not, Or, PredApp, Quant, Quant2, Signature, Var)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    span: SourceSpan

    def __str__(self):
        return "%s:%d:%d: %s" % (self.severity, self.span.line,
                                 self.span.column, self.message)


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


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
# pretty printing

_PREC = {"implies": 1, "or": 2, "and": 3, "not": 4, "atom": 5}


def print_formula(f):
    """Canonical text form; parse_formula(print_formula(f)) is alpha-eq to f."""
    return _pf(f, 0)


def _pf(f, prec):
    if isinstance(f, Quant):
        kw = f.kind
        if f.kind == sx.MOST and f.mode == "strict":
            kw = "moststrict"
        elif f.kind == sx.MOST and f.mode == "weak":
            kw = "mostweak"
        restr = "" if f.restriction is None else " (%s)" % _pf(f.restriction, 0)
        s = "%s %s:%s%s. %s" % (kw, f.var.name, f.var.sort, restr, _pf(f.body, 0))
        return "(%s)" % s if prec > 0 else s
    if isinstance(f, Quant2):
        s = "%s %s:%s. %s" % (f.kind, f.predvar, f.sort, _pf(f.body, 0))
        return "(%s)" % s if prec > 0 else s
    if isinstance(f, Implies):
        s = "%s implies %s" % (_pf(f.left, _PREC["implies"] + 1), _pf(f.right, _PREC["implies"]))
        return "(%s)" % s if prec > _PREC["implies"] else s
    if isinstance(f, Or):
        s = "%s or %s" % (_pf(f.left, _PREC["or"]), _pf(f.right, _PREC["or"] + 1))
        return "(%s)" % s if prec > _PREC["or"] else s
    if isinstance(f, And):
        s = "%s and %s" % (_pf(f.left, _PREC["and"]), _pf(f.right, _PREC["and"] + 1))
        return "(%s)" % s if prec > _PREC["and"] else s
    if isinstance(f, Not):
        return "not %s" % _pf(f.body, _PREC["not"])
    if isinstance(f, Atom):
        if f.pred == sx.EQ:
            s = "%s = %s" % (print_term(f.args[0]), print_term(f.args[1]))
            return "(%s)" % s if prec > _PREC["and"] else s
        if not f.args:
            return f.pred
        return "%s(%s)" % (f.pred, ", ".join(print_term(a) for a in f.args))
    if isinstance(f, PredApp):
        return "%s(%s)" % (f.predvar, print_term(f.arg))
    raise TypeError("not a formula: %r" % (f,))


def print_term(t):
    if isinstance(t, (Var, Const)):
        return t.name
    if isinstance(t, App):
        return "%s(%s)" % (t.func, ", ".join(print_term(a) for a in t.args))
    if isinstance(t, Binder):
        return "%s %s:%s. %s" % (t.kind, t.var.name, t.var.sort, _pf(t.body, 0))
    if isinstance(t, Generic):
        return "%s:%s" % (t.kind, t.sort)
    if isinstance(t, GenericRestricted):
        return "%s:%s(%s:%s. %s)" % (t.kind, t.sort, t.var.name, t.var.sort,
                                     _pf(t.restriction, 0))
    raise TypeError("not a term: %r" % (t,))


# ---------------------------------------------------------------------------
# signature files
#
#   sort S
#   intsort nat            # declares nat and marks it as the integer sort
#   const c : S
#   fun f : S, S -> S
#   pred P : S, T          # "pred P :" declares a nullary predicate


def parse_signature(text):
    sorts, consts, funcs, preds = set(), {}, {}, {}
    intsort = None
    diags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        span = SourceSpan(0, len(raw), lineno, 1)

        def err(msg):
            diags.append(Diagnostic("error", msg, span))

        parts = line.split(None, 1)
        kw = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if kw == "sort":
            name = rest.strip()
            if not name:
                err("sort needs a name")
            elif name in sorts:
                err("duplicate sort %s" % name)
            else:
                sorts.add(name)
        elif kw == "intsort":
            name = rest.strip()
            sorts.add(name)
            intsort = name
        elif kw in ("const", "pred", "fun"):
            if ":" not in rest:
                err("missing ':' in %s declaration" % kw)
                continue
            name, sig_part = (s.strip() for s in rest.split(":", 1))
            if kw == "const":
                if sig_part not in sorts:
                    err("unknown sort %s" % sig_part)
                elif name in consts:
                    err("duplicate constant %s" % name)
                else:
                    consts[name] = sig_part
            elif kw == "pred":
                args = tuple(s.strip() for s in sig_part.split(",") if s.strip())
                bad = [s for s in args if s not in sorts]
                if bad:
                    err("unknown sort %s" % bad[0])
                elif name in preds:
                    err("duplicate predicate %s" % name)
                else:
                    preds[name] = args
            else:
                if "->" not in sig_part:
                    err("function declaration needs '->'")
                    continue
                dom, cod = (s.strip() for s in sig_part.split("->", 1))
                args = tuple(s.strip() for s in dom.split(",") if s.strip())
                bad = [s for s in (*args, cod) if s not in sorts]
                if bad:
                    err("unknown sort %s" % bad[0])
                elif name in funcs:
                    err("duplicate function %s" % name)
                else:
                    funcs[name] = (args, cod)
        else:
            err("unknown declaration %r" % kw)
    if diags:
        raise ParseError(diags)
    return Signature(frozenset(sorts), consts, funcs, preds, intsort)


# ---------------------------------------------------------------------------
# model files
#
#   sort S = {a, b, c}       # listing order is the total order
#   sort nat = int           # designated integer sort; needs a density measure
#   pred P : S = {a, b}
#   pred R : S, S = {(a,b), (b,c)}
#   pred prime : nat = @prime
#   const c : S = a
#   fun f : S -> S = {a: b, b: a}
#   measure nat = density(10000)
#   measure S = count
#   threshold most = 0.5
#   threshold many = 0.4
#   mode majority = strict


def parse_model(text):
    """Parse a model file; returns a models.Model. Raises ParseError."""
    from .models import Model  # local import to avoid a cycle

    domains = {}
    builtins = {}
    preds, consts, funcs = {}, {}, {}
    pred_sorts, const_sorts, func_sorts = {}, {}, {}
    measure = {}
    thresholds = {}
    majority = "strict"
    diags = []
    where = {}      # (keyword, name) -> (line number, line) of its declaration

    def err(msg, lineno, raw):
        diags.append(Diagnostic("error", msg, SourceSpan(0, len(raw), lineno, 1)))

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            err("missing '=' in model line", lineno, raw)
            continue
        head, rhs = (s.strip() for s in line.split("=", 1))
        parts = head.split(None, 1)
        kw = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if kw == "sort":
            name = rest.strip()
            if name in domains:
                err("duplicate sort %s" % name, lineno, raw)
                continue
            where[kw, name] = (lineno, raw)
            if rhs == "int":
                domains[name] = "int"
            else:
                elems = _parse_elem_set(rhs, lineno, raw, diags)
                if elems is not None:
                    seen = set()
                    for e in elems:
                        if e in seen:
                            err("duplicate element %s in sort %s" % (e, name),
                                lineno, raw)
                        seen.add(e)
                    domains[name] = list(dict.fromkeys(elems))
        elif kw == "pred":
            if ":" not in rest:
                err("predicate needs ': SORTS'", lineno, raw)
                continue
            name, sortspec = (s.strip() for s in rest.split(":", 1))
            arg_sorts = tuple(s.strip() for s in sortspec.split(",") if s.strip())
            pred_sorts[name] = arg_sorts
            where[kw, name] = (lineno, raw)
            if rhs.startswith("@"):
                builtins[name] = rhs[1:]
                preds[name] = None
            else:
                tuples = _parse_tuple_set(rhs, len(arg_sorts), lineno, raw, diags)
                if tuples is not None:
                    preds[name] = set(tuples)
        elif kw == "const":
            if ":" not in rest:
                err("constant needs ': SORT'", lineno, raw)
                continue
            name, sort = (s.strip() for s in rest.split(":", 1))
            const_sorts[name] = sort
            where[kw, name] = (lineno, raw)
            consts[name] = rhs
        elif kw == "fun":
            if ":" not in rest or "->" not in rest:
                err("function needs ': S -> T'", lineno, raw)
                continue
            name, sortspec = (s.strip() for s in rest.split(":", 1))
            dom, cod = (s.strip() for s in sortspec.split("->", 1))
            args = tuple(s.strip() for s in dom.split(",") if s.strip())
            func_sorts[name] = (args, cod)
            table = {}
            body = rhs.strip()
            if not (body.startswith("{") and body.endswith("}")):
                err("function table must be '{args: result, ...}'", lineno, raw)
                continue
            for entry in _split_entries(body[1:-1]):
                if not entry.strip():
                    continue
                if ":" not in entry:
                    err("bad function table entry %r" % entry, lineno, raw)
                    continue
                k, v = entry.rsplit(":", 1)
                k = k.strip().strip("()")
                key = tuple(s.strip() for s in k.split(",") if s.strip())
                table[key] = v.strip()
            funcs[name] = table
        elif kw == "measure":
            name = rest.strip()
            if rhs == "count":
                measure[name] = ("count",)
            elif rhs.startswith("density(") and rhs.endswith(")"):
                try:
                    measure[name] = ("density", int(rhs[len("density("):-1]))
                except ValueError:
                    err("bad density bound", lineno, raw)
            else:
                err("measure must be 'count' or 'density(N)'", lineno, raw)
        elif kw == "threshold":
            which = rest.strip()
            if which not in ("most", "many"):
                err("threshold applies to 'most' or 'many'", lineno, raw)
                continue
            try:
                thresholds[which] = Fraction(rhs)
            except (ValueError, ZeroDivisionError):
                err("bad threshold %r" % rhs, lineno, raw)
        elif kw == "mode":
            if rest.strip() != "majority" or rhs not in ("strict", "weak"):
                err("mode line must be 'mode majority = strict|weak'", lineno, raw)
            else:
                majority = rhs
        else:
            err("unknown model declaration %r" % kw, lineno, raw)

    # resolve integer sorts against measures
    final_domains = {}
    intsort = None
    for name, dom in domains.items():
        if dom == "int":
            intsort = name
            m = measure.get(name)
            if m is None or m[0] != "density":
                err("integer sort %s needs 'measure %s = density(N)'"
                    % (name, name), *where["sort", name])
                continue
            final_domains[name] = list(range(1, m[1] + 1))
        else:
            final_domains[name] = dom
            measure.setdefault(name, ("count",))

    # sort checks on extensions
    for name, arg_sorts in pred_sorts.items():
        for s in arg_sorts:
            if s not in domains:
                err("predicate %s over unknown sort %s" % (name, s),
                    *where["pred", name])
        ext = preds.get(name)
        if ext is None:
            continue
        for tup in ext:
            for e, s in zip(tup, arg_sorts):
                if s in final_domains and domains.get(s) != "int" \
                        and e not in final_domains[s]:
                    err("element %s of predicate %s not in sort %s" % (e, name, s),
                        *where["pred", name])
    for name, sort in const_sorts.items():
        if sort not in final_domains:
            err("constant %s of unknown sort %s" % (name, sort),
                *where["const", name])
        elif domains.get(sort) != "int" and consts[name] not in final_domains[sort]:
            err("constant %s = %s not in sort %s" % (name, consts[name], sort),
                *where["const", name])
    if diags:
        raise ParseError(diags)

    sig = Signature(frozenset(final_domains),
                    dict(const_sorts),
                    dict(func_sorts),
                    dict(pred_sorts),
                    intsort)
    return Model(signature=sig,
                 domains=final_domains,
                 preds={n: frozenset(e) for n, e in preds.items() if e is not None},
                 builtins=builtins,
                 consts=consts,
                 funcs=funcs,
                 measure=measure,
                 most_threshold=thresholds.get("most", Fraction(1, 2)),
                 many_threshold=thresholds.get("many", Fraction(2, 5)),
                 majority_mode=majority)


def _parse_elem_set(rhs, lineno, raw, diags):
    rhs = rhs.strip()
    if not (rhs.startswith("{") and rhs.endswith("}")):
        diags.append(Diagnostic("error", "expected '{...}'",
                                SourceSpan(0, len(raw), lineno, 1)))
        return None
    inner = rhs[1:-1].strip()
    if not inner:
        return []
    return [s.strip() for s in inner.split(",")]


def _split_entries(s):
    """Split on commas not inside parentheses."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def _parse_tuple_set(rhs, arity, lineno, raw, diags):
    rhs = rhs.strip()
    if not (rhs.startswith("{") and rhs.endswith("}")):
        diags.append(Diagnostic("error", "expected '{...}'",
                                SourceSpan(0, len(raw), lineno, 1)))
        return None
    inner = rhs[1:-1].strip()
    if not inner:
        return []
    tuples = []
    for entry in _split_entries(inner):
        entry = entry.strip()
        if entry.startswith("(") and entry.endswith(")"):
            tup = tuple(s.strip() for s in entry[1:-1].split(","))
        else:
            tup = (entry,)
        if len(tup) != arity:
            diags.append(Diagnostic("error", "tuple %r has arity %d, expected %d"
                                    % (entry, len(tup), arity),
                                    SourceSpan(0, len(raw), lineno, 1)))
            continue
        tuples.append(tup)
    return tuples


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
