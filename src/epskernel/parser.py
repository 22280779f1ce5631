"""Concrete text syntax: formulas, signatures, models, proof scripts and
lexicons, plus the pretty-printer.

Formulas and proof scripts share one lexer.  A token is a (kind, text,
offset) tuple; a diagnostic counts its line and column from the offset.
'#' comments run to the end of the line.  A formula is operands joined by
these operators, loosest first, which wait on an explicit stack so that
chains of them and nested parentheses cost no recursion:

    operator                          kind    associativity
    QUANT var ':' sort restr? '.'     prefix  reaches as far right as it can
    QUANT2 PREDVAR ':' sort '.'       prefix  reaches as far right as it can
    implies                           infix   right
    or                                infix   left
    and                               infix   left
    not                               prefix

    operand := '(' formula ')' | term '=' term | atom
    restr   := '(' formula ')'
    QUANT   := forall | exists | forall* | exists* | most | moststrict | mostweak
    QUANT2  := forall2 | exists2

Terms are read by recursive descent: binder terms "eps x:S. F" (and tau,
iota, eta), whose body reaches as far right as it can; generic terms
"most:S", "many:S", "most:S(x:S. R)"; variables, constants, applications.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

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
# word -> (precedence, associativity, node); 'not' binds tighter
CONNECTIVES = {"implies": (1, "right", Implies), "or": (2, "left", Or),
               "and": (3, "left", And)}
NOT_PRECEDENCE = 4
KEYWORDS = (set(QUANT_KW) | set(QUANT2_KW) | BINDER_KW | {"many", "not"}
            | set(CONNECTIVES))

# Stack entries are (precedence, arity, build).  A connective first applies
# those >= its bound (its equals too if left associative); '(' is -1.
_INFIX = {word: (prec, prec + (assoc == "right"), node)
          for word, (prec, assoc, node) in CONNECTIVES.items()}
_NOT = (NOT_PRECEDENCE, 1, Not)
_GROUP = (-1, 0, None)

# One match per token, skipping the blanks, newlines and comments before it
_TOKEN_RE = re.compile(r"""
    (?: [ \t\r\n]+ | \#[^\n]* )*
    (?: (?P<ident>forall\*|exists\*|[A-Za-z_][A-Za-z0-9_'-]*)
      | (?P<num>\d+(?:\.\d+)?)
      | (?P<sym>->|\|-|:=|[().,:;={}\[\]|])
      | (?P<eof>\Z)
      | (?P<bad>.) )
""", re.VERBOSE | re.DOTALL)


def tokenize(text, start=0, end=None):
    """Tokens of text[start:end], ending with one 'eof' at `end`.  Raises
    ParseError with a diagnostic for each character that starts no token."""
    matches = _TOKEN_RE.finditer(text, start, len(text) if end is None else end)
    toks = [(m.lastgroup, m[m.lastindex], m.start(m.lastindex)) for m in matches]
    if len(toks) > 1 and toks[-2][0] == "eof":
        toks.pop()   # skipped text before the end matched as a second eof
    diags = [Diagnostic("error", "unexpected character %r" % t[1], _span(text, t))
             for t in toks if t[0] == "bad"]
    if diags:
        raise ParseError(diags)
    return toks


def _span(src, first, last=None):
    """The SourceSpan of tokens `first` to `last` (default `first`)."""
    start, last = first[2], last or first
    return SourceSpan(start, last[2] + len(last[1]),
                      bisect_right(_line_starts(src), start),
                      start - src.rfind("\n", 0, start))


# where the lines of the text of the latest diagnostic start
_line_starts = lru_cache(1)(lambda src: [0] + [m.end() for m in re.finditer("\n", src)])


class _P:
    """Parser over tokens ending in eof, padded so peek(2) needs no check."""

    def __init__(self, toks, src, sig, env=None):
        self.toks = toks + toks[-1:] * 2
        self.src = src
        self.i = 0
        self.sig = sig
        self.bound = dict(env or {})   # var name -> sort (free, then bound)
        self.predvars = {}   # predicate-variable name -> sort

    def peek(self, k=0):
        return self.toks[self.i + k]

    def fail(self, msg, tok=None):
        raise ParseError([Diagnostic("error", msg,
                                     _span(self.src, tok or self.peek()))])

    def expect(self, text):
        found = self.toks[self.i][1]
        if found != text:
            self.fail("expected %r, found %r" % (text, found or "end of input"))
        self.i += 1

    def end(self, result=None):
        """`result`, once the input is known to end here."""
        if self.peek()[0] != "eof":
            self.fail("trailing input")
        return result

    def listed(self, item):
        items = [item()]
        while self.toks[self.i][1] == ",":
            self.i += 1
            items.append(item())
        return items

    def ident(self, what):
        kind, text, _ = self.peek()
        if kind != "ident":
            self.fail("expected %s, found %r" % (what, text or "end of input"))
        self.i += 1
        return text

    def sort_name(self):
        name = self.ident("sort name")
        if self.sig is not None and name not in self.sig.sorts:
            self.fail("unknown sort %s" % name, self.toks[self.i - 1])
        return name

    def binding_var(self):
        """'x : S'; binds x in a new dict, so the old one can be restored."""
        name = self.ident("variable")
        self.expect(":")
        var = Var(name, self.sort_name())
        self.bound = {**self.bound, name: var.sort}
        return var

    def scope(self):
        saved = self.bound
        var = self.binding_var()
        self.expect(".")
        body = self.formula()
        self.bound = saved
        return var, body

    def sorted_formula(self):
        """A formula, sort-checked (errors at its first token) if sig is set."""
        first = self.peek()
        f = self.formula()
        try:
            errs = [] if self.sig is None else sx.well_sorted(f, self.sig)
        except RecursionError:
            self.fail("input nested too deep", first)
        if errs:
            span = _span(self.src, first, self.toks[self.i - 1])
            raise ParseError([Diagnostic("error", e, span) for e in errs])
        return f

    def formula(self):
        toks, ops, vals = self.toks, [], []
        groups = 0       # '(' on ops, not closed yet
        start = True     # at the start of a formula, not after an operator
        while True:
            text = toks[self.i][1]
            if text == "not" or text == "(":
                self.i += 1
                ops.append(_NOT if text == "not" else _GROUP)
                groups += text == "("
                start = text == "("
                continue
            if text in QUANT_KW or text in QUANT2_KW:
                prefix = self.prefix(start)
                if prefix is not None:
                    ops.append(prefix)
                    start = True
                    continue
            vals.append(self.atom())
            while True:      # after an operand: ')'s, then a connective
                text = toks[self.i][1]
                if text in _INFIX:
                    prec, bound, node = _INFIX[text]
                    while ops and ops[-1][0] >= bound:
                        _reduce(ops, vals)
                    ops.append((prec, 2, node))
                    self.i += 1
                    start = False
                    break
                if groups and text == ")":
                    while ops[-1] is not _GROUP:
                        _reduce(ops, vals)
                    ops.pop()
                    groups -= 1
                    self.i += 1
                    continue
                if groups:
                    self.expect(")")
                while ops:
                    _reduce(ops, vals)
                return vals[0]

    def prefix(self, start):
        """The quantifier at the cursor as a stack entry of precedence 0, or
        None before 'most:S'.  forall2/exists2 commit early only at `start`."""
        word = self.peek()[1]
        typed = self.peek(1)[0] == "ident" and self.peek(2)[1] == ":"
        saved = self.bound, self.predvars
        if word in QUANT2_KW and (typed or start):
            self.i += 1
            name = self.ident("predicate variable")
            self.expect(":")
            sort = self.sort_name()
            self.expect(".")
            self.predvars = {**self.predvars, name: sort}
            node = partial(Quant2, QUANT2_KW[word], name, sort)
        elif word in QUANT_KW and typed:
            self.i += 1
            var, restr = self.binding_var(), None
            if self.peek()[1] == "(":
                self.i += 1
                restr = self.formula()
                self.expect(")")
            self.expect(".")
            kind, mode = QUANT_KW[word]
            node = partial(Quant, kind, var, restr, mode=mode)
        elif word in GENERIC_KW and self.peek(1)[1] == ":":
            return None
        else:
            self.fail("quantifier %r needs a typed variable" % word)

        def build(body):
            self.bound, self.predvars = saved
            return node(body)
        return (0, 1, build)

    def atom(self):
        tok = self.toks[self.i]
        term = self.term()
        if self.peek()[1] == "=":
            self.i += 1
            return Atom(sx.EQ, (term, self.term()))
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
        if isinstance(term, Const) and (self.sig is None
                                        or term.name in self.sig.predicates):
            return Atom(term.name, ())
        self.fail("expected a formula, found a term", tok)

    def term(self):
        kind, word, _ = self.toks[self.i]
        if kind == "ident" and word not in KEYWORDS:
            self.i += 1
            if word in self.bound:
                return Var(word, self.bound[word])
            if self.toks[self.i][1] != "(":
                return Const(word)
            self.i += 1
            args = self.listed(self.term)
            self.expect(")")
            return App(word, tuple(args))
        if word in BINDER_KW and self.peek(1)[0] == "ident" \
                and self.peek(2)[1] == ":":
            self.i += 1
            return Binder(word, *self.scope())
        if word in GENERIC_KW and self.peek(1)[1] == ":":
            self.i += 2
            sort = self.sort_name()
            if self.peek()[1] != "(":
                return Generic(word, sort)
            self.i += 1
            var, restr = self.scope()
            self.expect(")")
            return GenericRestricted(word, sort, var, restr)
        self.fail("expected a term, found %r" % (word or "end of input"))


def _reduce(ops, vals):
    _, arity, build = ops.pop()
    if arity == 2:
        right = vals.pop()
        vals[-1] = build(vals[-1], right)
    else:
        vals[-1] = build(vals[-1])


def parse_formula(text, sig=None, env=None):
    """Parse a formula (or a bare binder/generic term) from text.

    Returns a Formula, or a Term when the whole input is a term.
    `env` maps free-variable names to sorts.  Raises ParseError carrying
    located diagnostics.
    """
    p = _P(tokenize(text), text, sig, env)
    word = p.peek()[1]
    term = word in BINDER_KW or (word in GENERIC_KW and p.peek(1)[1] == ":")
    return p.end(p.term() if term else p.sorted_formula())


def parse_term(text, sig=None, env=None):
    """Parse a term; `env` maps free-variable names to sorts."""
    p = _P(tokenize(text), text, sig, env)
    return p.end(p.term())


# ---------------------------------------------------------------------------
# pretty printing, from an explicit stack of pieces so that deep trees print
# too.  A piece is a string, or a (node, precedence) pair still to print;
# the precedence of a term is None.

_CONNECTIVE_OF = {node: (" %s " % word, prec, assoc)
                  for word, (prec, assoc, node) in CONNECTIVES.items()}


def print_formula(f):
    """Canonical text form; parse_formula(print_formula(f)) is alpha-eq to f."""
    return _print(f, 0)


def print_term(t):
    return _print(t, None)


def _print(e, prec):
    out, todo = [], [(e, prec)]
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            out.append(piece)
        elif piece[1] is None:
            todo.extend(reversed(_term_pieces(piece[0])))
        else:
            pieces, loosest = _formula_pieces(piece[0])
            if piece[1] > loosest:
                pieces = ["(", *pieces, ")"]
            todo.extend(reversed(pieces))
    return "".join(out)


def _formula_pieces(f):
    """f's pieces, and the highest precedence f needs no parentheses at."""
    if type(f) in _CONNECTIVE_OF:
        word, p, assoc = _CONNECTIVE_OF[type(f)]
        return [(f.left, p + (assoc == "right")), word,
                (f.right, p + (assoc == "left"))], p
    if isinstance(f, Not):
        return ["not ", (f.body, NOT_PRECEDENCE)], NOT_PRECEDENCE
    if isinstance(f, Quant):
        mode = f.mode if f.kind == sx.MOST and f.mode in ("strict", "weak") else ""
        pieces = ["%s%s %s:%s" % (f.kind, mode, f.var.name, f.var.sort)]
        if f.restriction is not None:
            pieces += [" (", (f.restriction, 0), ")"]
        return pieces + [". ", (f.body, 0)], 0
    if isinstance(f, Quant2):
        return ["%s %s:%s. " % (f.kind, f.predvar, f.sort), (f.body, 0)], 0
    if isinstance(f, Atom) and f.pred == sx.EQ:
        return [(f.args[0], None), " = ", (f.args[1], None)], NOT_PRECEDENCE - 1
    if isinstance(f, Atom):
        return _applied(f.pred, f.args) if f.args else [f.pred], NOT_PRECEDENCE
    if isinstance(f, PredApp):
        return _applied(f.predvar, (f.arg,)), NOT_PRECEDENCE
    raise TypeError("not a formula: %r" % (f,))


def _term_pieces(t):
    if isinstance(t, (Var, Const)):
        return [t.name]
    if isinstance(t, App):
        return _applied(t.func, t.args)
    if isinstance(t, Binder):
        return ["%s %s:%s. " % (t.kind, t.var.name, t.var.sort), (t.body, 0)]
    if isinstance(t, Generic):
        return ["%s:%s" % (t.kind, t.sort)]
    if isinstance(t, GenericRestricted):
        return ["%s:%s(%s:%s. " % (t.kind, t.sort, t.var.name, t.var.sort),
                (t.restriction, 0), ")"]
    raise TypeError("not a term: %r" % (t,))


def _applied(name, args):
    return [name + "(", *[p for a in args for p in (", ", (a, None))][1:], ")"]


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
    from .models import BUILTIN_PREDS, Model  # local import to avoid a cycle

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
                bound = rhs[len("density("):-1].strip()
                if bound.isdecimal() and int(bound) > 0:
                    measure[name] = ("density", int(bound))
                else:
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
            final_domains[name] = range(1, m[1] + 1)
        else:
            final_domains[name] = dom
            measure.setdefault(name, ("count",))

    # sort checks on extensions
    for name, builtin in builtins.items():
        arg_sorts = pred_sorts[name]
        if builtin not in BUILTIN_PREDS:
            err("unknown builtin predicate @%s" % builtin, *where["pred", name])
        elif len(arg_sorts) != 1 or domains.get(arg_sorts[0]) != "int":
            err("builtin @%s needs one argument of an integer sort" % builtin,
                *where["pred", name])
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
# The script is tokenized once, a row at a time.  Each line becomes one
# ProofTree node, built once and shared by every line that cites it.
# References point to lower-numbered lines; the last line is the root.


def parse_proof_script(text, sig):
    """Parse a proof script into a kernel.ProofTree (root = last line)."""
    diags, lexed = [], []   # parse errors; unexpected characters (reported alone)
    lines = {}      # number -> what _script_line read
    env = {}        # free variables declared by `var` lines so far
    read = {}       # hypothesis-list text -> formulas, see _script_line
    root, start = None, 0
    for row in text.split("\n"):
        try:
            toks = tokenize(text, start, start + len(row))
        except ParseError as e:
            lexed += e.diagnostics
        start += len(row) + 1
        if lexed or len(toks) == 1:
            continue
        p = _P(toks, text, sig, env)
        try:
            if p.peek()[1] == "var":
                p.i += 1
                var = p.binding_var()
                env[var.name] = var.sort
                read.clear()
                p.end()
                continue
            num, line = _script_line(p, read)
        except ParseError as e:
            diags.extend(e.diagnostics)
            continue
        n = int(num[1])
        if n in lines:
            diags.append(Diagnostic("error", "duplicate line number %d" % n,
                                    _span(text, num)))
            continue
        lines[n] = line
        root = n
    if lexed or diags:
        raise ParseError(lexed or diags)
    if root is None:
        raise ParseError([Diagnostic("error", "empty proof script",
                                     SourceSpan(0, 0, 1, 1))])

    nodes = {}
    for n in sorted(lines):
        hyps, concl, rule, refs, witness, eigen = lines[n]
        premises = []
        for tok in refs:
            r = int(tok[1])
            if r not in nodes:
                how = "forward to" if r in lines else "to undefined"
                diags.append(Diagnostic("error", "line %d refers %s line %d"
                                        % (n, how, r), _span(text, tok)))
            premises.append(nodes.get(r))
        nodes[n] = ProofTree(Sequent(hyps, concl), rule, tuple(premises),
                             witness=witness, eigen=eigen, line=n)
    if diags:
        raise ParseError(diags)
    return nodes[root]


def _script_line(p, read):
    """One numbered proof line read by `p`; returns its number token and
    (hypotheses, conclusion, rule, reference tokens, witness, eigen).
    Lines repeat their hypotheses, so `read` maps the text of each list
    read up to its '|-' to its formulas and number of tokens."""
    num = _line_number(p)
    p.expect(".")
    start = p.peek()[2]
    end = p.src.find("|-", start, p.toks[-1][2])
    key = p.src[start:end] if end >= 0 else None
    hyps, n = read.get(key, (None, 0))
    if hyps is None:
        i = p.i
        hyps = [] if p.peek()[1] == "|-" else p.listed(p.sorted_formula)
        if p.peek()[2] == end:
            read[key] = hyps, p.i - i
    p.i += n
    p.expect("|-")
    concl = p.sorted_formula()
    p.expect(";")
    rule = p.ident("rule name")
    if rule not in RULES:
        p.fail("unknown rule %r" % rule, p.toks[p.i - 1])
    refs = []
    if p.peek()[1] == "(":
        p.i += 1
        refs = p.listed(lambda: _line_number(p))
        p.expect(")")
    witness = eigen = None
    if p.peek()[1] == "[":
        p.i += 1
        if p.peek()[1] == "eigen" and p.peek(1)[1] != ":=":
            p.i += 1
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
    if tok[0] != "num" or not tok[1].isdigit():
        p.fail("expected a line number, found %r" % (tok[1] or "end of input"))
    p.i += 1
    return tok
