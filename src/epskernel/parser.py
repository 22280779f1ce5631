"""Concrete text syntax: formulas, signatures, models, proof scripts and
lexicons, plus the pretty-printer.

Every file kind shares one lexer.  A token is a (kind, text, offset)
tuple; a diagnostic counts its line and column from the offset.  '#'
comments run to the end of the line.  A formula is operands joined by
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

Signature, model and lexicon files hold one declaration per line:

    decl    := KW NAME [':' SORTS ['->' SORT]] ['=' VALUE]
    entry   := KIND word ':' NAME ['(' SORTS ')']        (lexicons)
    SORTS   := [SORT (',' SORT)*]

    signature   sort S | intsort S | const c : S | pred P : SORTS
                | fun f : SORTS -> S
    model       sort S = {a, b, ...} | sort S = int
                | pred P : SORTS = {a, (a, b), ...} | pred P : S = @prime
                | const c : S = a | fun f : SORTS -> S = {a: b, (a, b): c}
                | measure S = count | measure S = density(N)
                | threshold most = 0.5 | threshold many = 2/5
                | mode majority = strict | mode majority = weak
    lexicon     noun word : S | pron word : S | verb word : P(S)
                | adj word : P(S) | tverb word : R(S, S)

A fault in a line's syntax is reported at its token, a check on a whole
declaration at the declaration's first token, both as error:LINE:COLUMN.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter

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
    message: str
    span: SourceSpan

    def __str__(self):
        return "error:%d:%d: %s" % (self.span.line, self.span.column,
                                    self.message)


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

# Split on this pattern, a text falls into its tokens and the blanks and
# newlines between them.  A token's kind follows from its first character;
# '#' starts a comment, which is dropped.
_TOKEN_RE = re.compile(r"""
    ( forall\*|exists\*|[A-Za-z_][A-Za-z0-9_'-]*    # ident
    | \d+(?:\.\d+)?                                 # num
    | ->|\|-|:=|[().,:;={}\[\]|]                    # sym
    | \#[^\n]*                                      # comment
    | [^ \t\r\n] )                                  # bad: starts no token
""", re.VERBOSE)
_KIND = {**dict.fromkeys(string.ascii_letters + "_", "ident"),
         **dict.fromkeys(string.digits, "num"),
         **dict.fromkeys("().,:;={}[]|", "sym")}


def tokenize(text):
    """Tokens of text, ending with one 'eof' at its end.  Raises ParseError
    with a diagnostic for each character that starts no token."""
    toks = _lex(text)
    diags = [Diagnostic("unexpected character %r" % t[1], _span(text, t))
             for t in toks if t[0] == "bad"]
    if diags:
        raise ParseError(diags)
    return toks


def _lex(text):
    """tokenize's tokens, with each character that starts no token kept as
    a 'bad' token."""
    parts = _TOKEN_RE.split(text)                # blanks, token, blanks, ...
    toks, pos = [], len(parts[0])
    for tok, blanks in zip(parts[1::2], parts[2::2]):
        kind = _KIND.get(tok[0]) or (
            "num" if tok[0].isdecimal() else "sym" if tok == "->"
            else None if tok[0] == "#" else "bad")
        if kind:
            toks.append((kind, tok, pos))
        pos += len(tok) + len(blanks)
    toks.append(("eof", "", len(text)))
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
        raise ParseError([Diagnostic(msg, _span(self.src, tok or self.peek()))])

    def expected(self, what):
        self.fail("expected %s, found %r" % (what, self.peek()[1] or "end of input"))

    def expect(self, text):
        if self.toks[self.i][1] != text:
            self.expected(repr(text))
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
            self.expected(what)
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
        return self.checked(self.peek(), self.formula())

    def checked(self, first, e):
        """e, read from token `first` on, once sort-checked if sig is set."""
        errs = [] if self.sig is None else sx.well_sorted(e, self.sig)
        if errs:
            span = _span(self.src, first, self.toks[self.i - 1])
            raise ParseError([Diagnostic(m, span) for m in errs])
        return e

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
        self.expected("a term")


def _reduce(ops, vals):
    _, arity, build = ops.pop()
    if arity == 2:
        right = vals.pop()
        vals[-1] = build(vals[-1], right)
    else:
        vals[-1] = build(vals[-1])


def parse_formula(text, sig=None, env=None):
    """Parse a formula (or a bare binder/generic term) from text.

    Returns a Formula, or a Term when the whole input is a term; a text
    that starts with a term it does not end with is read as a formula
    (`most:s = c and P(c)`).  Either is sort-checked if sig is set.  `env`
    maps free-variable names to sorts.  Raises ParseError carrying located
    diagnostics.
    """
    p = _P(tokenize(text), text, sig, env)
    first = p.peek()
    if first[1] in BINDER_KW or first[1] in GENERIC_KW and p.peek(1)[1] == ":":
        t = p.term()
        if p.peek()[0] == "eof":
            return p.checked(first, t)
        p.i = 0
    return p.end(p.sorted_formula())


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
            continue
        node, prec = piece
        if prec is None:
            pieces = _term_pieces(node)
            if isinstance(node, Binder) and todo and todo[-1] == " = ":
                pieces[-1:] = ["(", (node.body, 0), ")"]    # or it takes in '='
        else:
            pieces, loosest = _formula_pieces(node)
            if prec > loosest or _equality_needs_parentheses(node, todo, out):
                pieces = ["(", *pieces, ")"]
        todo.extend(reversed(pieces))
    return "".join(out)


def _equality_needs_parentheses(f, todo, out):
    """Whether f, an equality about to be printed after `out` and before
    `todo`, needs parentheses though precedence does not ask for them:
    at the start of the text, so that no formula's text starts with a term,
    and before more text, which a choice term on its right would take into
    its body."""
    if not (isinstance(f, Atom) and f.pred == sx.EQ):
        return False
    if not out and isinstance(f.args[0], (Binder, Generic, GenericRestricted)):
        return True
    return bool(todo) and todo[-1] != ")" and isinstance(f.args[1], Binder)


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
# declaration files: signatures, models and lexicons, one declaration per
# line (grammar in the module docstring).  A file is lexed once and read a
# line at a time.  A character that starts no token stays in as a 'bad'
# token, which values such as '@prime' and '2/5' hold.

_SYMBOLS = {"const": "constant", "pred": "predicate", "fun": "function"}
_SIGNATURE_KW = {"sort", "intsort", *_SYMBOLS}
_MODEL_KW = {"sort", *_SYMBOLS, "measure", "threshold", "mode"}
# lexicon entry kind -> number of argument sorts; None for a sort of its own
_LEXICON_KINDS = {"noun": None, "pron": None, "verb": 1, "adj": 1, "tverb": 2}
_ELEMENT = ("ident", "num")


def _lines(text, toks, sig=None, env=None):
    """For each line of text that holds a token, a cursor over its tokens,
    sliced from `toks`, the text's tokens."""
    i = 0
    while toks[i][0] != "eof":
        end = text.find("\n", toks[i][2])
        end = len(text) if end < 0 else end
        j = bisect_left(toks, end, i, key=itemgetter(2))
        yield _P(toks[i:j] + [("eof", "", end)], text, sig, env)
        i = j


def _read_lines(text, read):
    """Calls read(p) with the cursor p of each line of text; returns the
    diagnostics of the lines it raised ParseError on."""
    diags = []
    for p in _lines(text, _lex(text)):
        try:
            read(p)
        except ParseError as e:
            diags += e.diagnostics
    return diags


def _checked(result, diags):
    """`result`, unless there are diagnostics to raise, in text order."""
    if diags:
        raise ParseError(sorted(diags, key=lambda d: d.span.start))
    return result


def _error(src, tok, msg):
    return Diagnostic(msg, _span(src, tok))


def _natural(text):
    """The number a numeral of decimal digits spells, else None (also when
    it is longer than int() reads)."""
    return int(text) if text.isdecimal() and len(text) < 4300 else None


def _head(p, keywords):
    """KW NAME [':' SORTS ['->' SORT]] as (first token, KW, NAME, SORTS,
    SORT): a const takes ':' SORT, a pred ':' SORTS, a fun ':' SORTS '->'
    SORT, and another keyword none of these."""
    first = p.peek()
    kw = p.ident("declaration")
    if kw not in keywords:
        p.fail("unknown declaration %r" % kw, first)
    name = p.ident("name")
    args, result = (), None
    if kw in _SYMBOLS:
        p.expect(":")
        if kw != "const" and p.peek()[0] == "ident":
            args = tuple(p.listed(p.sort_name))
        if kw == "fun":
            p.expect("->")
        if kw != "pred":
            result = p.sort_name()
    return first, kw, name, args, result


def _signature(heads, src, diags):
    """The Signature of sort, intsort, const, pred and fun heads, whose last
    intsort is its integer sort.  Adds to `diags` each name declared twice
    and, at its declaration, each fault Signature.validate finds."""
    decls = {"sort": {}, "const": {}, "pred": {}, "fun": {}}
    intsort = None
    for first, kw, name, args, result in heads:
        if kw == "intsort":
            kw, intsort = "sort", name
        if name in decls[kw]:
            diags.append(_error(src, first, "duplicate %s %s"
                                % (_SYMBOLS.get(kw, kw), name)))
        decls[kw].setdefault(name, (first, args, result))
    sig = Signature(frozenset(decls["sort"]),
                    {c: d[2] for c, d in decls["const"].items()},
                    {f: d[1:] for f, d in decls["fun"].items()},
                    {p: d[1] for p, d in decls["pred"].items()}, intsort)
    # each fault names its symbol's kind and name first
    where = {(noun, name): d[0] for kw, noun in _SYMBOLS.items()
             for name, d in decls[kw].items()}
    diags.extend(_error(src, where[tuple(e.split()[:2])], e)
                 for e in sig.validate())
    return sig


def parse_signature(text):
    """Parse a signature file (grammar in the module docstring)."""
    heads = []
    diags = _read_lines(
        text, lambda p: heads.append(p.end(_head(p, _SIGNATURE_KW))))
    return _checked(_signature(heads, text, diags), diags)


def parse_model(text):
    """Parse a model file (grammar in the module docstring); returns a
    models.Model.  Raises ParseError."""
    from .models import BUILTIN_PREDS, Model  # local import to avoid a cycle

    heads, values = [], {kw: {} for kw in _MODEL_KW}   # kw -> name -> (head, value)

    def read(p):
        head = _head(p, _MODEL_KW)
        p.expect("=")
        value = _model_value(p, head)
        values[head[1]][head[2]] = head, value
        if head[1] in _SIGNATURE_KW:
            heads.append((head[0], "intsort", *head[2:]) if value == "int" else head)

    diags = _read_lines(text, read)
    sig = _signature(heads, text, diags)

    def error(head, msg):
        diags.append(_error(text, head[0], msg))

    measure = {name: m for name, (_, m) in values["measure"].items()}
    domains = {}
    for name, (head, dom) in values["sort"].items():
        if dom != "int":
            domains[name] = dom
        elif measure.get(name, ("count",))[0] == "density":
            domains[name] = range(1, measure[name][1] + 1)
        else:
            error(head, "integer sort %s needs 'measure %s = density(N)'"
                  % (name, name))
    members = {s: d if isinstance(d, range) else set(d) for s, d in domains.items()}

    def elements(head, what, sort, texts):
        """texts as elements of sort, numbers in an integer sort; reports
        `what` % x for the first x that is not one (an undeclared sort is
        reported with the signature)."""
        dom = members.get(sort)
        got = [_natural(x) for x in texts] if isinstance(dom, range) else texts
        if dom is not None:
            bad = [x for x, e in zip(texts, got) if e is None or e not in dom]
            if bad:
                error(head, "%s not in sort %s" % (what % bad[0], sort))
        return got

    preds, builtins, funcs = {}, {}, {}
    for kw, noun in (("pred", "predicate"), ("fun", "function")):
        for name, (head, table) in values[kw].items():
            args = head[3]
            sorts = (*args, head[4]) if kw == "fun" else args   # a fun's value last
            if isinstance(table, str):
                builtins[name] = table
                if table not in BUILTIN_PREDS:
                    error(head, "unknown builtin predicate @%s" % table)
                elif len(args) != 1 or not isinstance(members.get(args[0]), range):
                    error(head, "builtin @%s needs one argument of an integer sort"
                          % table)
            elif {len(e) for e in table} - {len(sorts)}:
                error(head, "%s %s takes %d arguments" % (noun, name, len(args)))
            else:       # a column of elements at a time
                what = "element %%s of %s %s" % (noun, name)
                rows = list(zip(*[elements(head, what, sort, column)
                                  for sort, column in zip(sorts, zip(*table))]))
                if kw == "pred":
                    preds[name] = frozenset(rows)
                else:
                    funcs[name] = table = {row[:-1]: row[-1] for row in rows}
                    if len(table) < len(rows):
                        error(head, "function %s lists an argument tuple twice" % name)
    consts = {name: elements(head, "constant %s = %%s" % name, head[4], [x])[0]
              for name, (head, x) in values["const"].items()}
    settings = {which + "_threshold": theta
                for which, (_, theta) in values["threshold"].items()}
    if "majority" in values["mode"]:
        settings["majority_mode"] = values["mode"]["majority"][1]
    return _checked(Model(signature=sig, domains=domains, preds=preds,
                          builtins=builtins, consts=consts, funcs=funcs,
                          **settings), diags)


def _model_value(p, head):
    """The value after '=' of a model declaration, which ends its line:
    "int", a builtin's name, a list of entries (element tuples), an
    element, a measure, a threshold or a majority mode."""
    first, kw, name = head[:3]
    toks = p.toks[p.i:-3]           # the rest of the line; its eof comes padded
    if kw == "sort" and len(toks) == 1 and toks[0][1] == "int":
        return "int"
    if kw == "pred" and toks and toks[0][1] == "@":
        p.i += 1
        return p.end(p.ident("builtin name"))
    if kw in ("sort", "pred", "fun"):
        entries = _braced(p, kw == "fun", tuples=kw != "sort")
        if kw == "sort" and len(set(entries)) != len(entries):
            p.fail("duplicate element in sort %s" % name, first)
        return [e for (e,) in entries] if kw == "sort" else entries
    words = [t[1] for t in toks]
    if kw == "const":
        if not toks or toks[0][0] not in _ELEMENT:
            p.expected("element")
        p.i += 1
        return p.end(words[0])
    if kw == "measure":
        if words == ["count"]:
            return ("count",)
        if words[:1] != ["density"]:
            p.fail("measure must be 'count' or 'density(N)'", first)
        if len(words) != 4 or words[1] + words[3] != "()" or not _natural(words[2]):
            p.fail("bad density bound", first)
        return ("density", _natural(words[2]))
    if kw == "threshold":
        if name not in ("most", "many"):
            p.fail("threshold applies to 'most' or 'many'", first)
        if [t[0] for t in toks] in (["num"], ["num", "bad", "num"]):
            try:
                theta = Fraction("".join(words))
            except (ValueError, ZeroDivisionError):
                pass
            else:
                if 0 <= theta <= 1:
                    return theta
                p.fail("threshold %s not in [0, 1]" % "".join(words), first)
        p.fail("bad threshold %r" % "".join(words), first)
    if name != "majority" or words not in (["strict"], ["weak"]):
        p.fail("mode line must be 'mode majority = strict|weak'", first)
    return words[0]


def _braced(p, keyed, tuples=True):
    """The '{...}' at the cursor, which ends the line, as a list of entries:
    'a' as ('a',); with `tuples`, '(a, b)' as ('a', 'b'); with `keyed`,
    each entry then ': c', with c appended.  One loop over the tokens and
    no call per element: a model's sets are most of its text."""
    p.expect("{")
    toks, i, entries = p.toks, p.i, []
    while toks[i][1] != "}" or entries:
        if tuples and toks[i][1] == "(":
            j = i + 1
            while toks[j][0] in _ELEMENT and toks[j + 1][1] == ",":
                j += 2
            if toks[j][0] not in _ELEMENT:
                p.i = j
                p.expected("element")
            if toks[j + 1][1] != ")":
                p.i = j + 1
                p.expect(")")
            entry, i = tuple(map(itemgetter(1), toks[i + 1:j + 1:2])), j + 2
        elif toks[i][0] in _ELEMENT:
            entry, i = (toks[i][1],), i + 1
        else:
            p.i = i
            p.expected("element")
        if keyed:
            p.i = i
            p.expect(":")
            if toks[i + 1][0] not in _ELEMENT:
                p.expected("element")
            entry, i = entry + (toks[i + 1][1],), i + 2
        entries.append(entry)
        if toks[i][1] != ",":
            break
        i += 1
    p.i = i
    p.expect("}")
    return p.end(entries)


def lexicon_entries(text):
    """The lines 'KIND word : NAME' and 'KIND word : NAME(SORTS)' of a
    lexicon file as (KIND, word, NAME, SORTS) tuples, SORTS None in the
    first form.  Raises ParseError."""
    entries = []

    def read(p):
        first, kind, word = _head(p, _LEXICON_KINDS)[:3]
        p.expect(":")
        name, sorts, arity = p.ident("name"), None, _LEXICON_KINDS[kind]
        if arity is not None:
            p.expect("(")
            sorts = tuple(p.listed(p.sort_name))
            p.expect(")")
            if len(sorts) != arity:
                p.fail("%s takes %d argument sort(s)" % (kind, arity), first)
        entries.append(p.end((kind, word, name, sorts)))

    return _checked(entries, _read_lines(text, read))


# ---------------------------------------------------------------------------
# proof scripts
#
#   var x : S
#   n. H1, ..., Hk |- F ; RULE(refs) [x := t | eigen x]
#
# The script is tokenized once and read a line at a time.  Each line becomes
# one ProofTree node, built once and shared by every line that cites it.
# References point to lower-numbered lines; the last line is the root.


def parse_proof_script(text, sig):
    """Parse a proof script into a kernel.ProofTree (root = last line)."""
    diags = []
    lines = {}      # number -> what _script_line read
    env = {}        # free variables declared by `var` lines so far
    read = {}       # hypothesis-list text -> formulas, see _script_line
    root = None
    # unexpected characters are reported alone, by tokenize
    for p in _lines(text, tokenize(text), sig, env):
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
            diags.append(Diagnostic("duplicate line number %d" % n,
                                    _span(text, num)))
            continue
        lines[n] = line
        root = n
    if diags:
        raise ParseError(diags)
    if root is None:
        raise ParseError([Diagnostic("empty proof script",
                                     SourceSpan(0, 0, 1, 1))])

    nodes = {}
    for n in sorted(lines):
        hyps, concl, rule, refs, witness, eigen = lines[n]
        premises = []
        for tok in refs:
            r = int(tok[1])
            if r not in nodes:
                how = "forward to" if r in lines else "to undefined"
                diags.append(Diagnostic("line %d refers %s line %d"
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
        p.expected("a line number")
    p.i += 1
    return tok
