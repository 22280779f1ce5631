"""Core term/formula representation: sorted first-order syntax with
Hilbert-style binder terms (eps/tau/iota/eta), generalized quantifiers
(forall*/exists*/most), generic "most" terms and a bounded second-order
fragment (unary predicate variables).

All values are immutable; every operation here is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

# quantifier kinds
FORALL = "forall"
EXISTS = "exists"
FORALL_STAR = "forall*"
EXISTS_STAR = "exists*"
MOST = "most"
QUANT_KINDS = (FORALL, EXISTS, FORALL_STAR, EXISTS_STAR, MOST)

# binder kinds
EPS = "eps"
TAU = "tau"
IOTA = "iota"
ETA = "eta"
BINDER_KINDS = (EPS, TAU, IOTA, ETA)

# second-order quantifier kinds
FORALL2 = "forall2"
EXISTS2 = "exists2"

# reserved built-in equality predicate
EQ = "="


class SortError(Exception):
    """Raised for hard sort violations (e.g. substituting at the wrong sort)."""


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: tuple


@dataclass(frozen=True)
class Binder:
    """Hilbert-style binder term: eps/tau/iota/eta x:S. body."""

    kind: str
    var: Var
    body: "Formula"


@dataclass(frozen=True)
class Generic:
    """Typed generic element for a vague quantifier (type version)."""

    kind: str  # "most" or "many"
    sort: str


@dataclass(frozen=True)
class GenericRestricted:
    """Generic element restricted by a predicate over its sort.

    The restriction has exactly one designated free variable (`var`).
    """

    kind: str
    sort: str
    var: Var
    restriction: "Formula"


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple


@dataclass(frozen=True)
class PredApp:
    """Application of a unary predicate variable to a term."""

    predvar: str
    arg: object


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Quant:
    """First-order quantifier, optionally restricted to a class.

    `mode` is only meaningful for kind "most": None (model default),
    "strict" (> threshold) or "weak" (>= threshold).
    """

    kind: str
    var: Var
    restriction: object  # Formula or None
    body: "Formula"
    mode: object = None


@dataclass(frozen=True)
class Quant2:
    """Second-order quantifier over unary predicate variables of one sort."""

    kind: str  # forall2 / exists2
    predvar: str
    sort: str
    body: "Formula"


Term = (Var, Const, App, Binder, Generic, GenericRestricted)
Formula = (Atom, PredApp, Not, And, Or, Implies, Quant, Quant2)


def is_term(e):
    return isinstance(e, Term)


def is_formula(e):
    return isinstance(e, Formula)


# ---------------------------------------------------------------------------
# node structure
#
# The one place that says how each node class is put together.  _SHAPES
# maps a class to (children, rebuild, binds, label):
#   children(e)       e's child terms and formulas, in field order;
#   rebuild(e, kids)  a node like e with its children replaced by `kids`;
#   binds             BINDS_VAR when e binds the variable `e.var` in all its
#                     children, BINDS_PREDVAR when it binds the predicate
#                     variable `e.predvar` in its body, else None;
#   label(e)          what alpha_eq compares besides children and bound
#                     names, or None when there is nothing (a Var's name
#                     is looked up in alpha_eq's scopes instead).

BINDS_VAR = "var"
BINDS_PREDVAR = "predvar"


def _leaf(e):
    return ()


def _unchanged(e, kids):
    return e


def _args(e):
    return e.args


def _body(e):
    return (e.body,)


def _sides(e):
    return (e.left, e.right)


def _quant_children(e):
    return (e.body,) if e.restriction is None else (e.restriction, e.body)


_SHAPES = {
    Var: (_leaf, _unchanged, None, None),
    Const: (_leaf, _unchanged, None, lambda e: e.name),
    Generic: (_leaf, _unchanged, None, lambda e: (e.kind, e.sort)),
    App: (_args, lambda e, k: App(e.func, tuple(k)), None, lambda e: e.func),
    Binder: (_body, lambda e, k: Binder(e.kind, e.var, k[0]), BINDS_VAR,
             lambda e: (e.kind, e.var.sort)),
    GenericRestricted: (
        lambda e: (e.restriction,),
        lambda e, k: GenericRestricted(e.kind, e.sort, e.var, k[0]),
        BINDS_VAR, lambda e: (e.kind, e.sort, e.var.sort)),
    Atom: (_args, lambda e, k: Atom(e.pred, tuple(k)), None, lambda e: e.pred),
    PredApp: (lambda e: (e.arg,), lambda e, k: PredApp(e.predvar, k[0]), None,
              None),
    Not: (_body, lambda e, k: Not(k[0]), None, None),
    And: (_sides, lambda e, k: And(*k), None, None),
    Or: (_sides, lambda e, k: Or(*k), None, None),
    Implies: (_sides, lambda e, k: Implies(*k), None, None),
    Quant: (_quant_children,
            lambda e, k: Quant(e.kind, e.var, k[0] if len(k) == 2 else None,
                               k[-1], e.mode),
            BINDS_VAR, lambda e: (e.kind, e.var.sort, e.mode)),
    Quant2: (_body, lambda e, k: Quant2(e.kind, e.predvar, e.sort, k[0]),
             BINDS_PREDVAR, lambda e: (e.kind, e.sort)),
}


def _shape(e):
    try:
        return _SHAPES[type(e)]
    except KeyError:
        raise TypeError("not a term or formula: %r" % (e,)) from None


def children(e):
    """The child terms and formulas of a node, in field order."""
    return _shape(e)[0](e)


def rebuild(e, kids):
    """A node like `e` with its children replaced by `kids`."""
    return _shape(e)[1](e, kids)


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    sorts: frozenset = frozenset()
    constants: dict = field(default_factory=dict)  # name -> sort
    functions: dict = field(default_factory=dict)  # name -> (arg sorts, result)
    predicates: dict = field(default_factory=dict)  # name -> arg sorts
    integer_sort: object = None  # sort treated as pseudo-infinite (density)

    def validate(self):
        """Return a list of declaration errors (empty list means well-formed)."""
        errs = []
        for c, s in self.constants.items():
            if s not in self.sorts:
                errs.append("constant %s has undeclared sort %s" % (c, s))
        for f, (args, res) in self.functions.items():
            for s in (*args, res):
                if s not in self.sorts:
                    errs.append("function %s uses undeclared sort %s" % (f, s))
        for p, args in self.predicates.items():
            for s in args:
                if s not in self.sorts:
                    errs.append("predicate %s uses undeclared sort %s" % (p, s))
        if self.integer_sort is not None and self.integer_sort not in self.sorts:
            errs.append("integer sort %s is not declared" % self.integer_sort)
        return errs


def term_sort(t, sig):
    """Sort of a term under `sig`; raises SortError for unknown symbols."""
    if isinstance(t, Var):
        return t.sort
    if isinstance(t, Const):
        try:
            return sig.constants[t.name]
        except KeyError:
            raise SortError("unknown constant %s" % t.name)
    if isinstance(t, App):
        try:
            return sig.functions[t.func][1]
        except KeyError:
            raise SortError("unknown function %s" % t.func)
    if isinstance(t, Binder):
        return t.var.sort
    if isinstance(t, (Generic, GenericRestricted)):
        return t.sort
    raise SortError("not a term: %r" % (t,))


# ---------------------------------------------------------------------------
# free variables


def free_vars(e):
    """Set of free variables (as Var values) of a term or formula."""
    out = set()
    _free_vars(e, frozenset(), out)
    return out


def _free_vars(e, bound, out):
    if type(e) is Var:
        if e not in bound:
            out.add(e)
        return
    kids, _, binds, _ = _shape(e)
    if binds is BINDS_VAR:
        bound = bound | {e.var}
    for k in kids(e):
        _free_vars(k, bound, out)


def free_predvars(e):
    """Free predicate-variable names of a formula."""
    out = set()
    _free_predvars(e, frozenset(), out)
    return out


def _free_predvars(e, bound, out):
    kids, _, binds, _ = _shape(e)
    if binds is BINDS_PREDVAR:
        bound = bound | {e.predvar}
    elif type(e) is PredApp and e.predvar not in bound:
        out.add(e.predvar)
    for k in kids(e):
        _free_predvars(k, bound, out)


# ---------------------------------------------------------------------------
# substitution


def fresh_name(base, taken):
    """A name not in `taken`, derived from `base` by numeric suffixing."""
    if base not in taken:
        return base
    stem = base.rstrip("0123456789")
    for i in itertools.count(1):
        cand = "%s%d" % (stem, i)
        if cand not in taken:
            return cand


def substitute(e, v, t, sig=None):
    """Capture-avoiding substitution of term `t` for free variable `v`.

    Works on terms and formulas.  When `sig` is given the sorts of `v`
    and `t` must agree.
    """
    if sig is not None:
        ts = term_sort(t, sig)
        if ts != v.sort:
            raise SortError("cannot substitute %s-term for %s-variable" % (ts, v.sort))
    return _subst(e, v, t, frozenset(x.name for x in free_vars(t)))


def _rename_bound(e, v, avoid):
    """`e` with its bound variable renamed away from `avoid`, `v` and the
    free variables of its children, so that substituting for `v` inside
    cannot capture."""
    kids = children(e)
    taken = set(avoid) | {v.name}
    for k in kids:
        taken |= {x.name for x in free_vars(k)}
    nv = Var(fresh_name(e.var.name, taken), e.var.sort)
    return rebuild(replace(e, var=nv),
                   [_subst(k, e.var, nv, frozenset()) for k in kids])


def _subst(e, v, t, tfree):
    if type(e) is Var:
        return t if e == v else e
    kids, make, binds, _ = _shape(e)
    if binds is BINDS_VAR:
        if e.var == v:
            return e
        if e.var.name in tfree and v in free_vars(e):
            e = _rename_bound(e, v, tfree)
    return make(e, [_subst(k, v, t, tfree) for k in kids(e)])


# ---------------------------------------------------------------------------
# alpha equivalence


def alpha_eq(a, b):
    """Equality up to consistent renaming of bound variables (individual
    and predicate variables, including binder-term bound variables)."""
    return _alpha(a, b, (), ())


def _same_name(env, x, y):
    """Whether name `x` in one tree and `y` in the other denote the same
    variable: bound by the same binder of `env` (pairs of names, innermost
    first), or both free and equal."""
    for p, q in env:
        if p == x or q == y:
            return p == x and q == y
    return x == y


def _alpha(a, b, env, penv):
    # env: pairs (name in a, name in b) of bound individual variables,
    # innermost first; penv likewise for predicate variables.
    t = type(a)
    if t is not type(b):
        return False
    if t is Var:
        return a.sort == b.sort and _same_name(env, a.name, b.name)
    kids, _, binds, label = _shape(a)
    if label is not None and label(a) != label(b):
        return False
    if binds is BINDS_VAR:
        env = ((a.var.name, b.var.name),) + env
    elif binds is BINDS_PREDVAR:
        penv = ((a.predvar, b.predvar),) + penv
    elif t is PredApp and not _same_name(penv, a.predvar, b.predvar):
        return False
    ka, kb = kids(a), kids(b)
    if len(ka) != len(kb):
        return False
    for x, y in zip(ka, kb):
        if not _alpha(x, y, env, penv):
            return False
    return True


# ---------------------------------------------------------------------------
# well-sortedness


def well_sorted(e, sig, env=None, predvars=None):
    """Check sorts; returns a list of error strings (empty means ok).

    Never raises on malformed input: every problem becomes a diagnostic.
    `env` maps in-scope variable names to sorts, `predvars` maps in-scope
    predicate-variable names to their argument sort.
    """
    errs = []
    if is_term(e):
        _check_term(e, sig, dict(env or {}), dict(predvars or {}), errs)
    else:
        _check(e, sig, dict(env or {}), dict(predvars or {}), errs)
    return errs


def _check_term(t, sig, env, predvars, errs):
    """Returns the term's sort, or None when it cannot be determined."""
    if isinstance(t, Var):
        s = env.get(t.name)
        if s is None:
            if t.sort not in sig.sorts:
                errs.append("variable %s has undeclared sort %s" % (t.name, t.sort))
            return t.sort
        if s != t.sort:
            errs.append("variable %s used at sort %s but bound at %s"
                        % (t.name, t.sort, s))
        return s
    if isinstance(t, Const):
        s = sig.constants.get(t.name)
        if s is None:
            errs.append("unknown constant %s" % t.name)
        return s
    if isinstance(t, App):
        decl = sig.functions.get(t.func)
        if decl is None:
            errs.append("unknown function %s" % t.func)
            for a in t.args:
                _check_term(a, sig, env, predvars, errs)
            return None
        args, res = decl
        if len(args) != len(t.args):
            errs.append("function %s expects %d arguments, got %d"
                        % (t.func, len(args), len(t.args)))
        for i, (a, want) in enumerate(zip(t.args, args)):
            got = _check_term(a, sig, env, predvars, errs)
            if got is not None and got != want:
                errs.append("argument %d of %s has sort %s, expected %s"
                            % (i + 1, t.func, got, want))
        return res
    if isinstance(t, Binder):
        if t.var.sort not in sig.sorts:
            errs.append("binder variable %s has undeclared sort %s"
                        % (t.var.name, t.var.sort))
        inner = dict(env)
        inner[t.var.name] = t.var.sort
        _check(t.body, sig, inner, predvars, errs)
        return t.var.sort
    if isinstance(t, Generic):
        if t.sort not in sig.sorts:
            errs.append("generic term has undeclared sort %s" % t.sort)
        return t.sort
    if isinstance(t, GenericRestricted):
        if t.sort not in sig.sorts:
            errs.append("generic term has undeclared sort %s" % t.sort)
        if t.var.sort != t.sort:
            errs.append("restriction variable %s of generic term must have sort %s"
                        % (t.var.name, t.sort))
        inner = dict(env)
        inner[t.var.name] = t.var.sort
        _check(t.restriction, sig, inner, predvars, errs)
        extra = {x for x in free_vars(t.restriction) if x != t.var}
        # restriction must have exactly the designated free variable
        for x in extra:
            if x.name not in env:
                errs.append("restriction of generic term has stray free variable %s"
                            % x.name)
        return t.sort
    errs.append("not a term: %r" % (t,))
    return None


def _check(f, sig, env, predvars, errs):
    if isinstance(f, Atom):
        if f.pred == EQ:
            if len(f.args) != 2:
                errs.append("equality takes two arguments")
                return
            s1 = _check_term(f.args[0], sig, env, predvars, errs)
            s2 = _check_term(f.args[1], sig, env, predvars, errs)
            if s1 is not None and s2 is not None and s1 != s2:
                errs.append("equality between distinct sorts %s and %s" % (s1, s2))
            return
        decl = sig.predicates.get(f.pred)
        if decl is None:
            errs.append("unknown predicate %s" % f.pred)
            for a in f.args:
                _check_term(a, sig, env, predvars, errs)
            return
        if len(decl) != len(f.args):
            errs.append("predicate %s expects %d arguments, got %d"
                        % (f.pred, len(decl), len(f.args)))
        for i, (a, want) in enumerate(zip(f.args, decl)):
            got = _check_term(a, sig, env, predvars, errs)
            if got is not None and got != want:
                errs.append("argument %d of %s has sort %s, expected %s"
                            % (i + 1, f.pred, got, want))
    elif isinstance(f, PredApp):
        want = predvars.get(f.predvar)
        if want is None:
            errs.append("unbound predicate variable %s" % f.predvar)
        got = _check_term(f.arg, sig, env, predvars, errs)
        if want is not None and got is not None and got != want:
            errs.append("predicate variable %s applied at sort %s, expected %s"
                        % (f.predvar, got, want))
    elif isinstance(f, Not):
        _check(f.body, sig, env, predvars, errs)
    elif isinstance(f, (And, Or, Implies)):
        _check(f.left, sig, env, predvars, errs)
        _check(f.right, sig, env, predvars, errs)
    elif isinstance(f, Quant):
        if f.kind not in QUANT_KINDS:
            errs.append("unknown quantifier kind %s" % f.kind)
        if f.var.sort not in sig.sorts:
            errs.append("quantified variable %s has undeclared sort %s"
                        % (f.var.name, f.var.sort))
        if f.mode not in (None, "strict", "weak"):
            errs.append("bad majority mode %r" % (f.mode,))
        if f.mode is not None and f.kind != MOST:
            errs.append("majority mode on non-most quantifier")
        inner = dict(env)
        inner[f.var.name] = f.var.sort
        if f.restriction is not None:
            _check(f.restriction, sig, inner, predvars, errs)
        _check(f.body, sig, inner, predvars, errs)
    elif isinstance(f, Quant2):
        if f.sort not in sig.sorts:
            errs.append("second-order quantifier over undeclared sort %s" % f.sort)
        inner = dict(predvars)
        inner[f.predvar] = f.sort
        _check(f.body, sig, env, inner, errs)
    else:
        errs.append("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# misc helpers used across modules


def subterms(e):
    """All subterms of a term or formula (terms only), preorder."""
    out = []
    _subterms(e, out)
    return out


def _subterms(e, out):
    if isinstance(e, Term):
        out.append(e)
    for k in children(e):
        _subterms(k, out)
