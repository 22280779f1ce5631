"""Core term/formula representation: sorted first-order syntax with
Hilbert-style binder terms (eps/tau/iota/eta), generalized quantifiers
(forall*/exists*/most), generic "most" terms and a bounded second-order
fragment (unary predicate variables).

All values are immutable; every operation here is a pure function.  The
walks read how each node is put together from one table, _SHAPES, keep
their pending nodes on an explicit stack, and return at any depth.  One
rewrite, _rewrite, serves substitution and the translations, and one walk,
_sort, decides the sorts of terms and formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from operator import is_not

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
    """Raised by term_sort for a term that has no sort."""


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
_IS_TERM = {**dict.fromkeys(Term, True), **dict.fromkeys(Formula, False)}


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
_VAR_BINDERS = {t for t, shape in _SHAPES.items() if shape[2] is BINDS_VAR}


def _shape(e):
    try:
        return _SHAPES[type(e)]
    except KeyError:
        raise TypeError("not a term or formula: %r" % (e,)) from None


def children(e):
    """The child terms and formulas of a node, in field order."""
    return _shape(e)[0](e)


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
        """Return a list of declaration errors (empty list means well-formed):
        each symbol over a sort that is not declared, naming the first such
        sort, and an integer sort that is not declared."""
        errs = []
        consts = {c: (s,) for c, s in self.constants.items()}
        funcs = {f: (*args, res) for f, (args, res) in self.functions.items()}
        for noun, uses in (("constant", consts), ("predicate", self.predicates),
                           ("function", funcs)):
            for name, sorts in uses.items():
                bad = [s for s in sorts if s not in self.sorts]
                if bad:
                    errs.append("%s %s %s unknown sort %s" % (
                        noun, name, "of" if noun == "constant" else "over", bad[0]))
        if self.integer_sort is not None and self.integer_sort not in self.sorts:
            errs.append("integer sort %s is not declared" % self.integer_sort)
        return errs


# ---------------------------------------------------------------------------
# walks: children go on the stack in reverse, so nodes come off in preorder


def _preorder(e):
    """The nodes of `e`, in preorder."""
    todo = [e]
    while todo:
        e = todo.pop()
        yield e
        todo += reversed(_shape(e)[0](e))


def free_vars(e):
    """Set of free variables (as Var values) of a term or formula."""
    out, todo = set(), [(e, ())]
    while todo:
        e, bound = todo.pop()
        if type(e) is Var:
            if e not in bound:
                out.add(e)
            continue
        kids, _, binds, _ = _shape(e)
        if binds is BINDS_VAR and e.var not in bound:
            bound = (e.var, *bound)
        kids = kids(e)
        i = len(kids)
        while i:
            i -= 1
            todo.append((kids[i], bound))
    return out


def free_predvars(e):
    """Free predicate-variable names of a formula."""
    out, todo = set(), [(e, frozenset())]
    while todo:
        e, bound = todo.pop()
        kids, _, binds, _ = _shape(e)
        if binds is BINDS_PREDVAR:
            bound = bound | {e.predvar}
        elif type(e) is PredApp and e.predvar not in bound:
            out.add(e.predvar)
        todo += [(k, bound) for k in reversed(kids(e))]
    return out


def subterms(e):
    """All subterms of a term or formula (terms only), preorder."""
    return [x for x in _preorder(e) if isinstance(x, Term)]


_REBUILD = object()     # on _rewrite's stack with (node, kids, leave, new kids, into)


def _rewrite(e, enter):
    """`e` rewritten bottom-up.  `enter(node)`, called parents first, gives
    (new, leave): with `leave` False the result is `new`, else it is `new`
    rebuilt from its rewritten children, passed through `leave` if set."""
    root = []
    todo = [(e, root)]
    while todo:
        e, into = todo.pop()        # `into` collects the results of e's parent
        if e is _REBUILD:
            e, kids, leave, new, into = into
            if any(map(is_not, new, kids)):
                e = _SHAPES[type(e)][1](e, new)
        else:
            e, leave = enter(e)
            kids = leave is not False and _shape(e)[0](e)
            if kids:
                new = []
                todo.append((_REBUILD, (e, kids, leave, new, into)))
                for k in reversed(kids):
                    todo.append((k, new))
                continue
        into.append(e if not leave else leave(e))
    return root[0]


def fresh_name(base, taken):
    """A name not in `taken`, derived from `base` by numeric suffixing."""
    if base not in taken:
        return base
    stem = base.rstrip("0123456789")
    for i in itertools.count(1):
        cand = "%s%d" % (stem, i)
        if cand not in taken:
            return cand


def substitute(e, v, t):
    """Capture-avoiding substitution of term `t` for free variable `v`.

    Works on terms and formulas."""
    return _rewrite(e, _substituting(v, t, {x.name for x in free_vars(t)}))


def _substituting(v, t, tfree):
    """_rewrite's `enter` for `t` in place of `v`.  A binder that would
    capture a name of `tfree` has its variable renamed first."""

    def enter(e):
        if type(e) is Var:
            return (t if e == v else e), False
        if type(e) in _VAR_BINDERS:
            if e.var == v:
                return e, False
            if e.var.name in tfree and v in free_vars(e):
                taken = {*tfree, v.name}.union(*[{x.name for x in free_vars(k)}
                                                 for k in children(e)])
                nv = Var(fresh_name(e.var.name, taken), e.var.sort)
                e = _SHAPES[type(e)][1](replace(e, var=nv), [
                    _rewrite(k, _substituting(e.var, nv, ())) for k in children(e)])
        return e, None

    return enter


def alpha_eq(a, b):
    """Equality up to consistent renaming of bound variables (individual
    and predicate variables, including binder-term bound variables).  `env`
    and `penv` pair the names bound in a and b, innermost first."""
    todo = [(a, b, (), ())]
    while todo:
        a, b, env, penv = todo.pop()
        t = type(a)
        if t is not type(b):
            return False
        if t is Var:
            if a.sort != b.sort or not _same_name(env, a.name, b.name):
                return False
            continue
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
        i = len(ka)
        if i != len(kb):
            return False
        while i:
            i -= 1
            todo.append((ka[i], kb[i], env, penv))
    return True


def _same_name(env, x, y):
    """Whether name `x` in one tree and `y` in the other denote the same
    variable: bound by the same pair of `env`, or both free and equal."""
    for p, q in env:
        if p == x or q == y:
            return p == x and q == y
    return x == y


# ---------------------------------------------------------------------------
# well-sortedness


def well_sorted(e, sig):
    """Check sorts; returns a list of error strings (empty means ok).

    Never raises on malformed input: every problem becomes a diagnostic.
    """
    return _sort(e, sig, is_term(e))[1]


def term_sort(t, sig):
    """Sort of a term under `sig`; raises SortError with the sort check's
    first diagnostic when it has none (an unknown symbol, or not a term)."""
    sort, errs = _sort(t, sig, True)
    if sort is None:
        raise SortError(errs[0])
    return sort


_SORTED, _EQ_RIGHT = object(), object()         # marks on _sort's stack
_ARG_SORT = "argument %(i)d of %(name)s has sort %(got)s, expected %(want)s"
_PREDVAR_SORT = ("predicate variable %(name)s applied at sort %(got)s, "
                 "expected %(want)s")
_EQ_SORTS = "equality between distinct sorts %(want)s and %(got)s"


def _sort(e, sig, term):
    """(sort, errors) of `e` read as a term if `term`, else as a formula
    (sort None), errors in the order a recursive walk finds them.  The stack
    holds (node, env, predvars, want): the sorts of bound variables and of
    predicate variables' arguments, and False for a formula, True for a term,
    or (sort, message, i, name) for a term of that sort.  Checks that follow
    a subtree wait below it: (_SORTED, sort, stray, want) ends a term whose
    sort is read or fails its `want`, or a generic term with `stray` (node,
    env) whose stray variables are reported; (_EQ_RIGHT, env, predvars,
    right) makes the left side's sort the `want` of an equality's right."""
    errs, got, todo = [], None, [(e, {}, {}, term)]
    while todo:
        e, env, predvars, want = todo.pop()
        t = type(e)
        if _IS_TERM.get(t) is not (want is not False):  # a mark, or misplaced
            if e is _EQ_RIGHT:
                todo.append((want, env, predvars,
                             got is None or (got, _EQ_SORTS, 0, "")))
                continue
            if e is not _SORTED:
                errs.append("not a %s: %r" % ("term" if want else "formula", e))
                got = None
                continue
            got = env
            if predvars is not None:
                g, env = predvars
                errs += ["restriction of generic term has stray free variable %s"
                         % x.name for x in {x for x in free_vars(g.restriction)
                                            if x != g.var} if x.name not in env]
        elif t is Atom or t is App:
            app, args = t is App, e.args
            name, noun = (e.func, "function") if app else (e.pred, "predicate")
            if name == EQ and not app:
                if len(args) != 2:
                    errs.append("equality takes two arguments")
                else:
                    todo += ((_EQ_RIGHT, env, predvars, args[1]),
                             (args[0], env, predvars, True))
                continue
            decl = (sig.functions if app else sig.predicates).get(name)
            if app:
                todo.append((_SORTED, None if decl is None else decl[1], None, want))
            if decl is None:
                errs.append("unknown %s %s" % (noun, name))
                todo += [(a, env, predvars, True) for a in reversed(args)]
                continue
            wants = decl[0] if app else decl
            if len(wants) != len(args):
                errs.append("%s %s expects %d arguments, got %d"
                            % (noun, name, len(wants), len(args)))
            i = min(len(wants), len(args))
            while i:
                todo.append((args[i - 1], env, predvars,
                             (wants[i - 1], _ARG_SORT, i, name)))
                i -= 1
            continue
        elif t is Var:
            got = env.get(e.name)
            if got is None:
                got = e.sort
                if got not in sig.sorts:
                    errs.append("variable %s has undeclared sort %s" % (e.name, got))
            elif got != e.sort:
                errs.append("variable %s used at sort %s but bound at %s"
                            % (e.name, e.sort, got))
        elif t is Const:
            got = sig.constants.get(e.name)
            if got is None:
                errs.append("unknown constant %s" % e.name)
        elif t is PredApp:
            s = predvars.get(e.predvar)
            if s is None:
                errs.append("unbound predicate variable %s" % e.predvar)
            todo.append((e.arg, env, predvars,
                         s is None or (s, _PREDVAR_SORT, 0, e.predvar)))
            continue
        elif t is Not:
            todo.append((e.body, env, predvars, False))
            continue
        elif t is And or t is Or or t is Implies:
            todo.append((e.right, env, predvars, False))
            todo.append((e.left, env, predvars, False))
            continue
        else:
            kids, _, binds, _ = _SHAPES[t]
            if t is Binder or t is Generic or t is GenericRestricted:
                sort = e.var.sort if t is Binder else e.sort
                if sort not in sig.sorts:
                    errs.append("binder variable %s has undeclared sort %s"
                                % (e.var.name, sort) if t is Binder else
                                "generic term has undeclared sort %s" % sort)
                if t is GenericRestricted and e.var.sort != sort:
                    errs.append("restriction variable %s of generic term must have "
                                "sort %s" % (e.var.name, sort))
                stray = (e, env) if t is GenericRestricted else None
                if stray or want is True or sort is not None and sort != want[0]:
                    todo.append((_SORTED, sort, stray, want))
            elif t is Quant:
                if e.kind not in QUANT_KINDS:
                    errs.append("unknown quantifier kind %s" % e.kind)
                if e.var.sort not in sig.sorts:
                    errs.append("quantified variable %s has undeclared sort %s"
                                % (e.var.name, e.var.sort))
                if e.mode not in (None, "strict", "weak"):
                    errs.append("bad majority mode %r" % (e.mode,))
                if e.mode is not None and e.kind != MOST:
                    errs.append("majority mode on non-most quantifier")
            elif t is Quant2 and e.sort not in sig.sorts:
                errs.append("second-order quantifier over undeclared sort %s"
                            % e.sort)
            if binds is BINDS_VAR:
                env = {**env, e.var.name: e.var.sort}
            elif binds is BINDS_PREDVAR:
                predvars = {**predvars, e.predvar: e.sort}
            for k in reversed(kids(e)):
                todo.append((k, env, predvars, False))
            continue
        if want is not True and got is not None and got != want[0]:
            errs.append(want[1] % {"got": got, "want": want[0], "i": want[2],
                                   "name": want[3]})
    return got, errs
