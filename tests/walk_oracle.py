"""The recursive walks that syntax.py and transform.py ran before one
explicit-stack walk replaced them, kept as the differential oracle for
tests/test_walks.py.

Each function here is the old code as it was: free variables, predicate
variables, subterms, capture-avoiding substitution, alpha equivalence,
the bottom-up map behind the translations, the translations on it, and
negation pushing.  Their values and exceptions are the reference; they
recurse once per level of nesting.  rebuild, which syntax.py no longer
has, is defined here as it was.  One mend was made in both places:
_rename_bound renames an inner binder of the new name in turn, so that
renaming cannot capture.  node_eq is the == that the dataclass methods gave
every node class before the classes with children took theirs from
syntax.node_key.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

from epskernel import syntax as sx
from epskernel.syntax import (BINDS_PREDVAR, BINDS_VAR, And, Atom, Binder,
                              Implies, Not, Or, PredApp, Quant, Quant2, Term,
                              Var, _shape, children, fresh_name)
from epskernel.transform import (TAG_NOT_FREGE_REDUCIBLE, TransformError,
                                 Translation, _atomic_guard, _frege_step,
                                 concept_guard)


def node_eq(a, b):
    """== as the dataclass methods defined it: the same class and equal
    fields, in order, a tuple of fields item by item."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(node_eq, a, b))
    if is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            node_eq(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b


def rebuild(e, kids):
    """A node like `e` with its children replaced by `kids`."""
    return _shape(e)[1](e, kids)


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


def substitute(e, v, t):
    """Capture-avoiding substitution of term `t` for free variable `v`.

    Works on terms and formulas.
    """
    return _subst(e, v, t, frozenset(x.name for x in free_vars(t)))


def _rename_bound(e, v, avoid):
    """`e` with its bound variable renamed away from `avoid`, `v` and the
    free variables of its children, so that substituting for `v` inside
    cannot capture.  The renaming renames in turn any inner binder of the
    new name."""
    kids = children(e)
    taken = set(avoid) | {v.name}
    for k in kids:
        taken |= {x.name for x in free_vars(k)}
    nv = Var(fresh_name(e.var.name, taken), e.var.sort)
    return rebuild(replace(e, var=nv),
                   [_subst(k, e.var, nv, frozenset({nv.name})) for k in kids])


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


def _map_subformulas(e, fn):
    """Rebuild `e` with `fn` applied bottom-up to every quantifier node,
    including those inside choice-term bodies and generic restrictions."""
    kids = sx.children(e)
    new = [_map_subformulas(k, fn) for k in kids]
    if any(n is not k for n, k in zip(new, kids)):
        e = rebuild(e, new)
    return fn(e) if type(e) is Quant else e


def frege_embed(f):
    """Rewrite restricted forall/exists to the unrestricted implication and
    conjunction forms.  "most" is left untouched; its presence is reported
    through the not-frege-reducible tag."""
    has_most = [False]

    def step(q):
        has_most[0] = has_most[0] or q.kind == sx.MOST
        return _frege_step(q)

    out = _map_subformulas(f, step)
    tags = (TAG_NOT_FREGE_REDUCIBLE,) if has_most[0] else ()
    return Translation(out, tags)


def frege_unembed(f):
    """Inverse pattern: forall x.(M => P) and exists x.(M and P), with an
    atomic guard M over the bound variable, become restricted forms."""

    def step(q):
        if q.restriction is not None:
            return q
        if q.kind == sx.FORALL and isinstance(q.body, Implies) \
                and _atomic_guard(q.body.left, q.var):
            return Quant(sx.FORALL, q.var, q.body.left, q.body.right)
        if q.kind == sx.EXISTS and isinstance(q.body, And) \
                and _atomic_guard(q.body.left, q.var):
            return Quant(sx.EXISTS, q.var, q.body.left, q.body.right)
        return q

    return Translation(_map_subformulas(f, step))


def epsilon_embed(f, use_tau=False):
    """Eliminate forall/exists innermost-first:

        exists x. F  ->  F[x := eps x. F]
        forall x. F  ->  F[x := eps x. not F]     (tau x. F when use_tau)

    Restricted forms are Frege-embedded first.  Starred quantifiers and
    "most" are rejected: they have no choice-term equivalent here."""

    def step(q):
        if q.kind in (sx.MOST, sx.FORALL_STAR, sx.EXISTS_STAR):
            raise TransformError("cannot epsilon-embed a %s quantifier" % q.kind)
        q = _frege_step(q)
        if q.kind == sx.EXISTS:
            return substitute(q.body, q.var, Binder(sx.EPS, q.var, q.body))
        if use_tau:
            return substitute(q.body, q.var, Binder(sx.TAU, q.var, q.body))
        return substitute(q.body, q.var, Binder(sx.EPS, q.var, Not(q.body)))

    return _map_subformulas(f, step)


def lift_to_concepts(f, require_nonempty=True):
    """Replace first-order forall/exists by second-order quantification over
    individual concepts:

        forall x. P  ->  forall2 X. (C(X) implies exists x. (X(x) and P))
        exists x. P  ->  exists2 X. (C(X) and exists x. (X(x) and P))
    """
    used = set(free_predvars(f))

    def step(q):
        if q.kind not in (sx.FORALL, sx.EXISTS) or q.restriction is not None:
            raise TransformError("concept lifting applies to unrestricted "
                                 "forall/exists only")
        pv = fresh_name("X", used)
        used.add(pv)
        member = Quant(sx.EXISTS, q.var, None, And(PredApp(pv, q.var), q.body))
        guard = concept_guard(pv, q.var.sort, require_nonempty)
        if q.kind == sx.FORALL:
            return Quant2(sx.FORALL2, pv, q.var.sort, Implies(guard, member))
        return Quant2(sx.EXISTS2, pv, q.var.sort, And(guard, member))

    return _map_subformulas(f, step)


def lower_from_concepts(f, require_nonempty=True):
    """Inverse direction for guarded second-order shapes:

        forall2 X. (C(X) implies Q(X))  ->
            forall x. exists2 X. (C(X) and X(x) and Q(X))

    and dually for exists2.  Raises TransformError on shape mismatch."""
    if not isinstance(f, Quant2):
        raise TransformError("expected a second-order quantifier")
    pv, sort = f.predvar, f.sort
    guard = concept_guard(pv, sort, require_nonempty)
    guard_loose = concept_guard(pv, sort, False)

    def match_guard(g):
        return alpha_eq(_wrap(pv, sort, g), _wrap(pv, sort, guard)) \
            or alpha_eq(_wrap(pv, sort, g), _wrap(pv, sort, guard_loose))

    if f.kind == sx.FORALL2 and isinstance(f.body, Implies) \
            and match_guard(f.body.left):
        q_of = f.body.right
    elif f.kind == sx.EXISTS2 and isinstance(f.body, And) \
            and match_guard(f.body.left):
        q_of = f.body.right
    else:
        raise TransformError("body is not of the guarded C(X) shape")

    xname = fresh_name("x", {v.name for v in free_vars(f)})
    x = Var(xname, sort)
    inner = Quant2(sx.EXISTS2, pv, sort,
                   And(And(f.body.left, PredApp(pv, x)), q_of))
    outer_kind = sx.FORALL if f.kind == sx.FORALL2 else sx.EXISTS
    return Quant(outer_kind, x, None, inner)


def _wrap(pv, sort, g):
    # compare guards up to the predicate-variable name
    return Quant2(sx.FORALL2, pv, sort, g)


def push_negation(f):
    """Negation-normal form over the forall/exists/forall*/exists* fragment:
    negations end up on atoms, double negations vanish, and negated
    quantifiers flip to their duals.  Choice-term bodies and generic
    restrictions inside atoms are normalised too."""
    return _nnf(f, False)


def _nnf(f, neg):
    if isinstance(f, (Atom, PredApp)):
        f = _nnf_inside(f)
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.body, not neg)
    if isinstance(f, And):
        if neg:
            return Or(_nnf(f.left, True), _nnf(f.right, True))
        return And(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Or):
        if neg:
            return And(_nnf(f.left, True), _nnf(f.right, True))
        return Or(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Implies):
        if neg:
            return And(_nnf(f.left, False), _nnf(f.right, True))
        return Or(_nnf(f.left, True), _nnf(f.right, False))
    if isinstance(f, Quant):
        dual = {sx.FORALL: sx.EXISTS, sx.EXISTS: sx.FORALL,
                sx.FORALL_STAR: sx.EXISTS_STAR, sx.EXISTS_STAR: sx.FORALL_STAR}
        if f.kind not in dual:
            raise TransformError("cannot push negation through %s" % f.kind)
        kind = dual[f.kind] if neg else f.kind
        restr = None if f.restriction is None else _nnf(f.restriction, False)
        return Quant(kind, f.var, restr, _nnf(f.body, neg))
    if isinstance(f, Quant2):
        kind = f.kind
        if neg:
            kind = sx.EXISTS2 if kind == sx.FORALL2 else sx.FORALL2
        return Quant2(kind, f.predvar, f.sort, _nnf(f.body, neg))
    raise TransformError("not a formula: %r" % (f,))


def _nnf_inside(e):
    """`e`, an atom or a term, with the formulas of its choice terms and
    generic restrictions in negation-normal form."""
    kids = sx.children(e)
    new = [_nnf(k, False) if sx.is_formula(k) else _nnf_inside(k) for k in kids]
    if any(n is not k for n, k in zip(new, kids)):
        e = rebuild(e, new)
    return e
