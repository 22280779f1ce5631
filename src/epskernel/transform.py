"""Formula translations: Frege embedding of restricted quantifiers, the
epsilon embedding that eliminates forall/exists in favour of choice terms,
individual-concept lifting/lowering, and negation pushing."""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .syntax import (Atom, And, Binder, Implies, Not, Or, PredApp, Quant,
                     Quant2, Var, alpha_eq, free_predvars, free_vars,
                     fresh_name, substitute)


class TransformError(Exception):
    pass


TAG_NOT_FREGE_REDUCIBLE = "not-frege-reducible"


@dataclass(frozen=True)
class Translation:
    formula: object
    tags: tuple = ()


def _map_subformulas(e, fn):
    """Rebuild `e` with `fn` applied bottom-up to every quantifier node,
    including those inside choice-term bodies and generic restrictions."""
    kids = sx.children(e)
    new = [_map_subformulas(k, fn) for k in kids]
    if any(n is not k for n, k in zip(new, kids)):
        e = sx.rebuild(e, new)
    return fn(e) if type(e) is Quant else e


# ---------------------------------------------------------------------------
# Frege restriction embedding


def _frege_step(q):
    """The quantifier node `q` with a restricted forall/exists rewritten to
    its unrestricted form; its subformulas are left as they are."""
    if q.restriction is None:
        return q
    if q.kind == sx.FORALL:
        return Quant(sx.FORALL, q.var, None, Implies(q.restriction, q.body))
    if q.kind == sx.EXISTS:
        return Quant(sx.EXISTS, q.var, None, And(q.restriction, q.body))
    # starred quantifiers and "most" keep their measure-relative restriction
    return q


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


def _atomic_guard(g, var):
    return isinstance(g, Atom) and g.args == (var,)


# ---------------------------------------------------------------------------
# epsilon embedding


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


def quantifier_free(e):
    """No Quant or Quant2 node anywhere in `e`, choice terms included."""
    todo = [e]
    while todo:
        e = todo.pop()
        if type(e) in (Quant, Quant2):
            return False
        todo.extend(sx.children(e))
    return True


# ---------------------------------------------------------------------------
# individual concepts


def concept_guard(predvar, sort, require_nonempty=True, names=("x", "y")):
    """C(X): X holds of at most one individual, and of at least one when
    non-emptiness is required."""
    x = Var(names[0], sort)
    y = Var(names[1], sort)
    at_most_one = Quant(sx.FORALL, x, None, Quant(sx.FORALL, y, None, Implies(
        And(PredApp(predvar, x), PredApp(predvar, y)), Atom(sx.EQ, (x, y)))))
    if not require_nonempty:
        return at_most_one
    return And(at_most_one, Quant(sx.EXISTS, x, None, PredApp(predvar, x)))


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


# ---------------------------------------------------------------------------
# negation pushing


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
        e = sx.rebuild(e, new)
    return e
