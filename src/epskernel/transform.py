"""Formula translations: Frege embedding of restricted quantifiers, the
epsilon embedding that eliminates forall/exists in favour of choice terms,
individual-concept lifting/lowering, and negation pushing.  Each is one
syntax._rewrite, so it returns on formulas of any depth."""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .syntax import (Atom, And, Binder, Implies, Not, Or, PredApp, Quant,
                     Quant2, Var, _preorder, _rewrite, alpha_eq,
                     free_predvars, free_vars, fresh_name, substitute)


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
    return _rewrite(e, lambda n: (n, fn if type(n) is Quant else None))


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
    out = _map_subformulas(f, _frege_step)
    most = any(type(q) is Quant and q.kind == sx.MOST for q in _preorder(f))
    return Translation(out, (TAG_NOT_FREGE_REDUCIBLE,) if most else ())


def frege_unembed(f):
    """Inverse pattern: forall x.(M => P) and exists x.(M and P), with an
    atomic guard M over the bound variable, become restricted forms."""

    def step(q):
        shape = {sx.FORALL: Implies, sx.EXISTS: And}.get(q.kind)
        if q.restriction is None and isinstance(q.body, shape or ()) \
                and _atomic_guard(q.body.left, q.var):
            return Quant(q.kind, q.var, q.body.left, q.body.right)
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
    return not any(type(n) in (Quant, Quant2) for n in _preorder(e))


# ---------------------------------------------------------------------------
# individual concepts


def concept_guard(predvar, sort, require_nonempty=True):
    """C(X): X holds of at most one individual, and of at least one when
    non-emptiness is required."""
    x, y = Var("x", sort), Var("y", sort)
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
        return alpha_eq(g, guard) or alpha_eq(g, guard_loose)

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


# ---------------------------------------------------------------------------
# negation pushing


def push_negation(f):
    """Negation-normal form over the forall/exists/forall*/exists* fragment:
    negations end up on atoms, double negations vanish, and negated
    quantifiers flip to their duals.  Choice-term bodies and generic
    restrictions inside atoms are normalised too."""
    return _rewrite(_formula_slot(f), _negation_step)


_DUALS = {sx.FORALL: sx.EXISTS, sx.EXISTS: sx.FORALL,
          sx.FORALL_STAR: sx.EXISTS_STAR, sx.EXISTS_STAR: sx.FORALL_STAR}


def _formula_slot(x):
    """`x` where a formula belongs: a non-formula comes wrapped in a double
    negation, which the step at it strips and rejects."""
    return x if sx.is_formula(x) else Not(Not(x))


def _negation_step(f):
    """One step of push_negation at `f`, as _rewrite's `enter`: strip pairs
    of nots, then dualise one connective or quantifier, moving a negation
    onto its parts, or leave a negated atom wrapped.  Atoms and terms stay
    as they are, so the step reaches their choice terms' formulas in turn."""
    g, neg = f, False
    while type(g) is Not:
        g, neg = g.body, not neg
    t = type(g)
    if t is Implies:                    # a implies b is (not a) or b
        g, t = Or(Not(g.left), g.right), Or
    if t is And or t is Or:
        if neg:
            return (Or if t is And else And)(Not(g.left), Not(g.right)), None
        return t(_formula_slot(g.left), _formula_slot(g.right)), None
    if t is Quant and g.kind not in _DUALS:
        raise TransformError("cannot push negation through %s" % g.kind)
    if t is Quant or t is Quant2:
        body = Not(g.body) if neg else _formula_slot(g.body)
        if t is Quant2:
            kind = sx.EXISTS2 if g.kind == sx.FORALL2 else sx.FORALL2
            return Quant2(kind if neg else g.kind, g.predvar, g.sort, body), None
        r = None if g.restriction is None else _formula_slot(g.restriction)
        return Quant(_DUALS[g.kind] if neg else g.kind, g.var, r, body), None
    if t is Atom or t is PredApp:
        return (Not(g) if neg else g), None
    if g is not f:
        raise TransformError("not a formula: %r" % (g,))
    return g, None
