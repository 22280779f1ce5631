"""Random formula and proof generation.

Used by the selftest subcommand and by the test suite: the proof corpus
here feeds the machine-checked soundness property (accepted proofs stay
true in every enumerated finite model).
"""

from __future__ import annotations

import random

from . import models, parser, transform
from . import syntax as sx
from .kernel import KernelConfig, ProofTree, Sequent, check_proof
from .syntax import (Atom, And, Binder, Const, Generic, Implies, Not, Or,
                     Quant, Signature, Var, alpha_eq, substitute)

# one sort, two unary predicates, one constant: small enough that all
# models up to size 4 can be enumerated while checking soundness
SIG_UNARY = Signature(
    sorts=frozenset({"s"}),
    constants={"c": "s"},
    predicates={"P": ("s",), "Q": ("s",)},
)

# richer two-sorted signature for parser round-trip exercises
SIG_FULL = Signature(
    sorts=frozenset({"s", "t"}),
    constants={"c": "s", "d": "t"},
    functions={"f": (("s",), "t")},
    predicates={"P": ("s",), "Q": ("s",), "R": ("s", "t"), "Z": ()},
)


def random_term(rng, sig, sort, scope, depth):
    """Random term of the given sort; `scope` maps names to sorts."""
    opts = ["const"] if any(s == sort for s in sig.constants.values()) else []
    opts += ["var"] * sum(1 for s in scope.values() if s == sort)
    if depth > 0:
        opts += ["binder", "app"]
    kind = rng.choice(opts or ["binder"])
    if kind == "const":
        return Const(rng.choice([c for c, s in sig.constants.items() if s == sort]))
    if kind == "var":
        name = rng.choice([n for n, s in scope.items() if s == sort])
        return Var(name, sort)
    if kind == "app":
        fits = [(f, a) for f, (a, r) in sig.functions.items() if r == sort]
        if not fits:
            return random_term(rng, sig, sort, scope, 0)
        f, arg_sorts = rng.choice(fits)
        return sx.App(f, tuple(random_term(rng, sig, a, scope, depth - 1)
                               for a in arg_sorts))
    v = Var("b%d" % rng.randrange(4), sort)
    inner = dict(scope)
    inner[v.name] = sort
    body = random_formula(rng, sig, depth - 1, inner)
    return Binder(rng.choice(sx.BINDER_KINDS), v, body)


def random_atom(rng, sig, scope):
    preds = sorted(sig.predicates)
    p = rng.choice(preds)
    args = tuple(random_term(rng, sig, s, scope, 1) for s in sig.predicates[p])
    return Atom(p, args)


def random_formula(rng, sig, depth, scope=None, stars=False):
    """Random well-sorted formula; free variables come from `scope`."""
    scope = dict(scope or {})
    if depth <= 0:
        return random_atom(rng, sig, scope)
    kind = rng.choice(["atom", "not", "and", "or", "implies",
                       "quant", "quant", "restricted"])
    if kind == "atom":
        return random_atom(rng, sig, scope)
    if kind == "not":
        return Not(random_formula(rng, sig, depth - 1, scope, stars))
    if kind in ("and", "or", "implies"):
        cls = {"and": And, "or": Or, "implies": Implies}[kind]
        return cls(random_formula(rng, sig, depth - 1, scope, stars),
                   random_formula(rng, sig, depth - 1, scope, stars))
    sort = rng.choice(sorted(sig.sorts))
    v = Var("v%d" % rng.randrange(4), sort)
    inner = dict(scope)
    inner[v.name] = sort
    kinds = [sx.FORALL, sx.EXISTS]
    if stars:
        kinds += [sx.FORALL_STAR, sx.EXISTS_STAR, sx.MOST]
    qk = rng.choice(kinds)
    mode = rng.choice(["strict", "weak", None]) if qk == sx.MOST else None
    restr = None
    if kind == "restricted" or qk == sx.MOST:
        restr = random_formula(rng, sig, 0, inner)
    return Quant(qk, v, restr, random_formula(rng, sig, depth - 1, inner, stars),
                 mode)


def random_closed_formula(rng, sig, depth, stars=False):
    return random_formula(rng, sig, depth, {}, stars)


# ---------------------------------------------------------------------------
# proof corpus


def _hyp(gamma, f, line):
    return ProofTree(Sequent(tuple(gamma), f), "hyp", line=line)


def proof_corpus(rng, n=220, sig=SIG_UNARY):
    """`n` proof trees, all of which must be accepted by check_proof under
    the default kernel configuration."""
    out = []
    i = 0
    while len(out) < n:
        out.append(_PROOF_TEMPLATES[i % len(_PROOF_TEMPLATES)](rng, sig))
        i += 1
    return out


def _rand(rng, sig, depth=1):
    return random_closed_formula(rng, sig, depth)


def _unary_body(rng, sig, v):
    """Formula with `v` guaranteed free, for quantifier templates."""
    f = random_formula(rng, sig, 1, {v.name: v.sort})
    if any(w == v for w in sx.free_vars(f)):
        return f
    anchor = Atom(rng.choice(sorted(p for p, a in sig.predicates.items()
                                    if a == (v.sort,))), (v,))
    return rng.choice([And, Or])(anchor, f)


def _t_and(rng, sig):
    a, b = _rand(rng, sig), _rand(rng, sig)
    g = (a, b)
    t1, t2 = _hyp(g, a, 1), _hyp(g, b, 2)
    return ProofTree(Sequent(g, And(a, b)), "and-i", (t1, t2), line=3)


def _t_and_e(rng, sig):
    a, b = _rand(rng, sig), _rand(rng, sig)
    g = (And(a, b),)
    t1 = _hyp(g, And(a, b), 1)
    which = rng.choice([("and-e1", a), ("and-e2", b)])
    return ProofTree(Sequent(g, which[1]), which[0], (t1,), line=2)


def _t_or_i(rng, sig):
    a, b = _rand(rng, sig), _rand(rng, sig)
    g = (a,)
    t1 = _hyp(g, a, 1)
    if rng.random() < 0.5:
        return ProofTree(Sequent(g, Or(a, b)), "or-i1", (t1,), line=2)
    return ProofTree(Sequent(g, Or(b, a)), "or-i2", (t1,), line=2)


def _t_imp(rng, sig):
    a, b = _rand(rng, sig), _rand(rng, sig)
    g = (Implies(a, b), a)
    t1, t2 = _hyp(g, Implies(a, b), 1), _hyp(g, a, 2)
    return ProofTree(Sequent(g, b), "imp-e", (t1, t2), line=3)


def _t_imp_i(rng, sig):
    a = _rand(rng, sig)
    t1 = _hyp((a,), a, 1)
    return ProofTree(Sequent((), Implies(a, a)), "imp-i", (t1,), line=2)


def _t_not_e(rng, sig):
    a, b = _rand(rng, sig), _rand(rng, sig)
    g = (a, Not(a))
    t1, t2 = _hyp(g, a, 1), _hyp(g, Not(a), 2)
    return ProofTree(Sequent(g, b), "not-e", (t1, t2), line=3)


def _t_not_i(rng, sig):
    a = _rand(rng, sig)
    contradiction = And(a, Not(a))
    g = (contradiction,)
    t1 = _hyp(g, contradiction, 1)
    t2 = ProofTree(Sequent(g, a), "and-e1", (t1,), line=2)
    t3 = ProofTree(Sequent(g, Not(a)), "and-e2", (t1,), line=3)
    return ProofTree(Sequent((), Not(contradiction)), "not-i", (t2, t3), line=4)


def _t_or_e(rng, sig):
    a, b, c = _rand(rng, sig), _rand(rng, sig), _rand(rng, sig)
    g = (Or(a, b), Implies(a, c), Implies(b, c))
    t1 = _hyp(g, Or(a, b), 1)

    def case(h, line):
        gg = g + (h,)
        th = _hyp(gg, h, line)
        ti = _hyp(gg, Implies(h, c), line + 1)
        return ProofTree(Sequent(gg, c), "imp-e", (ti, th), line=line + 2)

    return ProofTree(Sequent(g, c), "or-e", (t1, case(a, 2), case(b, 5)), line=8)


def _t_forall_e(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    fa = Quant(sx.FORALL, v, None, body)
    t = rng.choice([Const("c"),
                    Binder(sx.EPS, v, body),
                    Binder(sx.TAU, v, body),
                    Binder(sx.EPS, v, Not(body))])
    g = (fa,)
    t1 = _hyp(g, fa, 1)
    return ProofTree(Sequent(g, substitute(body, v, t)), "forall-e", (t1,),
                     witness=("x", t), line=2)


def _t_exists_i(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    inst = substitute(body, v, Const("c"))
    g = (inst,)
    t1 = _hyp(g, inst, 1)
    return ProofTree(Sequent(g, Quant(sx.EXISTS, v, None, body)), "exists-i",
                     (t1,), witness=("x", Const("c")), line=2)


def _t_forall_to_exists(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    fa = Quant(sx.FORALL, v, None, body)
    inst = substitute(body, v, Const("c"))
    g = (fa,)
    t1 = _hyp(g, fa, 1)
    t2 = ProofTree(Sequent(g, inst), "forall-e", (t1,),
                   witness=("x", Const("c")), line=2)
    return ProofTree(Sequent(g, Quant(sx.EXISTS, v, None, body)), "exists-i",
                     (t2,), witness=("x", Const("c")), line=3)


def _t_eps_intro(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    inst = substitute(body, v, Const("c"))
    eps = Binder(sx.EPS, v, body)
    g = (inst,)
    t1 = _hyp(g, inst, 1)
    return ProofTree(Sequent(g, substitute(body, v, eps)), "eps-intro", (t1,),
                     witness=("x", Const("c")), line=2)


def _t_tau_dual(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    inst = substitute(body, v, Const("c"))
    tau = Binder(sx.TAU, v, Not(body))
    g = (inst,)
    t1 = _hyp(g, inst, 1)
    return ProofTree(Sequent(g, substitute(body, v, tau)), "tau-dual", (t1,),
                     witness=("x", Const("c")), line=2)


def _t_exists_e_eps(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    ex = Quant(sx.EXISTS, v, None, body)
    eps = Binder(sx.EPS, v, body)
    target = substitute(body, v, eps)
    x = Var("x", "s")
    inst = substitute(body, v, x)
    t1 = _hyp((ex,), ex, 1)
    t2 = _hyp((inst,), inst, 2)
    t3 = ProofTree(Sequent((inst,), target), "eps-intro", (t2,),
                   witness=("x", x), line=3)
    return ProofTree(Sequent((ex,), target), "exists-e", (t1, t3),
                     eigen="x", line=4)


def _t_tau_intro(rng, sig):
    # forall y. F |- F(tau x. F) via a generic instance
    v = Var("y", "s")
    body = _unary_body(rng, sig, v)
    fa = Quant(sx.FORALL, v, None, body)
    x = Var("x", "s")
    inst = substitute(body, v, x)
    xbody = substitute(body, v, x)
    tau = Binder(sx.TAU, x, xbody)
    g = (fa,)
    t1 = _hyp(g, fa, 1)
    t2 = ProofTree(Sequent(g, inst), "forall-e", (t1,), witness=("y", x), line=2)
    return ProofTree(Sequent(g, substitute(xbody, x, tau)), "tau-intro", (t2,),
                     eigen="x", line=3)


def _t_eps_dual(rng, sig):
    v = Var("y", "s")
    body = _unary_body(rng, sig, v)
    fa = Quant(sx.FORALL, v, None, body)
    x = Var("x", "s")
    xbody = substitute(body, v, x)
    eps = Binder(sx.EPS, x, Not(xbody))
    g = (fa,)
    t1 = _hyp(g, fa, 1)
    t2 = ProofTree(Sequent(g, xbody), "forall-e", (t1,), witness=("y", x), line=2)
    return ProofTree(Sequent(g, substitute(xbody, x, eps)), "eps-dual", (t2,),
                     eigen="x", line=3)


def _t_forall_i_tau(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    tau = Binder(sx.TAU, v, body)
    inst = substitute(body, v, tau)
    g = (inst,)
    t1 = _hyp(g, inst, 1)
    return ProofTree(Sequent(g, Quant(sx.FORALL, v, None, body)), "forall-i",
                     (t1,), line=2)


def _t_exists_e_general(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    goal = _rand(rng, sig)
    ex = Quant(sx.EXISTS, v, None, body)
    step = Quant(sx.FORALL, v, None, Implies(body, goal))
    x0 = Var("x0", "s")
    inst = substitute(body, v, x0)
    g = (ex, step)
    case_g = (step, inst)
    t1 = _hyp(g, ex, 1)
    t2 = _hyp(case_g, step, 2)
    t3 = ProofTree(Sequent(case_g, Implies(inst, goal)), "forall-e", (t2,),
                   witness=("x", x0), line=3)
    t4 = _hyp(case_g, inst, 4)
    t5 = ProofTree(Sequent(case_g, goal), "imp-e", (t3, t4), line=5)
    return ProofTree(Sequent(g, goal), "exists-e", (t1, t5), eigen="x0", line=6)


def _t_star_weaken(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    fa = Quant(sx.FORALL, v, None, body)
    g = (fa,)
    t1 = _hyp(g, fa, 1)
    return ProofTree(Sequent(g, Quant(sx.FORALL_STAR, v, None, body)),
                     "star-weaken", (t1,), line=2)


def _t_star_strengthen(rng, sig):
    v = Var("x", "s")
    body = _unary_body(rng, sig, v)
    es = Quant(sx.EXISTS_STAR, v, None, body)
    g = (es,)
    t1 = _hyp(g, es, 1)
    return ProofTree(Sequent(g, Quant(sx.EXISTS, v, None, body)),
                     "star-strengthen", (t1,), line=2)


def _t_maj_minority(rng, sig):
    v = Var("x", "s")
    p = _unary_body(rng, sig, v)
    restr = rng.choice([None, Atom("Q", (v,))])
    prem = Quant(sx.MOST, v, restr, Not(p), "strict")
    concl = Not(Quant(sx.MOST, v, restr, p, "weak"))
    g = (prem,)
    t1 = _hyp(g, prem, 1)
    return ProofTree(Sequent(g, concl), "maj-refute-minority", (t1,), line=2)


def _t_maj_disjoint(rng, sig):
    v = Var("x", "s")
    p, q = Atom("P", (v,)), Atom("Q", (v,))
    maj = Quant(sx.MOST, v, None, q, "strict")
    sep = Quant(sx.FORALL, v, None, Not(And(p, q)))
    concl = Not(Quant(sx.MOST, v, None, p, "weak"))
    g = (maj, sep)
    t1, t2 = _hyp(g, maj, 1), _hyp(g, sep, 2)
    return ProofTree(Sequent(g, concl), "maj-refute-disjoint", (t1, t2), line=3)


_PROOF_TEMPLATES = [
    _t_and, _t_and_e, _t_or_i, _t_imp, _t_imp_i, _t_not_e, _t_not_i, _t_or_e,
    _t_forall_e, _t_exists_i, _t_forall_to_exists, _t_eps_intro, _t_tau_dual,
    _t_exists_e_eps, _t_tau_intro, _t_eps_dual, _t_forall_i_tau,
    _t_exists_e_general, _t_star_weaken, _t_star_strengthen,
    _t_maj_minority, _t_maj_disjoint,
]


def mutate_eigenvariable(proof):
    """Break an eigenvariable side condition by adding a hypothesis that
    mentions the eigenvariable to every sequent in the tree.  The mutated
    proof must be rejected.  Returns None when the proof has no
    eigenvariable annotation."""
    eigen = [None]

    def find(node):
        if node.eigen is not None:
            eigen[0] = node.eigen
        for p in node.premises:
            find(p)

    find(proof)
    if eigen[0] is None:
        return None
    leak = Atom("P", (Var(eigen[0], "s"),))

    def widen(node):
        seq = Sequent((leak,) + node.sequent.hypotheses, node.sequent.conclusion)
        return ProofTree(seq, node.rule, tuple(widen(p) for p in node.premises),
                         node.witness, node.eigen, node.line)

    return widen(proof)


# ---------------------------------------------------------------------------
# selftest


def run_selftest(rng, size=3, report=print):
    """Embedded invariant suites over generated formulas and models.
    Returns a list of failure descriptions (empty = all green)."""
    failures = []

    def suite(name, ok, detail=""):
        report("%-40s %s%s" % (name, "ok" if ok else "FAIL",
                               " (%s)" % detail if detail else ""))
        if not ok:
            failures.append(name + (": " + detail if detail else ""))

    # parser round trip
    bad = 0
    for _ in range(200):
        f = random_closed_formula(rng, SIG_FULL, rng.randrange(1, 4), stars=True)
        g = parser.parse_formula(parser.print_formula(f), SIG_FULL)
        if not alpha_eq(f, g):
            bad += 1
    suite("parse/print round trip (200 formulas)", bad == 0, "%d mismatches" % bad)

    # eps/tau equivalences on all unary models
    sig1 = Signature(frozenset({"s"}), {}, {}, {"P": ("s",)})
    v = Var("x", "s")
    px = Atom("P", (v,))
    bad = 0
    for m in models.enumerate_models(sig1, size):
        eqs = [
            (Atom("P", (Binder(sx.EPS, v, px),)), Quant(sx.EXISTS, v, None, px)),
            (Atom("P", (Binder(sx.TAU, v, px),)), Quant(sx.FORALL, v, None, px)),
        ]
        for lhs, rhs in eqs:
            if models.truth(m, lhs) != models.truth(m, rhs):
                bad += 1
    suite("eps/tau choice equivalences", bad == 0, "%d countermodels" % bad)

    # quantifier duality, including the starred pair
    bad = 0
    for _ in range(50):
        f = random_closed_formula(rng, SIG_UNARY, 2, stars=True)
        try:
            nnf = transform.push_negation(Not(f))
        except transform.TransformError:    # it rejects "most"
            continue
        for m in models.enumerate_models(SIG_UNARY, min(size, 3)):
            if models.truth(m, Not(f)) != models.truth(m, nnf):
                bad += 1
                break
    suite("negation pushing preserves truth", bad == 0, "%d countermodels" % bad)

    # proof corpus is accepted
    bad = 0
    for p in proof_corpus(rng, 60):
        if not check_proof(p, SIG_UNARY, KernelConfig()).accepted:
            bad += 1
    suite("proof corpus accepted", bad == 0, "%d rejected" % bad)

    return failures
