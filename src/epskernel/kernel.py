"""Natural-deduction proof checker over sequents.

The kernel validates explicit proof trees; it never searches.  Rules cover
the classical connectives, the quantifier rules with their eigenvariable
side conditions, the Hilbert eps/tau introduction rules and their duals,
the starred-quantifier regime rules and the two majority refutation rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax as sx
from .syntax import (Atom, And, Binder, Generic, GenericRestricted, Implies,
                     Not, Or, Quant, Var, alpha_eq, free_vars, substitute,
                     subterms, term_sort)


@dataclass(frozen=True)
class Sequent:
    hypotheses: tuple
    conclusion: object


@dataclass(frozen=True)
class ProofTree:
    sequent: Sequent
    rule: str
    premises: tuple = ()
    witness: object = None    # (variable name, Term)
    eigen: object = None      # variable name
    line: object = None       # script line number, for reporting

    # A proof script's cited lines are shared nodes.  The generated methods
    # would recurse into premises and so cost the size of the expanded
    # tree: `==` visits each pair of nodes once, `hash` reads the root's
    # own fields only (equal trees have equal roots), and the repr names
    # premises by their line.

    def __repr__(self):
        cited = ", ".join("line %s" % p.line if isinstance(p, ProofTree)
                          else repr(p) for p in self.premises)
        return ("ProofTree(sequent=%r, rule=%r, premises=(%s), witness=%r, "
                "eigen=%r, line=%r)" % (self.sequent, self.rule, cited,
                                        self.witness, self.eigen, self.line))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        done = set()     # id pairs seen; all stay alive through self, other
        while todo:
            x, y = todo.pop()
            if x is y or (id(x), id(y)) in done:
                continue
            done.add((id(x), id(y)))
            if not (isinstance(x, ProofTree) and y.__class__ is x.__class__):
                if x == y:
                    continue
                return False
            if (x.sequent, x.rule, x.witness, x.eigen, x.line,
                    len(x.premises)) != (y.sequent, y.rule, y.witness,
                                         y.eigen, y.line, len(y.premises)):
                return False
            todo.extend(zip(x.premises, y.premises))
        return True

    def __hash__(self):
        return hash((self.sequent, self.rule, self.witness, self.eigen,
                     self.line, len(self.premises)))


@dataclass(frozen=True)
class KernelConfig:
    star_regime: str = "B"
    allow_most_instantiation: bool = False


@dataclass
class Failure:
    line: object
    rule: str
    condition: str
    message: str

    def __str__(self):
        where = "line %s" % self.line if self.line is not None else "node"
        return "%s (%s): %s: %s" % (where, self.rule, self.condition, self.message)


@dataclass
class Verdict:
    accepted: bool
    failures: list
    nodes: list = field(default_factory=list)  # (line, rule, ok) in check order


def _member(f, fs):
    return any(f is g or alpha_eq(f, g) for g in fs)


def _subset(small, big):
    return all(_member(f, big) for f in small)


def _minus(fs, f):
    return tuple(g for g in fs if not (g is f or alpha_eq(g, f)))


def _name_free_in(name, fs):
    return any(v.name == name for f in fs for v in free_vars(f))


def check_proof(proof, sig, cfg=None):
    """Check a proof tree; returns a Verdict.  Checking is total: every
    violated side condition becomes a failure record, nothing raises.

    Premises are checked before their conclusion.  A node object shared by
    several conclusions, as a proof script's cited lines are, is checked
    once, and so is the sort of a formula object that several sequents
    carry, as a proof script's repeated formulas are."""
    cfg = cfg or KernelConfig()
    failures = []
    nodes = []
    done = set()     # ids of nodes seen; all stay alive through `proof`
    sorted_ok = set()     # ids of formulas found well-sorted, likewise
    todo = [(proof, False)]
    while todo:
        node, ready = todo.pop()
        if ready:
            _check_node(node, sig, cfg, failures, nodes, sorted_ok)
        elif id(node) not in done:
            done.add(id(node))
            todo.append((node, True))
            todo.extend((p, False) for p in reversed(node.premises))
    return Verdict(not failures, failures, nodes)


def _check_node(node, sig, cfg, failures, nodes, sorted_ok):
    """Checks `node` alone; an ill-sorted formula is reported at every node
    that carries it, and the id of a well-sorted one joins `sorted_ok`."""
    before = len(failures)

    def fail(condition, message):
        failures.append(Failure(node.line, node.rule, condition, message))

    for f in (*node.sequent.hypotheses, node.sequent.conclusion):
        if id(f) not in sorted_ok:
            errs = sx.well_sorted(f, sig)
            for e in errs:
                fail("well-sorted", e)
            if not errs:
                sorted_ok.add(id(f))

    arity, checker = RULES.get(node.rule, (None, None))
    if checker is None:
        fail("rule", "unknown rule %r" % node.rule)
    elif len(node.premises) != arity:
        fail("arity", "%s takes %d premises, got %d"
             % (node.rule, arity, len(node.premises)))
    else:
        checker(node, sig, cfg, fail)
    nodes.append((node.line, node.rule, len(failures) == before))


def _premise_hyps_ok(node, fail, discharged=()):
    """Every premise hypothesis (minus per-premise discharged formulas)
    must appear among the conclusion's hypotheses."""
    dis = dict(discharged)
    for i, p in enumerate(node.premises):
        hyps = p.sequent.hypotheses
        for d in dis.get(i, ()):
            hyps = _minus(hyps, d)
        if not _subset(hyps, node.sequent.hypotheses):
            fail("hypotheses", "premise %d carries a hypothesis the conclusion "
                 "does not" % (i + 1))


def _chk_hyp(node, sig, cfg, fail):
    if not _member(node.sequent.conclusion, node.sequent.hypotheses):
        fail("hyp", "conclusion is not among the hypotheses")


def _chk_and_i(node, sig, cfg, fail):
    c = node.sequent.conclusion
    if not isinstance(c, And):
        fail("shape", "conclusion is not a conjunction")
        return
    if not alpha_eq(node.premises[0].sequent.conclusion, c.left):
        fail("shape", "first premise does not prove the left conjunct")
    if not alpha_eq(node.premises[1].sequent.conclusion, c.right):
        fail("shape", "second premise does not prove the right conjunct")
    _premise_hyps_ok(node, fail)


def _chk_and_e(which):
    def chk(node, sig, cfg, fail):
        p = node.premises[0].sequent.conclusion
        if not isinstance(p, And):
            fail("shape", "premise is not a conjunction")
            return
        part = p.left if which == 1 else p.right
        if not alpha_eq(node.sequent.conclusion, part):
            fail("shape", "conclusion is not the selected conjunct")
        _premise_hyps_ok(node, fail)
    return chk


def _chk_or_i(which):
    def chk(node, sig, cfg, fail):
        c = node.sequent.conclusion
        if not isinstance(c, Or):
            fail("shape", "conclusion is not a disjunction")
            return
        part = c.left if which == 1 else c.right
        if not alpha_eq(node.premises[0].sequent.conclusion, part):
            fail("shape", "premise does not prove the selected disjunct")
        _premise_hyps_ok(node, fail)
    return chk


def _chk_or_e(node, sig, cfg, fail):
    d = node.premises[0].sequent.conclusion
    if not isinstance(d, Or):
        fail("shape", "first premise is not a disjunction")
        return
    c = node.sequent.conclusion
    for i, part in ((1, d.left), (2, d.right)):
        if not alpha_eq(node.premises[i].sequent.conclusion, c):
            fail("shape", "case premise %d does not prove the conclusion" % i)
        if not _member(part, node.premises[i].sequent.hypotheses):
            fail("shape", "case premise %d does not assume its disjunct" % i)
    _premise_hyps_ok(node, fail, {1: (d.left,), 2: (d.right,)})


def _chk_imp_i(node, sig, cfg, fail):
    c = node.sequent.conclusion
    if not isinstance(c, Implies):
        fail("shape", "conclusion is not an implication")
        return
    p = node.premises[0].sequent
    if not alpha_eq(p.conclusion, c.right):
        fail("shape", "premise does not prove the consequent")
    _premise_hyps_ok(node, fail, {0: (c.left,)})


def _chk_imp_e(node, sig, cfg, fail):
    imp = node.premises[0].sequent.conclusion
    if not isinstance(imp, Implies):
        fail("shape", "first premise is not an implication")
        return
    if not alpha_eq(node.premises[1].sequent.conclusion, imp.left):
        fail("shape", "second premise does not prove the antecedent")
    if not alpha_eq(node.sequent.conclusion, imp.right):
        fail("shape", "conclusion is not the consequent")
    _premise_hyps_ok(node, fail)


def _contradiction(node):
    """The two premises prove a formula and its negation, in that order."""
    p1, p2 = (p.sequent.conclusion for p in node.premises)
    return isinstance(p2, Not) and alpha_eq(p1, p2.body)


def _chk_not_i(node, sig, cfg, fail):
    c = node.sequent.conclusion
    if not isinstance(c, Not):
        fail("shape", "conclusion is not a negation")
        return
    if not _contradiction(node):
        fail("shape", "premises do not derive a contradiction")
    _premise_hyps_ok(node, fail, {0: (c.body,), 1: (c.body,)})


def _chk_not_e(node, sig, cfg, fail):
    if not _contradiction(node):
        fail("shape", "premises are not a formula and its negation")
    _premise_hyps_ok(node, fail)


def _plain_quant(c, kind, fail):
    if not (isinstance(c, Quant) and c.kind == kind and c.restriction is None):
        fail("shape", "expected an unrestricted %s formula" % kind)
        return None
    return c


def _eigen_ok(node, hyps, fail):
    """The eigenvariable condition of forall-i, exists-e, tau-intro and
    eps-dual: `node.eigen` is free neither in `hyps` (the premise's open
    hypotheses), nor in the conclusion's hypotheses, nor in its formula."""
    x = node.eigen
    if _name_free_in(x, hyps) or _name_free_in(x, node.sequent.hypotheses):
        fail("eigenvariable",
             "no free occurrence of %s allowed in any hypothesis" % x)
    if _name_free_in(x, (node.sequent.conclusion,)):
        fail("eigenvariable", "eigenvariable %s occurs free in the conclusion" % x)


def _chk_forall_i(node, sig, cfg, fail):
    c = _plain_quant(node.sequent.conclusion, sx.FORALL, fail)
    if c is None:
        return
    prem = node.premises[0].sequent
    if node.eigen is not None:
        x = Var(node.eigen, c.var.sort)
        if not alpha_eq(prem.conclusion, substitute(c.body, c.var, x)):
            fail("shape", "premise is not the body at the eigenvariable")
        _eigen_ok(node, prem.hypotheses, fail)
    else:
        # generic-element form: the body holds of its own tau term
        generic = Binder(sx.TAU, c.var, c.body)
        if not alpha_eq(prem.conclusion, substitute(c.body, c.var, generic)):
            fail("shape", "premise is neither an eigenvariable instance nor "
                 "the tau-generic instance of the body")
    _premise_hyps_ok(node, fail)


def _witness(node, var, sig, fail):
    if node.witness is None:
        fail("witness", "rule %s needs a '[x := t]' annotation" % node.rule)
        return None
    name, t = node.witness
    if name != var.name:
        fail("witness", "annotation names %s, but the rule instantiates %s"
             % (name, var.name))
        return None
    try:
        ts = term_sort(t, sig)
    except sx.SortError as e:
        fail("witness", str(e))
        return None
    if ts != var.sort:
        fail("witness", "witness term has sort %s, expected %s" % (ts, var.sort))
        return None
    return t


def _instance_ok(node, sig, fail, kind, q, inst, message):
    """forall-e and exists-i: `q` is an unrestricted `kind` formula and
    `inst` its body at the witness term; `message` names the failure."""
    q = _plain_quant(q, kind, fail)
    if q is None:
        return
    t = _witness(node, q.var, sig, fail)
    if t is None:
        return
    if not alpha_eq(inst, substitute(q.body, q.var, t)):
        fail("shape", message)
    _premise_hyps_ok(node, fail)


def _chk_forall_e(node, sig, cfg, fail):
    _instance_ok(node, sig, fail, sx.FORALL, node.premises[0].sequent.conclusion,
                 node.sequent.conclusion, "conclusion is not the instantiated body")


def _chk_exists_i(node, sig, cfg, fail):
    _instance_ok(node, sig, fail, sx.EXISTS, node.sequent.conclusion,
                 node.premises[0].sequent.conclusion,
                 "premise is not the body at the witness term")


def _chk_exists_e(node, sig, cfg, fail):
    ex = _plain_quant(node.premises[0].sequent.conclusion, sx.EXISTS, fail)
    if ex is None:
        return
    if node.eigen is None:
        fail("eigenvariable", "exists-e needs an '[eigen x]' annotation")
        return
    x = Var(node.eigen, ex.var.sort)
    inst = substitute(ex.body, ex.var, x)
    case = node.premises[1].sequent
    if not _member(inst, case.hypotheses):
        fail("shape", "case premise does not assume the instantiated body")
    if not alpha_eq(case.conclusion, node.sequent.conclusion):
        fail("shape", "case premise does not prove the conclusion")
    _eigen_ok(node, _minus(case.hypotheses, inst), fail)
    _premise_hyps_ok(node, fail, {1: (inst,)})


def _choice_instances(c, kind, negated):
    """(t, B) for each `kind` term t in `c` that reads as kind x. B(x), or
    as kind x. not B(x) when `negated`, where `c` is B(t)."""
    for t in subterms(c):
        if isinstance(t, Binder) and t.kind == kind \
                and (not negated or isinstance(t.body, Not)):
            body = t.body.body if negated else t.body
            if alpha_eq(c, substitute(body, t.var, t)):
                yield t, body


def _chk_choice_witness(kind, negated, shape):
    # eps-intro: from B(t) infer B(eps x. B(x));
    # tau-dual: from B(t) infer B(tau x. not B(x)); an annotation that
    # _witness rejects for every candidate term fails as it reports
    def chk(node, sig, cfg, fail):
        prem = node.premises[0].sequent.conclusion
        bad, passed = [], False
        for e, body in _choice_instances(node.sequent.conclusion, kind, negated):
            t = _witness(node, e.var, sig, lambda *a: bad.append(a))
            if t is not None and alpha_eq(prem, substitute(body, e.var, t)):
                _premise_hyps_ok(node, fail)
                return
            passed = passed or t is not None
        if node.witness is None:
            fail("witness", "%s needs a '[x := t]' annotation" % node.rule)
        elif bad and not passed:
            fail(*bad[0])
            return
        fail("shape", "conclusion is not %s for the premise B(t)" % shape)
    return chk


def _chk_choice_generic(kind, negated, shape):
    # tau-intro: from A(x), x generic, infer A(tau x. A(x));
    # eps-dual: from A(x), x generic, infer A(eps x. not A(x))
    def chk(node, sig, cfg, fail):
        if node.eigen is None:
            fail("eigenvariable", "%s needs an '[eigen x]' annotation" % node.rule)
            return
        prem = node.premises[0].sequent
        for e, body in _choice_instances(node.sequent.conclusion, kind, negated):
            x = Var(node.eigen, e.var.sort)
            if alpha_eq(prem.conclusion, substitute(body, e.var, x)):
                _eigen_ok(node, prem.hypotheses, fail)
                _premise_hyps_ok(node, fail)
                return
        fail("shape", "conclusion is not %s for the generic premise" % shape)
    return chk


def _same_quant_core(a, b):
    return (isinstance(a, Quant) and isinstance(b, Quant)
            and a.var.sort == b.var.sort
            and alpha_eq(Quant(sx.FORALL, a.var, a.restriction, a.body),
                         Quant(sx.FORALL, b.var, b.restriction, b.body)))


def _chk_star(regime_b):
    # star-weaken, regime B: forall / forall*, regime A: forall* / forall;
    # star-strengthen, regime B: exists* / exists, regime A: exists / exists*
    def chk(node, sig, cfg, fail):
        src, dst = regime_b if cfg.star_regime == "B" else regime_b[::-1]
        p = node.premises[0].sequent.conclusion
        c = node.sequent.conclusion
        if not (isinstance(p, Quant) and p.kind == src):
            fail("regime", "under regime %s %s needs a %s premise"
                 % (cfg.star_regime, node.rule, src))
            return
        if not (isinstance(c, Quant) and c.kind == dst and _same_quant_core(p, c)):
            fail("shape", "conclusion must be the %s form of the premise" % dst)
        _premise_hyps_ok(node, fail)
    return chk


def _most_node(f, mode):
    return isinstance(f, Quant) and f.kind == sx.MOST and f.mode == mode


def _weak_majority_denied(node, fail):
    """The majority rules' conclusion, not MOSTweak x:A. P: its negated
    statement, or None after a failure."""
    c = node.sequent.conclusion
    if not isinstance(c, Not) or not _most_node(c.body, "weak"):
        fail("shape", "conclusion must be 'not mostweak x. P'")
        return None
    return c.body


def _chk_maj_minority(node, sig, cfg, fail):
    # From MOSTstrict x:A. not P infer not MOSTweak x:A. P
    p = node.premises[0].sequent.conclusion
    if not (_most_node(p, "strict") and isinstance(p.body, Not)):
        fail("shape", "premise must be 'moststrict x. not P'")
        return
    tgt = _weak_majority_denied(node, fail)
    if tgt is None:
        return
    want = Quant(sx.MOST, p.var, p.restriction, p.body.body, "weak")
    if not alpha_eq(tgt, want):
        fail("shape", "conclusion negates a different majority statement")
    _premise_hyps_ok(node, fail)


def _chk_maj_disjoint(node, sig, cfg, fail):
    # From MOSTstrict x:A. Q and forall x:A. not (P and Q)
    # infer not MOSTweak x:A. P
    maj = node.premises[0].sequent.conclusion
    sep = node.premises[1].sequent.conclusion
    if not _most_node(maj, "strict"):
        fail("shape", "first premise must be a strict majority statement")
        return
    tgt = _weak_majority_denied(node, fail)
    if tgt is None:
        return
    if not (isinstance(sep, Quant) and sep.kind == sx.FORALL):
        fail("shape", "second premise must be a universal disjointness statement")
        return
    pf, qf = tgt.body, maj.body
    want = Quant(sx.FORALL, tgt.var, tgt.restriction, Not(And(pf, substitute(
        qf, maj.var, tgt.var) if maj.var != tgt.var else qf)))
    same_class = (maj.var.sort == tgt.var.sort
                  and ((maj.restriction is None and tgt.restriction is None)
                       or (maj.restriction is not None and tgt.restriction is not None
                           and alpha_eq(Quant(sx.FORALL, maj.var, None, maj.restriction),
                                        Quant(sx.FORALL, tgt.var, None, tgt.restriction)))))
    if not same_class:
        fail("shape", "premises range over different restriction classes")
        return
    if not alpha_eq(sep, want):
        fail("shape", "second premise does not state disjointness of the two "
             "majority properties")
    _premise_hyps_ok(node, fail)


def _chk_most_inst(node, sig, cfg, fail):
    # experimental: from MOST x:S. P(x) infer P(most:S); off by default.
    # P(most:S) reads the model's majority mode, strict by default, so a
    # weak premise does not give it
    if not cfg.allow_most_instantiation:
        fail("config", "most-inst is experimental and disabled; enable "
             "allow_most_instantiation to use it")
        return
    p = node.premises[0].sequent.conclusion
    c = node.sequent.conclusion
    if not (isinstance(p, Quant) and p.kind == sx.MOST):
        fail("shape", "premise must be a most statement")
        return
    if p.mode == "weak":
        fail("shape", "premise must not be a weak most statement")
        return
    if not (isinstance(p.body, Atom) and p.body.args == (p.var,)):
        fail("shape", "most-inst only applies to an atomic body P(x)")
        return
    if p.restriction is None:
        g = Generic(sx.MOST, p.var.sort)
    else:
        g = GenericRestricted(sx.MOST, p.var.sort, p.var, p.restriction)
    if not alpha_eq(c, Atom(p.body.pred, (g,))):
        fail("shape", "conclusion is not the generic-element instance")
    _premise_hyps_ok(node, fail)


# rule name -> (number of premises, checker)
RULES = {
    "hyp": (0, _chk_hyp),
    "and-i": (2, _chk_and_i),
    "and-e1": (1, _chk_and_e(1)),
    "and-e2": (1, _chk_and_e(2)),
    "or-i1": (1, _chk_or_i(1)),
    "or-i2": (1, _chk_or_i(2)),
    "or-e": (3, _chk_or_e),
    "imp-i": (1, _chk_imp_i),
    "imp-e": (2, _chk_imp_e),
    "not-i": (2, _chk_not_i),
    "not-e": (2, _chk_not_e),
    "forall-i": (1, _chk_forall_i),
    "forall-e": (1, _chk_forall_e),
    "exists-i": (1, _chk_exists_i),
    "exists-e": (2, _chk_exists_e),
    "eps-intro": (1, _chk_choice_witness(sx.EPS, False, "B(eps x. B(x))")),
    "tau-intro": (1, _chk_choice_generic(sx.TAU, False, "A(tau x. A(x))")),
    "eps-dual": (1, _chk_choice_generic(sx.EPS, True, "A(eps x. not A(x))")),
    "tau-dual": (1, _chk_choice_witness(sx.TAU, True, "B(tau x. not B(x))")),
    "star-weaken": (1, _chk_star((sx.FORALL, sx.FORALL_STAR))),
    "star-strengthen": (1, _chk_star((sx.EXISTS_STAR, sx.EXISTS))),
    "maj-refute-minority": (1, _chk_maj_minority),
    "maj-refute-disjoint": (2, _chk_maj_disjoint),
    "most-inst": (1, _chk_most_inst),
}


# ---------------------------------------------------------------------------
# derived equivalences of the eps/tau operators


def derived_equivalence_proofs(sig):
    """For each unary predicate P, proof trees for both directions of
    P(tau x. P(x)) <-> forall x. P(x) and P(eps x. P(x)) <-> exists x. P(x);
    all of them must pass check_proof."""
    proofs = []
    for p, args in sorted(sig.predicates.items()):
        if len(args) != 1:
            continue
        s = args[0]
        x = Var("x", s)
        px = Atom(p, (x,))
        tau_t = Binder(sx.TAU, x, px)
        eps_t = Binder(sx.EPS, x, px)
        p_tau = Atom(p, (tau_t,))
        p_eps = Atom(p, (eps_t,))
        fa = Quant(sx.FORALL, x, None, px)
        ex = Quant(sx.EXISTS, x, None, px)

        # forall x. P |- P(tau x. P)
        t1 = ProofTree(Sequent((fa,), fa), "hyp", line=1)
        proofs.append(ProofTree(Sequent((fa,), p_tau), "forall-e", (t1,),
                                witness=("x", tau_t), line=2))
        # P(tau x. P) |- forall x. P   (tau-generic form of forall-i)
        t1 = ProofTree(Sequent((p_tau,), p_tau), "hyp", line=1)
        proofs.append(ProofTree(Sequent((p_tau,), fa), "forall-i", (t1,), line=2))
        # exists x. P |- P(eps x. P)
        t1 = ProofTree(Sequent((ex,), ex), "hyp", line=1)
        t2 = ProofTree(Sequent((px,), px), "hyp", line=2)
        t3 = ProofTree(Sequent((px,), p_eps), "eps-intro", (t2,),
                       witness=("x", x), line=3)
        proofs.append(ProofTree(Sequent((ex,), p_eps), "exists-e", (t1, t3),
                                eigen="x", line=4))
        # P(eps x. P) |- exists x. P
        t1 = ProofTree(Sequent((p_eps,), p_eps), "hyp", line=1)
        proofs.append(ProofTree(Sequent((p_eps,), ex), "exists-i", (t1,),
                                witness=("x", eps_t), line=2))
    return proofs
