"""The proof kernel against the model checker.

Corpus proofs are perturbed in three ways: a subformula of a node's
conclusion or hypothesis is replaced, a hypothesis is dropped, or a node's
premises are swapped or one is re-cited.  check_proof must return a Verdict
on each, and every node of an accepted perturbed proof must be valid: true
on every SIG_UNARY model of size at most 3 under every assignment of its
free variables.

Each corpus node is also made the root of a proof of its own, and of one
whose premises are hyp leaves, and perturbed twice at the root at once: a
check whose failure leaves the root's sequent valid is seen only when the
sequent changes too.
"""

import dataclasses
import functools
import itertools
import random

from epskernel import generators as gen
from epskernel import models, parser
from epskernel import syntax as sx
from epskernel.kernel import ProofTree, Sequent, Verdict, check_proof
from epskernel.models import Environment

SEED = 20261019
PERTURBATIONS = 20          # per corpus proof
MODELS = list(models.enumerate_models(gen.SIG_UNARY, 3))


@functools.cache
def corpus():
    """The corpus proofs, and the nodes of all of them by conclusion."""
    proofs = gen.proof_corpus(random.Random(20260825), 220)
    by_conclusion = {}
    for proof in proofs:
        for node, _ in proof_nodes(proof):
            by_conclusion.setdefault(node.sequent.conclusion, []).append(node)
    return proofs, by_conclusion


def proof_nodes(tree):
    """(node, put) for each node of tree, root first; put(n) is the whole
    tree with that node replaced by n."""
    out, todo = [], [(tree, lambda n: n)]
    while todo:
        node, put = todo.pop()
        out.append((node, put))
        for i, p in enumerate(node.premises):
            todo.append((p, lambda n, node=node, i=i, put=put: put(
                dataclasses.replace(node, premises=node.premises[:i] + (n,)
                                    + node.premises[i + 1:]))))
    return out


def spots(e, scope, put):
    """(subformula, sorts of the names in scope, put) for each subformula
    of e, choice-term bodies included; put(g) is the whole tree with that
    subformula replaced by g."""
    out, todo = [], [(e, scope, put)]
    while todo:
        node, scope, put = todo.pop()
        if sx.is_formula(node):
            out.append((node, scope, put))
        var = getattr(node, "var", None)
        inner = scope if var is None else {**scope, var.name: var.sort}
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            at = inner if field.name in ("body", "restriction") else scope
            if isinstance(value, tuple):
                todo.extend((a, at, lambda g, node=node, f=field.name, i=i,
                             put=put: put(dataclasses.replace(node, **{
                                 f: getattr(node, f)[:i] + (g,)
                                 + getattr(node, f)[i + 1:]})))
                            for i, a in enumerate(value))
            elif field.name != "var" and dataclasses.is_dataclass(value):
                todo.append((value, at, lambda g, node=node, f=field.name,
                             put=put: put(dataclasses.replace(node, **{f: g}))))
    return out


def formulas_of(seq):
    return (*seq.hypotheses, seq.conclusion)


def replace_subformula(rng, proof, nodes):
    node, put = rng.choice(nodes)
    seq = node.sequent
    k = rng.randrange(len(seq.hypotheses) + 1)

    def put_formula(g):
        fs = list(formulas_of(seq))
        fs[k] = g
        return put(dataclasses.replace(node, sequent=Sequent(tuple(fs[:-1]),
                                                             fs[-1])))
    target = formulas_of(seq)[k]
    free = {v.name: v.sort for v in sx.free_vars(target)}
    sub, scope, put_sub = rng.choice(spots(target, free, put_formula))
    if rng.random() < 0.5:
        return put_sub(gen.random_formula(rng, gen.SIG_UNARY, rng.randrange(2),
                                          scope))
    # another subformula of the proof whose free variables are in scope
    pool = [g for n, _ in nodes for f in formulas_of(n.sequent)
            for g, _, _ in spots(f, {}, None) if g != sub
            and all(scope.get(v.name) == v.sort for v in sx.free_vars(g))]
    return put_sub(rng.choice(pool)) if pool else proof


def drop_hypothesis(rng, proof, nodes):
    with_hyps = [(n, put) for n, put in nodes if n.sequent.hypotheses]
    if not with_hyps:
        return proof
    node, put = rng.choice(with_hyps)
    hyps = list(node.sequent.hypotheses)
    del hyps[rng.randrange(len(hyps))]
    return put(dataclasses.replace(
        node, sequent=Sequent(tuple(hyps), node.sequent.conclusion)))


def recite_premises(rng, proof, nodes):
    cited = [(n, put) for n, put in nodes if n.premises]
    if not cited:
        return proof
    node, put = rng.choice(cited)
    premises = list(node.premises)
    i = rng.randrange(len(premises))
    others = [j for j, p in enumerate(premises) if p != premises[i]]
    if others and rng.random() < 0.5:
        j = rng.choice(others)
        premises[i], premises[j] = premises[j], premises[i]
    else:
        # a node of this proof, or one of any corpus proof that concludes
        # the same
        others = [n for n, _ in nodes] if rng.random() < 0.5 else \
            corpus()[1].get(premises[i].sequent.conclusion, ())
        others = [n for n in others if n != premises[i]]
        if not others:
            return proof
        premises[i] = rng.choice(others)
    return put(dataclasses.replace(node, premises=tuple(premises)))


PERTURB = (replace_subformula, drop_hypothesis, recite_premises)


def valid(seq, cache):
    """Whether seq holds on every model of MODELS under every assignment of
    its free variables."""
    hit = cache.get(seq)
    if hit is None:
        free = sorted(set().union(*map(sx.free_vars, formulas_of(seq))),
                      key=lambda v: v.name)
        hit = cache[seq] = all(
            not all(models.truth(m, h, env) for h in seq.hypotheses)
            or models.truth(m, seq.conclusion, env)
            for m in MODELS
            for values in itertools.product(*(m.domains[v.sort] for v in free))
            for env in [Environment(tuple((v.name, e)
                                          for v, e in zip(free, values)))])
    return hit


def test_accepted_perturbed_proofs_are_sound():
    rng = random.Random(SEED)
    cache, changed_and_accepted, kinds = {}, 0, set()
    for proof in corpus()[0]:
        nodes = proof_nodes(proof)
        for _ in range(PERTURBATIONS):
            how = rng.choice(PERTURB)
            p = how(rng, proof, nodes)
            verdict = check_proof(p, gen.SIG_UNARY)
            assert isinstance(verdict, Verdict)
            if not verdict.accepted:
                continue
            for node, _ in proof_nodes(p):
                assert valid(node.sequent, cache), (
                    how.__name__, node.rule, node.line,
                    [parser.print_formula(f) for f in formulas_of(node.sequent)])
            same = p == proof      # kept apart: a failing assert prints operands
            if not same:
                changed_and_accepted += 1
                kinds.add(how)
    # the perturbations reach accepted proofs other than the corpus's own
    assert changed_and_accepted >= 100 and kinds == set(PERTURB), \
        (changed_and_accepted, kinds)


# -- two perturbations at the root at once -----------------------------------

ROOT_SEED = 20261022
ROOT_DRAWS = 3              # per root


def roots():
    """Each corpus node as the root of its own subproof, and, when it has
    premises, as the root of one whose premises are hyp leaves: each
    premise's conclusion joins its own hypotheses and the root's."""
    out = []
    for proof in corpus()[0]:
        for node, _ in proof_nodes(proof):
            out.append(node)
            if node.premises:
                seq = node.sequent
                leaves = tuple(ProofTree(Sequent(p.sequent.hypotheses + (
                    p.sequent.conclusion,), p.sequent.conclusion), "hyp")
                    for p in node.premises)
                out.append(dataclasses.replace(node, premises=leaves, sequent=Sequent(
                    seq.hypotheses + tuple(p.sequent.conclusion
                                           for p in node.premises),
                    seq.conclusion)))
    return out


def with_sequent(root, hypotheses, conclusion):
    return dataclasses.replace(root, sequent=Sequent(tuple(hypotheses), conclusion))


def pool(root, scope):
    """The subformulas of root's and its premises' sequents whose free
    variables scope gives their sorts."""
    return [g for n in (root, *root.premises) for f in formulas_of(n.sequent)
            for g, _, _ in spots(f, {}, None)
            if all(scope.get(v.name) == v.sort for v in sx.free_vars(g))]


def another(rng, root, scope):
    """A formula over scope: a drawn one, or one from root's sequents."""
    near = pool(root, scope)
    if near and rng.random() < 0.5:
        return rng.choice(near)
    return gen.random_formula(rng, gen.SIG_UNARY, rng.randrange(2), scope)


def root_conclusion(rng, root):
    seq = root.sequent
    free = {v.name: v.sort for v in sx.free_vars(seq.conclusion)}
    _, scope, put = rng.choice(spots(seq.conclusion, free, lambda g: with_sequent(
        root, seq.hypotheses, g)))
    return put(another(rng, root, scope))


def root_hypothesis(rng, root):
    hyps = list(root.sequent.hypotheses)
    if not hyps:
        return root
    del hyps[rng.randrange(len(hyps))]
    return with_sequent(root, hyps, root.sequent.conclusion)


def root_premise(rng, root):
    return recite_premises(rng, root, [(root, lambda n: n)])


def root_annotation(rng, root):
    if rng.random() < 0.5:
        return dataclasses.replace(root, witness=None, eigen=None)
    scope = {v.name: v.sort for f in formulas_of(root.sequent)
             for v in sx.free_vars(f)}
    if root.witness is not None:
        name = root.witness[0] if rng.random() < 0.7 else rng.choice("xyz")
        return dataclasses.replace(root, witness=(name, gen.random_term(
            rng, gen.SIG_UNARY, "s", scope, rng.randrange(2))))
    return dataclasses.replace(root, eigen=rng.choice(sorted(scope) or ["x"]))


def leaf_conclusion(rng, root):
    leaves = [i for i, p in enumerate(root.premises) if p.rule == "hyp"]
    if not leaves:
        return root
    i = rng.choice(leaves)
    leaf = root.premises[i]
    old = leaf.sequent.conclusion
    free = {v.name: v.sort for f in formulas_of(leaf.sequent) for v in sx.free_vars(f)}
    new = another(rng, root, free)

    def put(fs):
        return tuple(new if f == old else f for f in fs)
    leaf = with_sequent(leaf, put(leaf.sequent.hypotheses), new)
    return dataclasses.replace(with_sequent(
        root, put(root.sequent.hypotheses), root.sequent.conclusion),
        premises=root.premises[:i] + (leaf,) + root.premises[i + 1:])


PERTURB_ROOT = (root_conclusion, root_hypothesis, root_premise, root_annotation,
                leaf_conclusion)


def test_accepted_compound_root_perturbations_are_sound():
    rng = random.Random(ROOT_SEED)
    cache, accepted, kinds = {}, 0, set()
    for root in roots():
        for _ in range(ROOT_DRAWS):
            hows = (rng.choice(PERTURB_ROOT), rng.choice(PERTURB_ROOT))
            p = hows[1](rng, hows[0](rng, root))
            verdict = check_proof(p, gen.SIG_UNARY)
            assert isinstance(verdict, Verdict)
            if not verdict.accepted or p == root:
                continue
            for node, _ in proof_nodes(p):
                assert valid(node.sequent, cache), (
                    [h.__name__ for h in hows], node.rule,
                    [parser.print_formula(f) for f in formulas_of(node.sequent)])
            accepted += 1
            kinds.update(hows)
    # the two perturbations reach accepted proofs of every kind
    assert accepted >= 100 and kinds == set(PERTURB_ROOT), (accepted, kinds)
