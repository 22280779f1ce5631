import ast
import dataclasses
import pathlib
import random

import pytest

from epskernel import generators as gen
from epskernel import cli, kernel, models, parser, semantics
from epskernel import syntax as sx
from epskernel.kernel import KernelConfig, ProofTree, Sequent, check_proof
from epskernel.syntax import Atom, And, Binder, Const, Implies, Not, Quant, Var

SIG = gen.SIG_UNARY
X = Var("x", "s")
PC = Atom("P", (Const("c"),))
QC = Atom("Q", (Const("c"),))
PX = Atom("P", (X,))


def hyp(gamma, f, line=1):
    return ProofTree(Sequent(tuple(gamma), f), "hyp", line=line)


def accepted(tree, cfg=None):
    return check_proof(tree, SIG, cfg or KernelConfig()).accepted


def check_script(name, fixtures, cfg=None):
    sig = parser.parse_signature((fixtures / "base.sig").read_text())
    tree = parser.parse_proof_script((fixtures / name).read_text(), sig)
    return check_proof(tree, sig, cfg or KernelConfig())


def test_fixture_scripts(fixtures):
    assert check_script("exists-intro.proof", fixtures).accepted
    assert check_script("eps-intro.proof", fixtures).accepted
    v = check_script("bad-eigenvariable.proof", fixtures)
    assert not v.accepted
    assert any(f.condition == "eigenvariable" for f in v.failures)


def test_forall_e_instance_that_captures_is_rejected(fixtures):
    # the conclusion is false in every model: renaming the binder x to x1
    # for y := x must rename the inner x1 too, not capture it
    assert not check_script("capture.proof", fixtures).accepted
    sig = parser.parse_signature((fixtures / "base.sig").read_text())
    text = (fixtures / "capture.proof").read_text().replace(
        "exists x1:s. not x1 = x1", "exists x2:s. not x1 = x2")
    assert check_proof(parser.parse_proof_script(text, sig), sig).accepted


def package_imports(module):
    """The epskernel modules that `module` imports, anywhere in its source."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def test_kernel_carries_only_its_rules_settings_and_imports_only_syntax():
    assert [f.name for f in dataclasses.fields(KernelConfig)] == [
        "star_regime", "allow_most_instantiation"]
    assert package_imports(kernel) == {"syntax"}
    assert "kernel" not in package_imports(semantics)


def test_hyp_requires_membership():
    assert accepted(hyp([PC], PC))
    assert not accepted(hyp([QC], PC))


def test_imp_i_discharges():
    t = hyp([PC, QC], QC)
    root = ProofTree(Sequent((PC,), Implies(QC, QC)), "imp-i", (t,), line=2)
    assert accepted(root)


def test_imp_i_wrong_antecedent_rejected():
    t = hyp([PC], PC)
    root = ProofTree(Sequent((), Implies(QC, PC)), "imp-i", (t,), line=2)
    assert not accepted(root)


def test_forall_i_eigen_form():
    fa_y = Quant(sx.FORALL, Var("y", "s"), None, Atom("P", (Var("y", "s"),)))
    t1 = hyp([fa_y], fa_y)
    t2 = ProofTree(Sequent((fa_y,), PX), "forall-e", (t1,),
                   witness=("y", X), line=2)
    root = ProofTree(Sequent((fa_y,), Quant(sx.FORALL, X, None, PX)),
                     "forall-i", (t2,), eigen="x", line=3)
    assert accepted(root)


def test_forall_i_eigen_in_hypothesis_rejected():
    t = hyp([PX], PX)
    root = ProofTree(Sequent((PX,), Quant(sx.FORALL, X, None, PX)),
                     "forall-i", (t,), eigen="x", line=2)
    assert not accepted(root)


def test_forall_i_tau_generic_form():
    tau = Binder(sx.TAU, X, PX)
    inst = Atom("P", (tau,))
    t = hyp([inst], inst)
    root = ProofTree(Sequent((inst,), Quant(sx.FORALL, X, None, PX)),
                     "forall-i", (t,), line=2)
    assert accepted(root)


def test_exists_e_eigen_in_conclusion_rejected():
    ex = Quant(sx.EXISTS, X, None, PX)
    t1 = hyp([ex], ex)
    t2 = hyp([PX], PX, 2)
    root = ProofTree(Sequent((ex,), PX), "exists-e", (t1, t2),
                     eigen="x", line=3)
    assert not accepted(root)


# two sorts, so that a witness can be ill-sorted or of the wrong sort
SIG_TWO = sx.Signature(frozenset({"s", "t"}), {"c": "s", "d": "t"}, {},
                       {"P": ("s",)})
FA_PX = Quant(sx.FORALL, X, None, PX)


def witness_failures(witness, conclusion):
    """The witness failures of forall-e from forall x:s. P(x) to
    `conclusion` at `witness`."""
    root = ProofTree(Sequent((FA_PX,), conclusion), "forall-e",
                     (hyp([FA_PX], FA_PX),), witness=("x", witness), line=2)
    v = check_proof(root, SIG_TWO, KernelConfig())
    assert not v.accepted
    return [(f.line, f.condition, f.message) for f in v.failures
            if f.condition == "witness"]


def test_an_ill_sorted_witness_is_rejected():
    # zz is no constant of the signature: the witness has no sort
    zz = Const("zz")
    assert witness_failures(zz, Atom("P", (zz,))) == [
        (2, "witness", "unknown constant zz")]


def test_a_witness_of_the_wrong_sort_is_rejected():
    # d is a t, and x ranges over s
    assert witness_failures(Const("d"), Atom("P", (Const("d"),))) == [
        (2, "witness", "witness term has sort t, expected s")]


def test_eps_intro_needs_witness():
    eps = Binder(sx.EPS, X, PX)
    t = hyp([PC], PC)
    good = ProofTree(Sequent((PC,), Atom("P", (eps,))), "eps-intro", (t,),
                     witness=("x", Const("c")), line=2)
    assert accepted(good)
    bad = ProofTree(Sequent((PC,), Atom("P", (eps,))), "eps-intro", (t,), line=2)
    assert not accepted(bad)


def test_tau_dual():
    tau = Binder(sx.TAU, X, Not(PX))
    t = hyp([PC], PC)
    root = ProofTree(Sequent((PC,), Atom("P", (tau,))), "tau-dual", (t,),
                     witness=("x", Const("c")), line=2)
    assert accepted(root)


def test_star_rules_by_regime():
    fa = Quant(sx.FORALL, X, None, PX)
    fs = Quant(sx.FORALL_STAR, X, None, PX)
    t = hyp([fa], fa)
    weaken = ProofTree(Sequent((fa,), fs), "star-weaken", (t,), line=2)
    assert accepted(weaken, KernelConfig(star_regime="B"))
    assert not accepted(weaken, KernelConfig(star_regime="A"))
    # regime A runs the other way
    t2 = hyp([fs], fs)
    mirror = ProofTree(Sequent((fs,), fa), "star-weaken", (t2,), line=2)
    assert accepted(mirror, KernelConfig(star_regime="A"))
    assert not accepted(mirror, KernelConfig(star_regime="B"))


def test_star_converse_rejected():
    fa = Quant(sx.FORALL, X, None, PX)
    fs = Quant(sx.FORALL_STAR, X, None, PX)
    t = hyp([fs], fs)
    conv = ProofTree(Sequent((fs,), fa), "star-weaken", (t,), line=2)
    assert not accepted(conv, KernelConfig(star_regime="B"))


def test_majority_refutation_rules():
    minority = Quant(sx.MOST, X, None, Not(PX), "strict")
    concl = Not(Quant(sx.MOST, X, None, PX, "weak"))
    t = hyp([minority], minority)
    root = ProofTree(Sequent((minority,), concl), "maj-refute-minority",
                     (t,), line=2)
    assert accepted(root)
    # premise must be strict and the conclusion weak
    loose = Quant(sx.MOST, X, None, Not(PX), "weak")
    t2 = hyp([loose], loose)
    bad = ProofTree(Sequent((loose,), concl), "maj-refute-minority", (t2,),
                    line=2)
    assert not accepted(bad)


def test_majority_disjoint_rule():
    qx = Atom("Q", (X,))
    maj = Quant(sx.MOST, X, None, qx, "strict")
    sep = Quant(sx.FORALL, X, None, Not(And(PX, qx)))
    concl = Not(Quant(sx.MOST, X, None, PX, "weak"))
    g = (maj, sep)
    root = ProofTree(Sequent(g, concl), "maj-refute-disjoint",
                     (hyp(g, maj, 1), hyp(g, sep, 2)), line=3)
    assert accepted(root)


def test_most_inst_gated():
    most = Quant(sx.MOST, X, None, PX)
    concl = Atom("P", (sx.Generic(sx.MOST, "s"),))
    t = hyp([most], most)
    root = ProofTree(Sequent((most,), concl), "most-inst", (t,), line=2)
    assert not accepted(root)
    assert accepted(root, KernelConfig(allow_most_instantiation=True))


MOST_INST = KernelConfig(allow_most_instantiation=True)
MOST_S = sx.Generic(sx.MOST, "s")


def failures(tree, cfg=None):
    """(line, condition, message) of each failure the kernel reports."""
    v = check_proof(tree, SIG, cfg or KernelConfig())
    assert v.accepted == (not v.failures)
    return [(f.line, f.condition, f.message) for f in v.failures]


def most_inst(premise, conclusion):
    return ProofTree(Sequent((premise,), conclusion), "most-inst",
                     (hyp([premise], premise),), line=2)


def test_most_inst_rejects_a_weak_premise(tmp_path, capsys, fixtures):
    # P(most:s) reads the model's majority mode, strict by default: half of
    # {a, b} is a weak majority, not a strict one
    m = parser.parse_model("sort s = {a, b}\npred P : s = {a}")
    weak = Quant(sx.MOST, X, None, PX, "weak")
    concl = Atom("P", (MOST_S,))
    assert models.truth(m, weak) and not models.truth(m, concl)
    assert failures(most_inst(weak, concl), MOST_INST) == [
        (2, "shape", "premise must not be a weak most statement")]
    for mode in (None, "strict"):
        assert failures(most_inst(Quant(sx.MOST, X, None, PX, mode), concl),
                        MOST_INST) == []
    proof = tmp_path / "weak.proof"
    proof.write_text("1. mostweak x:s. P(x) |- mostweak x:s. P(x) ; hyp\n"
                     "2. mostweak x:s. P(x) |- P(most:s) ; most-inst(1)\n")
    assert cli.main(["check", "--signature", str(fixtures / "base.sig"),
                     "--most-inst", "--proof", str(proof)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "rejected"


def test_most_inst_needs_a_most_premise():
    fa = Quant(sx.FORALL, X, None, PX)
    assert failures(most_inst(fa, Atom("P", (MOST_S,))), MOST_INST) == [
        (2, "shape", "premise must be a most statement")]


def test_most_inst_needs_an_atomic_body():
    most = Quant(sx.MOST, X, None, Not(PX))
    assert failures(most_inst(most, Not(Atom("P", (MOST_S,)))), MOST_INST) == [
        (2, "shape", "most-inst only applies to an atomic body P(x)")]


def test_most_inst_concludes_the_generic_instance():
    most = Quant(sx.MOST, X, None, PX)
    assert failures(most_inst(most, Atom("Q", (MOST_S,))), MOST_INST) == [
        (2, "shape", "conclusion is not the generic-element instance")]
    # a restricted premise instantiates at the restricted generic element
    restricted = Quant(sx.MOST, X, Atom("Q", (X,)), PX)
    g = sx.GenericRestricted(sx.MOST, "s", X, Atom("Q", (X,)))
    assert failures(most_inst(restricted, Atom("P", (g,))), MOST_INST) == []
    assert failures(most_inst(restricted, Atom("P", (MOST_S,))), MOST_INST) == [
        (2, "shape", "conclusion is not the generic-element instance")]


def test_or_e_case_premise_must_assume_its_disjunct():
    d = sx.Or(PC, QC)
    case1, case2 = hyp([d, PC], d, 2), hyp([d, QC], d, 3)
    root = ProofTree(Sequent((d,), d), "or-e", (hyp([d], d), case1, case2),
                     line=4)
    assert failures(root) == []
    # each case proves the conclusion, but from d alone
    for i in (1, 2):
        cases = [case1, case2]
        cases[i - 1] = hyp([d], d, i + 1)
        root = ProofTree(Sequent((d,), d), "or-e", (hyp([d], d), *cases),
                         line=4)
        assert failures(root) == [
            (4, "shape", "case premise %d does not assume its disjunct" % i)]


def test_exists_e_case_premise_must_assume_the_instance():
    ex = Quant(sx.EXISTS, X, None, PX)
    inst = Atom("P", (Var("y", "s"),))
    good = ProofTree(Sequent((ex,), ex), "exists-e",
                     (hyp([ex], ex), hyp([ex, inst], ex, 2)), eigen="y", line=3)
    assert failures(good) == []
    # the case premise proves the conclusion without assuming P(y)
    bad = ProofTree(Sequent((ex,), ex), "exists-e",
                    (hyp([ex], ex), hyp([ex], ex, 2)), eigen="y", line=3)
    assert failures(bad) == [
        (3, "shape", "case premise does not assume the instantiated body")]


def test_unknown_rule_and_arity_rejected():
    t = hyp([PC], PC)
    bad = ProofTree(Sequent((PC,), PC), "no-such-rule", (t,), line=2)
    assert not accepted(bad)
    wrong = ProofTree(Sequent((PC,), And(PC, PC)), "and-i", (t,), line=2)
    assert not accepted(wrong)


def test_ill_sorted_sequent_rejected():
    bad = Atom("P", (Const("zzz"),))
    assert not accepted(hyp([bad], bad))


def test_derived_equivalence_proofs():
    proofs = kernel.derived_equivalence_proofs(SIG)
    assert len(proofs) == 8
    for p in proofs:
        assert check_proof(p, SIG, KernelConfig()).accepted


def test_corpus_accepted_and_mutants_rejected():
    rng = random.Random(4)
    corpus = gen.proof_corpus(rng, 110)
    for p in corpus:
        assert check_proof(p, SIG, KernelConfig()).accepted, p.rule
    mutants = [m for m in map(gen.mutate_eigenvariable, corpus) if m is not None]
    assert mutants
    for m in mutants:
        assert not check_proof(m, SIG, KernelConfig()).accepted


def test_verdict_reports_nodes():
    t = hyp([PC], PC)
    root = ProofTree(Sequent((PC,), And(PC, QC)), "and-i", (t,), line=2)
    v = check_proof(root, SIG, KernelConfig())
    assert not v.accepted
    assert any(not ok for (_, _, ok) in v.nodes)
    assert v.failures


def test_an_ill_sorted_formula_is_reported_at_every_node_that_carries_it():
    # one object in the hypotheses of both nodes
    bad = Atom("P", (Const("zzz"),))
    t = hyp([bad, PC], PC)
    root = ProofTree(Sequent((bad, PC), And(PC, PC)), "and-i", (t, t), line=2)
    assert failures(root) == [(1, "well-sorted", "unknown constant zzz"),
                              (2, "well-sorted", "unknown constant zzz")]


def test_premise_hypotheses_are_compared_up_to_alpha():
    fa_x = Quant(sx.FORALL, X, None, PX)
    y = Var("y", "s")
    fa_y = Quant(sx.FORALL, y, None, Atom("P", (y,)))
    a, a_y = And(fa_x, QC), And(fa_y, QC)
    # a premise hypothesis the conclusion lacks
    root = ProofTree(Sequent((a,), fa_x), "and-e1", (hyp([a, PC], a),), line=2)
    assert failures(root) == [
        (2, "hypotheses", "premise 1 carries a hypothesis the conclusion does not")]
    assert not kernel._member(PC, (a,)) and not kernel._subset((a, PC), (a,))
    # an alpha-variant held in a distinct object
    root = ProofTree(Sequent((a_y,), fa_y), "and-e1", (hyp([a], a),), line=2)
    assert failures(root) == []
    assert a is not a_y and kernel._member(a, (PC, a_y))
    assert kernel._subset((a, a), (a_y,)) and kernel._subset((a,), (a,))
    assert kernel._minus((PC, a_y, a), a) == (PC,)


# the shape checks of the propositional rules that the corpus and its
# perturbations do not reach; each names the failure it expects


def test_and_i_second_premise_must_prove_the_right_conjunct():
    root = ProofTree(Sequent((PC, QC), And(PC, QC)), "and-i",
                     (hyp([PC, QC], PC), hyp([PC, QC], PC, 2)), line=3)
    assert failures(root) == [
        (3, "shape", "second premise does not prove the right conjunct")]


def test_and_e_premise_must_be_a_conjunction():
    for rule in ("and-e1", "and-e2"):
        root = ProofTree(Sequent((PC,), PC), rule, (hyp([PC], PC),), line=2)
        assert failures(root) == [(2, "shape", "premise is not a conjunction")]


def test_or_i_conclusion_must_be_a_disjunction():
    for rule in ("or-i1", "or-i2"):
        root = ProofTree(Sequent((PC,), And(PC, PC)), rule, (hyp([PC], PC),),
                         line=2)
        assert failures(root) == [(2, "shape", "conclusion is not a disjunction")]


def test_or_e_first_premise_must_be_a_disjunction():
    root = ProofTree(Sequent((PC,), PC), "or-e",
                     (hyp([PC], PC), hyp([PC], PC, 2), hyp([PC], PC, 3)), line=4)
    assert failures(root) == [(4, "shape", "first premise is not a disjunction")]


def test_imp_e_premises_must_be_an_implication_and_its_antecedent():
    root = ProofTree(Sequent((PC,), PC), "imp-e",
                     (hyp([PC], PC), hyp([PC], PC, 2)), line=3)
    assert failures(root) == [(3, "shape", "first premise is not an implication")]
    imp = Implies(PC, QC)
    root = ProofTree(Sequent((imp, QC), QC), "imp-e",
                     (hyp([imp, QC], imp), hyp([imp, QC], QC, 2)), line=3)
    assert failures(root) == [
        (3, "shape", "second premise does not prove the antecedent")]


def test_not_i_premises_must_derive_a_contradiction():
    # the premises discharge P(c), and prove Q(c) and Q(c), or Q(c) and
    # the negation of another formula
    for second in (QC, Not(PC)):
        root = ProofTree(Sequent((QC, second), Not(PC)), "not-i",
                         (hyp([PC, QC], QC), hyp([PC, second], second, 2)),
                         line=3)
        assert failures(root) == [
            (3, "shape", "premises do not derive a contradiction")]


def test_not_e_premises_must_be_a_formula_and_its_negation():
    for second in (QC, Not(QC)):
        root = ProofTree(Sequent((PC, second), QC), "not-e",
                         (hyp([PC], PC), hyp([second], second, 2)), line=3)
        assert failures(root) == [
            (3, "shape", "premises are not a formula and its negation")]
