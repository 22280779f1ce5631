"""Proof scripts read as a line-indexed DAG: one node per line, each line
checked once, and diagnostics located in the file."""

import time

import pytest

from epskernel import kernel
from epskernel.cli import main
from epskernel.parser import ParseError, parse_proof_script, parse_signature


@pytest.fixture
def sig(fixtures):
    return parse_signature((fixtures / "base.sig").read_text())


def shared_script(n_lines):
    """Lines alternate and-i(k, k) and and-e1(k+1): each line is cited
    twice, so the expanded tree doubles every two lines."""
    lines = ["1. P(c) |- P(c) ; hyp"]
    for n in range(2, n_lines + 1):
        if n % 2 == 0:
            lines.append("%d. P(c) |- P(c) and P(c) ; and-i(%d, %d)" % (n, n - 1, n - 1))
        else:
            lines.append("%d. P(c) |- P(c) ; and-e1(%d)" % (n, n - 1))
    return "\n".join(lines) + "\n"


def chain_script(n_lines):
    """A chain as deep as the script is long: line 2k is and-i(2k-1, 1),
    line 2k+1 is and-e1(2k)."""
    lines = ["1. P(c) |- P(c) ; hyp"]
    for n in range(2, n_lines + 1):
        if n % 2 == 0:
            lines.append("%d. P(c) |- P(c) and P(c) ; and-i(%d, 1)" % (n, n - 1))
        else:
            lines.append("%d. P(c) |- P(c) ; and-e1(%d)" % (n, n - 1))
    return "\n".join(lines) + "\n"


def parse_error(text, sig):
    with pytest.raises(ParseError) as e:
        parse_proof_script(text, sig)
    return [str(d) for d in e.value.diagnostics]


def test_each_line_is_one_node_checked_once(sig):
    tree = parse_proof_script(shared_script(21), sig)
    line_20 = tree.premises[0]
    assert line_20.premises[0] is line_20.premises[1]
    verdict = kernel.check_proof(tree, sig)
    assert verdict.accepted
    assert [line for line, _, _ in verdict.nodes] == list(range(1, 22))


def test_shared_script_checks_in_linear_time(sig):
    start = time.perf_counter()
    verdict = kernel.check_proof(parse_proof_script(shared_script(61), sig), sig)
    assert verdict.accepted and len(verdict.nodes) == 61
    assert time.perf_counter() - start < 1.0


def test_shared_failure_is_reported_once(sig):
    text = ("1. P(c) |- Q(c) ; hyp\n"
            "2. P(c) |- Q(c) and Q(c) ; and-i(1, 1)\n")
    verdict = kernel.check_proof(parse_proof_script(text, sig), sig)
    assert [(f.line, f.condition) for f in verdict.failures] == [(1, "hyp")]
    assert verdict.nodes == [(1, "hyp", False), (2, "and-i", True)]


def test_deep_chain_checks_through_the_cli(capsys, fixtures, tmp_path):
    proof = tmp_path / "chain.proof"
    proof.write_text(chain_script(3000))
    code = main(["check", "--signature", str(fixtures / "base.sig"),
                 "--proof", str(proof)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 3001 and out[-1] == "accepted"


def test_formula_error_has_file_line_and_column(sig):
    text = "1. P(c) |- P(c) ; hyp\n2. P(c) |- Q(c) and and ; hyp\n"
    assert parse_error(text, sig) == ["error:2:21: expected a term, found 'and'"]


def test_script_errors_point_at_their_token(sig):
    assert parse_error("# comment\nvar x : t\n1. P(c) |- P(c) ; hyp\n", sig) \
        == ["error:2:9: unknown sort t"]
    assert parse_error("1. P(c) |- P(c) ; hyp\n  1. Q(c) |- Q(c) ; hyp\n", sig) \
        == ["error:2:3: duplicate line number 1"]
    assert parse_error("1. P(c) |- P(c) ; hyp\n2. P(c) |- P(c) ; copy(1)\n", sig) \
        == ["error:2:19: unknown rule 'copy'"]
    assert parse_error("1. P(c) |- P(c) ; hyp\n2. P(c) |- P(c) ; and-e1(2)\n", sig) \
        == ["error:2:26: line 2 refers forward to line 2"]
    assert parse_error("1. P(c) |- P(c) ; hyp [eigen]\n", sig) \
        == ["error:1:29: expected eigenvariable, found ']'"]
    assert parse_error("1. P(c) |- x = c ; hyp\n", sig)[0].startswith("error:1:12: ")


def test_undefined_reference_is_an_error_on_any_line(sig):
    text = ("1. P(c) |- P(c) ; hyp\n"
            "2. P(c) |- P(c) ; and-e1(7)\n"
            "3. P(c) |- P(c) ; hyp\n")
    assert parse_error(text, sig) == ["error:2:26: line 2 refers to undefined line 7"]


def test_line_order_in_the_file_does_not_matter(sig):
    ordered = ("1. P(c) |- P(c) ; hyp\n"
               "2. P(c) |- P(c) and P(c) ; and-i(1, 1)\n"
               "3. P(c) |- P(c) ; and-e2(2)\n")
    shuffled = ("2. P(c) |- P(c) and P(c) ; and-i(1, 1)\n"
                "1. P(c) |- P(c) ; hyp\n"
                "3. P(c) |- P(c) ; and-e2(2)\n")
    tree = parse_proof_script(ordered, sig)
    assert parse_proof_script(shuffled, sig) == tree
    assert tree.line == 3 and tree.premises[0].line == 2


def test_annotations_and_free_variables(sig):
    text = ("var x0 : s\n"
            "1. Q(x0) |- Q(x0) ; hyp\n"
            "2. Q(x0) |- exists y:s. Q(y) ; exists-i(1) [y := x0]\n")
    tree = parse_proof_script(text, sig)
    assert tree.witness[0] == "y" and tree.witness[1].name == "x0"
    assert tree.witness[1].sort == "s"
    assert kernel.check_proof(tree, sig).accepted


def test_a_witness_annotation_names_the_instantiated_variable(sig):
    text = ("1. forall x:s. P(x) |- forall x:s. P(x) ; hyp\n"
            "2. forall x:s. P(x) |- P(c) ; forall-e(1) [%s := c]\n")
    assert kernel.check_proof(parse_proof_script(text % "x", sig), sig).accepted
    verdict = kernel.check_proof(parse_proof_script(text % "zz", sig), sig)
    assert [(f.line, f.condition) for f in verdict.failures] == [(2, "witness")]


@pytest.mark.parametrize("step, witness, message", [
    ("P(eps x:s. P(x)) ; eps-intro", "x := c", None),
    ("P(eps x:s. P(x)) ; eps-intro", "zz := c",
     "annotation names zz, but the rule instantiates x"),
    ("P(eps x:s. P(x)) ; eps-intro", "x := zz", "unknown constant zz"),
    ("P(tau x:s. not P(x)) ; tau-dual", "x := c", None),
    ("P(tau x:s. not P(x)) ; tau-dual", "y := c",
     "annotation names y, but the rule instantiates x"),
    ("P(tau x:s. not P(x)) ; tau-dual", "x := zz", "unknown constant zz")])
def test_a_choice_rule_annotation_is_checked_as_a_witness(sig, step, witness,
                                                          message):
    text = "1. P(c) |- P(c) ; hyp\n2. P(c) |- %s(1) [%s]\n" % (step, witness)
    verdict = kernel.check_proof(parse_proof_script(text, sig), sig)
    assert [(f.line, f.condition, f.message) for f in verdict.failures] == (
        [] if message is None else [(2, "witness", message)])


def test_shared_trees_compare_and_hash_in_linear_time(sig):
    # outcomes are kept as booleans: a failing assert on the trees would
    # print them, and their repr expands every shared line
    text = shared_script(61)
    start = time.perf_counter()
    a, b = parse_proof_script(text, sig), parse_proof_script(text, sig)
    distinct, same, same_hash = a is not b, a == b, hash(a) == hash(b)
    assert time.perf_counter() - start < 1
    assert distinct and same and same_hash
    changed = text.replace("31. P(c) |- P(c) ;", "31. P(c) |- Q(c) ;")
    assert changed != text
    differs = parse_proof_script(changed, sig) != a
    assert differs


def test_repr_names_premises_by_line(sig):
    tree = parse_proof_script(shared_script(61), sig)
    start = time.perf_counter()
    text = repr(tree)
    assert time.perf_counter() - start < 1
    assert len(text) < 64 * 1024
    assert "rule='and-e1', premises=(line 60), " in text and text.endswith("line=61)")
    assert "premises=(line 59, line 59)" in repr(tree.premises[0])


def test_a_recurring_formula_text_is_one_object(sig):
    text = ("1. P(c), Q(c) |- P(c) ; hyp\n"
            "2. P(c), Q(c) |- Q(c) ; hyp\n"
            "3. P(c), Q(c) |- P(c) and Q(c) ; and-i(1, 2)\n"
            "4. P(c), Q(c), P(c) and Q(c) |- P(c) ; and-e1(3)\n")
    line_4 = parse_proof_script(text, sig)
    line_3 = line_4.premises[0]
    line_1, line_2 = line_3.premises
    p_c, q_c = line_1.sequent.hypotheses
    # a hypothesis of line 1 on every later line
    for line in (line_2, line_3, line_4):
        assert line.sequent.hypotheses[0] is p_c
        assert line.sequent.hypotheses[1] is q_c
    # a conclusion read again as a later hypothesis, and the other way
    assert line_4.sequent.hypotheses[2] is line_3.sequent.conclusion
    assert line_1.sequent.conclusion is p_c and line_4.sequent.conclusion is p_c
    assert line_2.sequent.conclusion is q_c
    assert kernel.check_proof(line_4, sig).accepted


def test_a_var_line_clears_the_memo():
    two = parse_signature("sort s\nsort t\npred P : s\n")
    text = ("var x : s\n"
            "1. P(x) |- P(x) ; hyp\n"
            "var x : t\n"
            "2. P(x) |- P(x) ; hyp\n")
    # the same text P(x), read again with x a t
    assert parse_error(text, two) == [
        "error:4:4: argument 1 of P has sort t, expected s"]
    tree = parse_proof_script(text.rsplit("var", 1)[0], two)
    assert tree.sequent.conclusion.args[0].sort == "s"


def test_a_formula_text_that_fails_is_reported_on_every_line(sig):
    text = ("1. P(zz) |- P(c) ; hyp\n"
            "2. P(c), P(zz) |- P(c) ; hyp\n"
            "3. P(c) |- P(zz) ; hyp\n"
            "4. Q(c) and |- Q(c) ; hyp\n"
            "5. P(c), Q(c) and |- P(c) ; hyp\n"
            "6. P(c) Q(c) |- P(c) ; hyp\n"
            "7. P(c), P(c) Q(c) |- P(c) ; hyp\n")
    # texts that fail the sort check, fail to parse, or hold more than
    # the formula read from them
    assert parse_error(text, sig) == [
        "error:1:4: unknown constant zz",
        "error:2:10: unknown constant zz",
        "error:3:12: unknown constant zz",
        "error:4:13: expected a term, found '|-'",
        "error:5:19: expected a term, found '|-'",
        "error:6:9: expected '|-', found 'Q'",
        "error:7:15: expected '|-', found 'Q'"]
