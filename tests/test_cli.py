import json
import time
from fractions import Fraction

import pytest

from epskernel import models
from epskernel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_ok(capsys, fixtures):
    code, out, _ = run(capsys, "parse", "--signature",
                       str(fixtures / "base.sig"), "forall x:s. P(x)")
    assert code == 0
    assert out.strip() == "forall x:s. P(x)"


def test_parse_error_exit_2(capsys, fixtures):
    code, _, err = run(capsys, "parse", "--signature",
                       str(fixtures / "base.sig"), "forall x:s (")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text, code, out, err", [
    # a bare term is sort-checked as a formula is
    ("eps x:s. Q(zz)", 2, "", "error:1:1: unknown constant zz\n"),
    ("P(eps x:s. Q(zz))", 2, "", "error:1:1: unknown constant zz\n"),
    # a leading term that does not end the text starts a formula
    ("most:s = c and P(c)", 0, "(most:s = c) and P(c)\n", ""),
])
def test_leading_and_bare_terms_are_read_and_sort_checked(capsys, fixtures, text,
                                                          code, out, err):
    assert run(capsys, "parse", "--signature", str(fixtures / "base.sig"),
               text) == (code, out, err)


def test_check_accepted(capsys, fixtures):
    code, out, _ = run(capsys, "check", "--signature",
                       str(fixtures / "base.sig"),
                       "--proof", str(fixtures / "exists-intro.proof"))
    assert code == 0
    assert "accepted" in out


def test_check_rejected_exit_1(capsys, fixtures):
    code, out, _ = run(capsys, "check", "--signature",
                       str(fixtures / "base.sig"),
                       "--proof", str(fixtures / "bad-eigenvariable.proof"))
    assert code == 1
    assert "rejected" in out
    assert "eigenvariable" in out


def test_check_records_mode(capsys, fixtures):
    code, out, _ = run(capsys, "check", "--format", "records", "--signature",
                       str(fixtures / "base.sig"),
                       "--proof", str(fixtures / "exists-intro.proof"))
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[-1] == {"kind": "verdict", "accepted": True}
    assert all("kind" in r for r in records)


def test_eval(capsys, fixtures):
    code, out, _ = run(capsys, "eval", "--model",
                       str(fixtures / "most_counterexample.model"),
                       "--witnesses",
                       "exists x:ind. student(x)")
    assert code == 0
    assert "true" in out


def test_eval_expect_true_exit_1(capsys, fixtures):
    code, _, _ = run(capsys, "eval", "--model",
                     str(fixtures / "most_counterexample.model"),
                     "--expect-true",
                     "most x:ind (student(x)). goesOut(x)")
    assert code == 1


def test_eval_theta_override(capsys, fixtures):
    code, out, _ = run(capsys, "eval", "--model",
                       str(fixtures / "density.model"),
                       "--theta", "0.9",
                       "most x:nat. not prime(x)")
    assert code == 0
    assert "false" in out


def test_translate(capsys, fixtures):
    code, out, _ = run(capsys, "translate", "--signature",
                       str(fixtures / "base.sig"), "--mode", "epsilon",
                       "exists x:s. P(x)")
    assert code == 0
    assert out.strip() == "P(eps x:s. P(x))"


def test_translate_frege_tag(capsys, fixtures):
    code, out, _ = run(capsys, "translate", "--signature",
                       str(fixtures / "base.sig"), "--mode", "frege",
                       "most x:s (P(x)). Q(x)")
    assert code == 0
    assert "not-frege-reducible" in out


def test_translate_error_exit_2(capsys, fixtures):
    code, _, err = run(capsys, "translate", "--signature",
                       str(fixtures / "base.sig"), "--mode", "epsilon",
                       "most x:s. P(x)")
    assert code == 2
    assert "error" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "most", "--size", "3")
    assert code == 0
    assert "conservative: yes" in out


def test_classify_is_polynomial_in_the_size(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", "most", "--size", "40")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert "right: upward" in out


def test_semantics_command(capsys, fixtures):
    code, out, _ = run(capsys, "semantics", "--lexicon",
                       str(fixtures / "fragment.lex"), "most dogs bite")
    assert code == 0
    assert out.strip().splitlines()[0] == "bite(most:dog)"


def test_semantics_presupposition_output(capsys, fixtures):
    code, out, _ = run(capsys, "semantics", "--lexicon",
                       str(fixtures / "fragment.lex"),
                       "most students that passed-algebra passed-logic")
    assert code == 0
    assert "presupposes:" in out


def test_selftest_seeded(capsys, monkeypatch):
    monkeypatch.setenv("EPSKERNEL_SEED", "42")
    code, out, _ = run(capsys, "selftest", "--size", "2")
    assert code == 0
    assert "ok" in out


# the parser still reads a term's arguments recursively; a formula as deep
# evaluates, since both forms of evaluation are flat generated code
@pytest.mark.parametrize("command", ["eval"])
def test_deep_nesting_exit_2(capsys, tmp_path, command):
    model = tmp_path / "m.model"
    model.write_text("sort s = {e1, e2}\nconst a : s = e1\n"
                     "fun f : s -> s = {e1: e2, e2: e1}\npred P : s = {e1}\n")
    code, out, err = run(capsys, command, "--model", str(model),
                         "P(" + "f(" * 3000 + "a" + ")" * 3001)
    assert code == 2
    assert "nested too deep" in err
    assert out == ""
    deep = "not " * 3000 + "P(a)"
    assert run(capsys, command, "--model", str(model), deep) \
        == (0, deep + " = true\n", "")


def test_deep_formulas_parse_translate_and_print_back(capsys, fixtures):
    deep = "not " * 3000 + "P(c)"
    sig = str(fixtures / "base.sig")
    assert run(capsys, "parse", "--signature", sig, deep) == (0, deep + "\n", "")
    assert run(capsys, "translate", "--signature", sig, "--mode", "nnf", deep) \
        == (0, "P(c)\n", "")
    prefix = "forall x:s. " * 3000 + "P(x)"
    code, out, _ = run(capsys, "translate", "--signature", sig, "--mode", "frege",
                       prefix)
    assert (code, out) == (0, prefix + "\n")


def test_every_subcommand_runs_twice_alike(capsys, fixtures, monkeypatch):
    monkeypatch.setenv("EPSKERNEL_SEED", "42")
    sig = str(fixtures / "base.sig")
    calls = [
        ["parse", "--signature", sig, "forall x:s. P(x)"],
        ["parse", "--signature", sig, "forall x:s ("],
        ["check", "--signature", sig, "--proof",
         str(fixtures / "exists-intro.proof")],
        ["check", "--signature", sig, "--proof",
         str(fixtures / "bad-eigenvariable.proof")],
        ["eval", "--model", str(fixtures / "most_counterexample.model"),
         "--witnesses", "--format", "records", "exists x:ind. student(x)"],
        ["translate", "--signature", sig, "--mode", "epsilon",
         "exists x:s. P(x)"],
        ["classify", "most", "--size", "3"],
        ["semantics", "--lexicon", str(fixtures / "fragment.lex"),
         "a man enters . he whistles"],
        ["selftest", "--size", "2"],
    ]
    for argv in calls:
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first, argv


def test_unknown_rule_is_a_parse_error(capsys, fixtures, tmp_path):
    proof = tmp_path / "bad-rule.proof"
    proof.write_text("1. P(c) |- P(c) ; hyp\n2. P(c) |- P(c) ; copy(1)\n")
    code, out, err = run(capsys, "check", "--signature",
                         str(fixtures / "base.sig"), "--proof", str(proof))
    assert code == 2
    assert "unknown rule 'copy'" in err and out == ""


def test_selftest_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as e:
        main(["selftest", "--jobs", "2"])
    assert e.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check", "--signature", "base.sig", "--proof", "eps-intro.proof",
     "--majority", "weak"],
    ["check", "--signature", "base.sig", "--proof", "eps-intro.proof",
     "--presupposition"],
    ["semantics", "--lexicon", "fragment.lex", "--regime", "A", "a man enters"],
    ["semantics", "--lexicon", "fragment.lex", "--majority", "weak",
     "a man enters"],
    ["semantics", "--lexicon", "fragment.lex", "--most-inst", "a man enters"],
    ["selftest", "--format", "records"],
], ids=["check --majority", "check --presupposition", "semantics --regime",
        "semantics --majority", "semantics --most-inst", "selftest --format"])
def test_options_no_command_reads_are_gone(capsys, fixtures, argv):
    argv = [str(fixtures / a) if a.endswith((".sig", ".proof", ".lex")) else a
            for a in argv]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_semantics_presupposition_asserts_the_indefinite(capsys, fixtures):
    code, out, _ = run(capsys, "semantics", "--lexicon",
                       str(fixtures / "fragment.lex"), "--presupposition",
                       "a man enters")
    assert code == 0
    assert out.splitlines()[0] == ("enter(eta x:man. man(x)) and "
                                   "man(eta x:man. man(x))")


def test_check_rejects_a_capturing_instance(capsys, fixtures, tmp_path):
    code, out, _ = run(capsys, "check", "--signature", str(fixtures / "base.sig"),
                       "--proof", str(fixtures / "capture.proof"))
    assert code == 1 and out.splitlines()[-1] == "rejected"
    ok = tmp_path / "instance.proof"
    ok.write_text((fixtures / "capture.proof").read_text().replace(
        "exists x1:s. not x1 = x1", "exists x2:s. not x1 = x2"))
    code, out, _ = run(capsys, "check", "--signature", str(fixtures / "base.sig"),
                       "--proof", str(ok))
    assert code == 0 and out.splitlines()[-1] == "accepted"


def test_witness_text_uses_the_printer(capsys, fixtures):
    code, out, _ = run(capsys, "eval", "--model",
                       str(fixtures / "most_counterexample.model"), "--witnesses",
                       "student(eps x:ind. not (student(x) and goesOut(x)))")
    assert code == 0
    witness = "witness: eps x:ind. not (student(x) and goesOut(x)) -> d1"
    assert witness in out.splitlines()


@pytest.mark.parametrize("flag", ["classify --theta", "eval --theta",
                                  "eval --theta-many"])
def test_zero_denominator_threshold_is_an_input_error(capsys, fixtures, flag):
    command, option = flag.split()
    argv = [command, option, "1/0"] + (
        ["most"] if command == "classify" else
        ["--model", str(fixtures / "density.model"), "most x:nat. not prime(x)"])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: bad %s value '1/0'\n" % option


@pytest.mark.parametrize("argv", [["eval", "--theta", "2"],
                                  ["eval", "--theta-many", "3/2"],
                                  ["classify", "--theta=-1/2"]])
def test_threshold_outside_0_1_is_an_input_error(capsys, fixtures, argv):
    command, option = argv[0], argv[1].split("=")[0]
    value = argv[-1].split("=")[-1]
    argv += ["most"] if command == "classify" else [
        "--model", str(fixtures / "density.model"), "most x:nat. not prime(x)"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: %s value %r is not in [0, 1]\n" % (option, value)
    # the bounds themselves are thresholds, and the library takes any
    assert run(capsys, "classify", "--theta", "1", "most")[0] == 0
    assert models.classify_quantifier("most", 3, theta=Fraction(2)).name == "most"


def test_model_threshold_outside_0_1_is_located(capsys, tmp_path):
    model = tmp_path / "theta.model"
    model.write_text("sort s = {a}\nthreshold most = 7\n")
    code, out, err = run(capsys, "eval", "--model", str(model), "exists x:s. x = x")
    assert (code, out, err) == (2, "", "error:2:1: threshold 7 not in [0, 1]\n")


@pytest.mark.parametrize("text, formula, diagnostic", [
    ("sort nat = int\npred prime : nat = @prime\nmeasure nat = density(0)\n",
     "exists x:nat. prime(x)", "error:3:1: bad density bound"),
    ("sort nat = int\npred prime : nat = @prime\nmeasure nat = density(-5)\n",
     "exists x:nat. prime(x)", "error:3:1: bad density bound"),
    ("sort nat = int\npred q : nat = @square\nmeasure nat = density(10)\n",
     "exists x:nat. q(x)", "error:2:1: unknown builtin predicate @square"),
    ("sort s = {a, b}\npred prime : s = @prime\n", "exists x:s. prime(x)",
     "error:2:1: builtin @prime needs one argument of an integer sort"),
])
def test_bad_builtin_declarations_exit_2(capsys, tmp_path, text, formula,
                                         diagnostic):
    model = tmp_path / "bad.model"
    model.write_text(text)
    code, out, err = run(capsys, "eval", "--model", str(model), formula)
    assert code == 2 and out == ""
    assert diagnostic in err.splitlines()


def test_a_model_file_gives_the_signature(capsys, fixtures, tmp_path):
    model = str(fixtures / "most_counterexample.model")
    assert run(capsys, "parse", "--model", model, "exists x:ind. student(x)") \
        == (0, "exists x:ind. student(x)\n", "")
    assert run(capsys, "translate", "--model", model, "--mode", "nnf",
               "not forall x:ind. student(x)") \
        == (0, "exists x:ind. not student(x)\n", "")
    proof = tmp_path / "student.proof"
    proof.write_text("1. exists x:ind. student(x) |- exists x:ind. student(x)"
                     " ; hyp\n")
    assert run(capsys, "check", "--model", model, "--proof", str(proof)) \
        == (0, "line 1: hyp: ok\naccepted\n", "")


@pytest.mark.parametrize("argv", [["parse", "P(c)"],
                                  ["translate", "--mode", "nnf", "P(c)"],
                                  ["check", "--proof", "none.proof"]],
                         ids=["parse", "translate", "check"])
def test_a_signature_or_model_file_is_required(capsys, argv):
    assert run(capsys, *argv) == (
        2, "", "error: a --signature or --model file is required\n")


@pytest.mark.parametrize("mode, value", [("weak", "true"), ("strict", "false")])
def test_the_majority_mode_decides_a_ratio_at_the_threshold(capsys, fixtures,
                                                            mode, value):
    # two students of ten: the ratio 1/5 meets the threshold but does not
    # exceed it
    assert run(capsys, "eval", "--model",
               str(fixtures / "most_counterexample.model"), "--theta", "1/5",
               "--majority", mode, "most x:ind. student(x)") == (
        0, "most x:ind. student(x) = %s\nflag: most-ratio 1/5\n" % value, "")


@pytest.mark.parametrize("argv", [["eval"], ["translate", "--mode", "nnf"]],
                         ids=["eval", "translate"])
def test_a_bare_term_is_not_evaluated_or_translated(capsys, fixtures, argv):
    model = str(fixtures / "most_counterexample.model")
    assert run(capsys, *argv, "--model", model, "eps x:ind. student(x)") == (
        2, "", "error: %s needs a formula, got a bare term\n" % argv[0])


def test_a_count_measure_is_read_as_the_default_measure(capsys, tmp_path):
    plain = "sort s = {a, b, c}\npred P : s = {a, b}\n"
    for text in (plain, plain + "measure s = count\n"):
        model = tmp_path / "count.model"
        model.write_text(text)
        assert run(capsys, "eval", "--model", str(model), "most x:s. P(x)") \
            == (0, "most x:s. P(x) = true\nflag: most-ratio 2/3\n", "")
