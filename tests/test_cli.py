import json
import time

import pytest

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


# evaluation runs compiled closures, which nest as deep as the formula
@pytest.mark.parametrize("command", ["eval"])
def test_deep_nesting_exit_2(capsys, tmp_path, command):
    model = tmp_path / "m.model"
    model.write_text("sort s = {e1, e2}\nconst a : s = e1\npred P : s = {e1}\n")
    code, out, err = run(capsys, command, "--model", str(model),
                         "not " * 3000 + "P(a)")
    assert code == 2
    assert "nested too deep" in err
    assert out == ""


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
