"""The declaration reader for signature, model and lexicon files against
the line-splitting readers it replaced (tests/decl_oracle.py), on every
fixture, the benchmark's rendered request files and drawn models; a fuzz
of all three readers and the CLI; and integer-sort constants."""

import io
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import decl_oracle as oracle
from conftest import FIXTURES
from epskernel import models, parser
from epskernel.cli import main
from epskernel.semantics import LexiconError, parse_lexicon
from test_compiled import small_models
from test_evaluator import render

sys.path.insert(0, str(FIXTURES.parents[1] / "bench"))
import render as bench_render  # noqa: E402
import workloads  # noqa: E402

READERS = {"sig": (parser.parse_signature, oracle.parse_signature),
           "model": (parser.parse_model, oracle.parse_model),
           "lex": (parse_lexicon, oracle.parse_lexicon)}
FIXTURE_KINDS = {".sig": "sig", ".model": "model", ".lex": "lex"}


def outcome(read, text):
    try:
        return read(text)
    except (parser.ParseError, oracle.LexiconError):
        return "rejected"


def assert_same(kind, text):
    new, old = READERS[kind]
    assert outcome(new, text) == outcome(old, text), text


def fixture_texts():
    return [(FIXTURE_KINDS[p.suffix], p.read_text())
            for p in sorted(FIXTURES.iterdir()) if p.suffix in FIXTURE_KINDS]


def test_fixtures_read_as_before():
    texts = fixture_texts()
    assert sorted(kind for kind, _ in texts) == ["lex", "model", "model", "sig"]
    for kind, text in texts:
        assert_same(kind, text)
        assert outcome(READERS[kind][0], text) != "rejected"


def test_bench_request_files_read_as_before():
    rng = random.Random(7)
    assert_same("sig", bench_render.signature(
        ["s"], {"c": "s"}, {"P": ("s",), "Q": ("s",), "A": ("s",), "R": ("s", "s")}))
    for n in (1, 2, 6, 9):
        text = workloads._random_model(rng, "s", "c", ["P", "Q", "A"], "R", n)
        assert_same("model", text)
        assert outcome(parser.parse_model, text) != "rejected"


@given(small_models())
@settings(max_examples=150, deadline=None)
def test_drawn_models_read_as_before(m):
    text = render(m)
    assert_same("model", text)
    got = parser.parse_model(text)
    assert (got.domains, got.consts, got.funcs, got.most_threshold,
            got.many_threshold) == (m.domains, m.consts, m.funcs,
                                    m.most_threshold, m.many_threshold)


@pytest.mark.parametrize("kind, text", [
    ("sig", "sort s\nconst c : t"), ("sig", "sort s\nsort s"),
    ("sig", "pred P : s"), ("sig", "fun f : s"), ("sig", "widget w"),
    ("sig", "sort s\nfun f : s, s -> s\npred R : s, s\nconst c : s # c"),
    ("model", "sort s = {a}\npred P : s = {(a, a)}"),
    ("model", "sort s = {a, a}"), ("model", "sort s = a"),
    ("model", "sort s = {a}\nconst c : s = b"),
    ("model", "sort s = {a}\nfun f : s -> s = {a b}"),
    ("model", "sort s = {a, b}\nfun f : s -> s = {a: b}"),
    ("model", "sort s = {a, b}\nfun f : s, s -> s = {(a, b): a, (b, b): b}"),
    ("model", "sort s = {a}\npred P : s = {(a)}\npred Z :  = {}"),
    ("model", "sort nat = int\nmeasure nat = density(5)\npred e : nat = @even"),
    ("model", "measure s = density(x)"), ("model", "measure s = sum"),
    ("model", "threshold most = 1/0"), ("model", "threshold few = 1/2"),
    ("model", "threshold many = 3/4\nmode majority = weak"),
    ("model", "mode majority = loose"), ("model", "sort s"),
    ("lex", "noun dog"), ("lex", "verb bite : bite"), ("lex", "widget dog : dog"),
    ("lex", "tverb know : know(person)"), ("lex", "adj old : old(dog)\npron it : dog"),
])
def test_small_inputs_read_as_before(kind, text):
    assert_same(kind, text)


def test_newly_rejected_inputs():
    # the old model reader took 'a b' for one element and let sorts,
    # predicates and constants be declared twice
    for text in ["sort s = {a b, c}", "sort s = {a,}",
                 "sort s = {a}\npred P : s = {a}\npred P : s = {}",
                 "sort s = {a}\nconst c : s = a\nconst c : s = a",
                 "threshold most = -0.5", "threshold most = 1e-1"]:
        assert outcome(oracle.parse_model, text) != "rejected"
        assert outcome(parser.parse_model, text) == "rejected", text


LOCATED = re.compile(r"error:\d+:\d+: ")


def cli(argv, path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def mutated(draw_data, text):
    """text with a few bytes replaced, inserted or deleted, decoded back."""
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw_data.draw(st.integers(1, 4))):
        at = draw_data.draw(st.integers(0, len(data)))
        how = draw_data.draw(st.sampled_from(["set", "insert", "delete"]))
        byte = draw_data.draw(st.integers(0, 255))
        if how == "insert" or at == len(data):
            data.insert(at, byte)
        elif how == "set":
            data[at] = byte
        else:
            del data[at]
    return data.decode("utf-8", errors="replace")


@given(st.sampled_from(["sig", "model", "lex"]), st.data())
@settings(max_examples=300, deadline=None)
def test_readers_and_cli_return_or_reject_any_text(tmp_path_factory, kind, data):
    if data.draw(st.booleans()):
        text = data.draw(st.text(max_size=60))
    else:
        fixtures = [t for k, t in fixture_texts() if k == kind]
        text = mutated(data, data.draw(st.sampled_from(fixtures)))
    read = READERS[kind][0]
    try:
        read(text)
        rejected = False
    except (parser.ParseError, LexiconError) as e:
        rejected = True
        assert e.diagnostics and all(LOCATED.match(str(d)) for d in e.diagnostics)
    path = tmp_path_factory.mktemp("fuzz") / ("input." + kind)
    argv = {"sig": ["parse", "--signature", str(path), "P(c)"],
            "model": ["eval", "--model", str(path), "c = c"],
            "lex": ["semantics", "--lexicon", str(path), "a dog bites"]}[kind]
    code, err = cli(argv, path, text)
    assert "Traceback" not in err
    if rejected:
        assert code == 2 and err and all(map(LOCATED.match, err.splitlines())), err
    else:
        assert code in (0, 1, 2)


def test_builtin_name_is_one_identifier(tmp_path):
    # a builtin's name was every token after '@' joined, so a byte the
    # lexer rejects went raw into a message and split it over two lines
    for value, col, msg in [("@\x0brime", 21, "expected builtin name, found '\\x0b'"),
                            ("@prime x", 27, "trailing input"),
                            ("@", 21, "expected builtin name, found 'end of input'")]:
        text = (FIXTURES / "density.model").read_text().replace("@prime", value)
        with pytest.raises(parser.ParseError) as e:
            parser.parse_model(text)
        assert [str(d) for d in e.value.diagnostics] == ["error:2:%d: %s" % (col, msg)]
        assert cli(["eval", "--model", str(tmp_path / "d.model"), "prime(2)"],
                   tmp_path / "d.model", text) == (2, "error:2:%d: %s\n" % (col, msg))


def test_integer_sort_constants_are_numbers_of_the_sort(tmp_path):
    text = ("sort nat = int\nconst c : nat = 7\npred prime : nat = @prime\n"
            "measure nat = density(10)\n")
    m = parser.parse_model(text)
    assert m.consts == {"c": 7}
    for formula in ["exists x:nat. x = c", "prime(c)", "c = eps x:nat. x = c"]:
        f = parser.parse_formula(formula, m.signature)
        assert models.truth(m, f) is True
        assert models.eval_formula(m, None, f).value is True
        code, err = cli(["eval", "--model", str(tmp_path / "c.model"),
                         "--expect-true", formula], tmp_path / "c.model", text)
        assert (code, err) == (0, "")
    for bad in ("0", "11", "c"):
        with pytest.raises(parser.ParseError) as e:
            parser.parse_model(text.replace("= 7", "= " + bad))
        assert [str(d) for d in e.value.diagnostics] == [
            "error:2:1: constant c = %s not in sort nat" % bad]


def test_function_tables_are_checked(tmp_path):
    # each entry has one element per argument and a value, each in its
    # sort, checked when the file is read rather than where eval meets it
    for table, msg in [
            ("{zz: qq, (a, b): a}", "function f takes 1 arguments"),
            ("{a: b, zz: a}", "element zz of function f not in sort s"),
            ("{a: qq}", "element qq of function f not in sort s"),
            ("{a: b, b: a, a: a}", "function f lists an argument tuple twice")]:
        text = "sort s = {a, b}\nfun f : s -> s = %s\nconst c : s = a\n" % table
        with pytest.raises(parser.ParseError) as e:
            parser.parse_model(text)
        assert [str(d) for d in e.value.diagnostics] == ["error:2:1: " + msg]
        assert cli(["eval", "--model", str(tmp_path / "f.model"), "f(c) = c"],
                   tmp_path / "f.model", text) == (2, "error:2:1: %s\n" % msg)
    # an integer sort's elements are numbers, in keys and values alike
    text = ("sort nat = int\nmeasure nat = density(5)\nconst c : nat = 2\n"
            "fun g : nat -> nat = {1: 2, 2: 3}\n")
    m = parser.parse_model(text)
    assert m.funcs == {"g": {(1,): 2, (2,): 3}}
    for formula, value in [("g(c) = c", False), ("exists x:nat. g(x) = c", True)]:
        f = parser.parse_formula(formula, m.signature)
        assert models.truth(m, f) is value
        assert models.eval_formula(m, None, f).value is value
    for table, bad in [("{0: 1}", "0"), ("{1: 6}", "6"), ("{x: 1}", "x")]:
        with pytest.raises(parser.ParseError) as e:
            parser.parse_model(text.replace("{1: 2, 2: 3}", table))
        assert [str(d) for d in e.value.diagnostics] == [
            "error:4:1: element %s of function g not in sort nat" % bad]
