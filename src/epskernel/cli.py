"""Command-line entry point.

Subcommands: parse, check, eval, translate, classify, semantics, selftest.
Exit codes: 0 success/accepted, 1 checked-and-rejected (or evaluated false
with --expect-true), 2 input error.  EPSKERNEL_SEED fixes the random
formula generator seed used by selftest.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import generators, kernel, models, parser, semantics, transform
from . import syntax as sx


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(str(e))


class InputError(Exception):
    pass


def _load_signature(args):
    if args.signature:
        return parser.parse_signature(_read(args.signature))
    if args.model:
        return parser.parse_model(_read(args.model)).signature
    raise InputError("a --signature or --model file is required")


def _threshold(text, flag):
    try:
        theta = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError("bad %s value %r" % (flag, text)) from None
    if not 0 <= theta <= 1:
        raise InputError("%s value %r is not in [0, 1]" % (flag, text))
    return theta


def _load_model(args):
    m = parser.parse_model(_read(args.model))
    overrides = {}
    if args.theta is not None:
        overrides["most_threshold"] = _threshold(args.theta, "--theta")
    if args.theta_many is not None:
        overrides["many_threshold"] = _threshold(args.theta_many, "--theta-many")
    if args.majority:
        overrides["majority_mode"] = args.majority
    if args.regime:
        overrides["star_regime"] = args.regime
    if overrides:
        from dataclasses import replace
        m = replace(m, **overrides)
    return m


def _emit(args, record, text):
    if args.format == "records":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def run_parse(args):
    sig = _load_signature(args)
    f = parser.parse_formula(args.formula, sig)
    text = parser.print_formula(f) if sx.is_formula(f) else parser.print_term(f)
    _emit(args, {"kind": "parse", "formula": text}, text)
    return 0


def run_check(args):
    sig = _load_signature(args)
    proof = parser.parse_proof_script(_read(args.proof), sig)
    cfg = kernel.KernelConfig(star_regime=args.regime or "B",
                              allow_most_instantiation=args.most_inst)
    verdict = kernel.check_proof(proof, sig, cfg)
    for line, rule, ok in verdict.nodes:
        _emit(args, {"kind": "node", "line": line, "rule": rule, "ok": ok},
              "line %s: %s: %s" % (line, rule, "ok" if ok else "FAIL"))
    for fa in verdict.failures:
        _emit(args, {"kind": "failure", "line": fa.line, "rule": fa.rule,
                     "condition": fa.condition, "message": fa.message}, str(fa))
    _emit(args, {"kind": "verdict", "accepted": verdict.accepted},
          "accepted" if verdict.accepted else "rejected")
    return 0 if verdict.accepted else 1


def run_eval(args):
    model = _load_model(args)
    f = parser.parse_formula(args.formula, model.signature)
    if not sx.is_formula(f):
        raise InputError("eval needs a formula, got a bare term")
    res = models.eval_formula(model, None, f)
    text = parser.print_formula(f)
    if args.format == "records":
        record = {"kind": "eval", "formula": text, "value": res.value,
                  "flags": res.flags}
        if args.witnesses:
            record["witnesses"] = [{"term": t, "element": str(e)}
                                   for t, e in res.witnesses]
        _emit(args, record, None)
    else:
        lines = ["%s = %s" % (text, str(res.value).lower())]
        lines += ["flag: %s" % fl for fl in res.flags]
        if args.witnesses:
            lines += ["witness: %s -> %s" % (t, e) for t, e in res.witnesses]
        _emit(args, None, "\n".join(lines))
    if args.expect_true and not res.value:
        return 1
    return 0


_TRANSLATORS = {
    "frege": transform.frege_embed,
    "unfrege": transform.frege_unembed,
    "epsilon": lambda f: transform.Translation(transform.epsilon_embed(f)),
    "concepts-up": lambda f: transform.Translation(transform.lift_to_concepts(f)),
    "concepts-down": lambda f: transform.Translation(transform.lower_from_concepts(f)),
    "nnf": lambda f: transform.Translation(transform.push_negation(f)),
}


def run_translate(args):
    sig = _load_signature(args)
    f = parser.parse_formula(args.formula, sig)
    if not sx.is_formula(f):
        raise InputError("translate needs a formula, got a bare term")
    out = _TRANSLATORS[args.mode](f)
    text = parser.print_formula(out.formula)
    record = {"kind": "translate", "mode": args.mode, "formula": text,
              "tags": list(out.tags)}
    lines = [text] + ["tag: %s" % t for t in out.tags]
    _emit(args, record, "\n".join(lines))
    return 0


def run_classify(args):
    theta = _threshold(args.theta, "--theta") if args.theta else Fraction(1, 2)
    profile = models.classify_quantifier(args.quantifier, args.size,
                                         theta=theta, mode=args.majority or "strict")
    record = {"kind": "profile", "quantifier": profile.name,
              "conservative": profile.conservative,
              "left_monotone": profile.left_monotone,
              "right_monotone": profile.right_monotone,
              "symmetric": profile.symmetric,
              "intersective": profile.intersective,
              "size_bound": profile.size_bound}
    text = ("%s (up to size %d): conservative: %s, left: %s, right: %s, "
            "symmetric: %s, intersective: %s"
            % (profile.name, profile.size_bound,
               "yes" if profile.conservative else "no",
               profile.left_monotone, profile.right_monotone,
               "yes" if profile.symmetric else "no",
               "yes" if profile.intersective else "no"))
    _emit(args, record, text)
    return 0


def run_semantics(args):
    lex = semantics.parse_lexicon(_read(args.lexicon))
    clauses = semantics.parse_fragment(args.sentence, lex)
    formula, state = semantics.build_logical_form(
        clauses, lex, presuppose=args.presupposition)
    text = parser.print_formula(formula)
    record = {"kind": "semantics", "formula": text,
              "presuppositions": [parser.print_formula(p)
                                  for p in state.presuppositions],
              "referents": [{"term": parser.print_term(t), "sort": s, "noun": n}
                            for t, s, n in state.referents]}
    lines = [text]
    for p in state.presuppositions:
        lines.append("presupposes: %s" % parser.print_formula(p))
    for t, s, n in state.referents:
        lines.append("referent: %s (%s, %s)" % (parser.print_term(t), s, n))
    _emit(args, record, "\n".join(lines))
    return 0


def run_selftest(args):
    seed = int(os.environ.get("EPSKERNEL_SEED", "20260825"))
    rng = random.Random(seed)
    failures = generators.run_selftest(rng, size=args.size)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p, signature=False):
    p.add_argument("--format", choices=["text", "records"], default="text")
    if signature:
        p.add_argument("--signature", help="signature file")
        p.add_argument("--model", help="model file (signature is derived)")


def _add_regime(p):
    p.add_argument("--regime", choices=["A", "B"],
                   help="entailment regime for forall*/exists*")


@functools.cache
def build_arg_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    ap = argparse.ArgumentParser(
        prog="epskernel",
        description="proof checking, finite-model evaluation and semantic "
                    "construction for quantifiers and Hilbert choice operators")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a formula")
    _add_common(p, signature=True)
    p.add_argument("formula")
    p.set_defaults(fn=run_parse)

    p = sub.add_parser("check", help="check a proof script")
    _add_common(p, signature=True)
    _add_regime(p)
    p.add_argument("--most-inst", dest="most_inst", action="store_true",
                   help="enable the experimental most instantiation rule")
    p.add_argument("--proof", required=True, help="proof script file")
    p.set_defaults(fn=run_check)

    p = sub.add_parser("eval", help="evaluate a formula in a model")
    _add_common(p)
    p.add_argument("--theta", help="threshold for 'most' (e.g. 0.5)")
    p.add_argument("--theta-many", dest="theta_many",
                   help="threshold for 'many'")
    _add_regime(p)
    p.add_argument("--majority", choices=["strict", "weak"],
                   help="majority reading of 'most'")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--witnesses", action="store_true",
                   help="show the element chosen by each binder term")
    p.add_argument("--expect-true", dest="expect_true", action="store_true",
                   help="exit 1 when the formula is false")
    p.add_argument("formula")
    p.set_defaults(fn=run_eval)

    p = sub.add_parser("translate", help="apply a formula translation")
    _add_common(p, signature=True)
    p.add_argument("--mode", required=True, choices=sorted(_TRANSLATORS))
    p.add_argument("formula")
    p.set_defaults(fn=run_translate)

    p = sub.add_parser("classify", help="classify a generalized quantifier")
    _add_common(p)
    p.add_argument("quantifier", choices=list(models.DETERMINERS))
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--theta")
    p.add_argument("--majority", choices=["strict", "weak"])
    p.set_defaults(fn=run_classify)

    p = sub.add_parser("semantics", help="translate a controlled-English "
                                         "fragment to a logical form")
    _add_common(p)
    p.add_argument("--presupposition", action="store_true",
                   help="assert the restriction of description terms")
    p.add_argument("--lexicon", required=True, help="lexicon file")
    p.add_argument("sentence")
    p.set_defaults(fn=run_semantics)

    p = sub.add_parser("selftest", help="run the embedded invariant suites")
    p.add_argument("--size", type=int, default=3)
    p.set_defaults(fn=run_selftest)

    return ap


def main(argv=None):
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except parser.ParseError as e:     # LexiconError too
        for d in e.diagnostics:
            print(str(d), file=sys.stderr)
        return 2
    except (InputError, models.EvalError, transform.TransformError,
            semantics.SemanticsError,
            sx.SortError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deep", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
