"""The three benchmark workloads.

Each ``build_*`` function is the workload's set-up: it generates the inputs
from the seed, renders them to text, writes them under ``workdir``, reads
and parses them back (checking that the rendering round-trips), and
enumerates the models the ops need.  It returns a ``Prepared`` whose ops
are the timed unit of work and whose ``verify`` holds the known answer of
each op.

Known answers never come from the output being checked: proofs are
accepted or rejected by construction, embeddings are truth-equal by the
paper's theorem, the density ratio comes from a sieve written here, and
the semantics and classify answers come from the golden files and the
criterion-8 table.  The sweeps' model counts (how many models satisfy a
proof's hypotheses and its conclusion, how many satisfy each prefix
formula) are compared with ``answers.json``, recorded once at the seed
commit by ``run.py --record-answers``.  The counts do not depend on the
run seed, because renaming keeps the order of the enumerated models.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import render

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The proof structures are the criterion-1 corpus.  The run seed draws the
# symbol names and the op order, so every seed checks the same proofs up
# to renaming and the work per run does not depend on the seed.
CORPUS_SEED = 20260825
CORPUS_SIZE = 220
SOUNDNESS_MODEL_SIZE = 4
# the quick slice's model sample; fixed, so that its counts can be recorded
QUICK_SAMPLE_SEED = 5

EPSILON_MODEL_SIZE = 3
# models of size 3 checked per epsilon op; sizes 1 and 2 are always kept.
# The sample is the same for every seed, so that the work of a pass does
# not depend on the seed.
EPSILON_SIZE3_SAMPLE = 384
EPSILON_SAMPLE_SEED = 3

PRED_NAMES = ["P", "Q", "A", "B", "F", "G", "H", "K", "L", "M", "N", "W",
              "Red", "Tall", "Owns", "Sees"]
CONST_NAMES = ["c", "d", "k", "m0", "a0", "john", "mary", "c1"]
SORT_NAMES = ["s", "obj", "ind", "thing", "e0", "node"]


@dataclass
class Prepared:
    ops: list                       # [(label, fn)]; fn() returns the output
    verify: object                  # verify(index, output) -> None | message
    digest: str
    roundtrip_failures: list = field(default_factory=list)
    counts: object = None           # counts(output) -> recorded model counts


_answers = None


def recorded_counts(workload, label, quick):
    """Model counts recorded for an op, or None."""
    global _answers
    if _answers is None:
        path = HERE / "answers.json"
        _answers = json.loads(path.read_text()) if path.exists() else {}
    return _answers.get(workload, {}).get("quick" if quick else "full",
                                          {}).get(label)


def check_counts(workload, label, quick, got):
    want = recorded_counts(workload, label, quick)
    if want is None:
        return "no model counts recorded in answers.json"
    if list(got) != want:
        return "model counts %s, recorded %s" % (list(got), want)
    return None


def _names(rng, preds, consts=(), sorts=()):
    """Seeded renaming of the given predicate, constant and sort symbols.
    New names keep the alphabetical order of the old ones, so model
    enumeration, which sorts symbols by name, yields the same models in
    the same order under every seed."""
    def draw(old, pool):
        new = sorted(rng.sample(pool, len(old)))
        return dict(zip(sorted(old), new))
    return draw(preds, PRED_NAMES), draw(consts, CONST_NAMES), \
        draw(sorts, SORT_NAMES)


def _digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _stratified_sample(rng, ms, size_of, keep_sizes, per_size):
    """Keep every model whose size is in `keep_sizes`; draw `per_size`
    models of each other size.  Every domain size stays represented."""
    by_size = {}
    for m in ms:
        by_size.setdefault(size_of(m), []).append(m)
    out = []
    for size in sorted(by_size):
        group = by_size[size]
        if size in keep_sizes or len(group) <= per_size:
            out.extend(group)
        else:
            idx = sorted(rng.sample(range(len(group)), per_size))
            out.extend(group[i] for i in idx)
    return out


def _domain_size(m):
    return sum(len(d) for d in m.domains.values())


# ---------------------------------------------------------------------------
# soundness_sweep


def build_soundness(ek, seed, workdir, quick=False):
    rng = random.Random(seed)
    preds, consts, sorts = _names(rng, ["P", "Q"], ["c"], ["s"])
    s = sorts["s"]
    gen = ek.generators
    corpus = gen.proof_corpus(random.Random(CORPUS_SEED), CORPUS_SIZE)
    templates = [t.__name__ for t in gen._PROOF_TEMPLATES]
    items = [("proof-%03d/%s" % (i, templates[i % len(templates)]), p, True)
             for i, p in enumerate(corpus)]
    for i, p in enumerate(corpus):
        mu = gen.mutate_eigenvariable(p)
        if mu is not None:
            items.append(("mutant-%03d/%s" % (i, templates[i % len(templates)]),
                          mu, False))
    if quick:
        items = items[:len(templates)] + [it for it in items if not it[2]][:4]
    items = [(lab, render.rename(p, preds, consts, sorts), ok)
             for lab, p, ok in items]

    sig_text = render.signature([s], {consts["c"]: s},
                                {preds["P"]: (s,), preds["Q"]: (s,)})
    sig_path = _write(workdir / "soundness" / "unary.sig", sig_text)
    paths = [_write(workdir / "soundness" / ("%03d.proof" % i), render.script(p))
             for i, (_, p, _) in enumerate(items)]

    # load back and check the round trip
    parser = ek.parser
    sig = parser.parse_signature(_read(sig_path))
    texts = [_read(p) for p in paths]
    failures = [lab for (lab, p, _), t in zip(items, texts)
                if parser.parse_proof_script(t, sig) != p]
    ms = list(ek.models.enumerate_models(sig, SOUNDNESS_MODEL_SIZE))
    if quick:
        ms = _stratified_sample(random.Random(QUICK_SAMPLE_SEED), ms,
                                _domain_size, (1, 2), 8)

    models, kernel = ek.models, ek.kernel

    def make_op(text, sound):
        def op():
            tree = parser.parse_proof_script(text, sig)
            accepted = kernel.check_proof(tree, sig).accepted
            if not sound:
                return accepted, None
            truth = models.truth
            hyps, concl = tree.sequent.hypotheses, tree.sequent.conclusion
            n_hyps = n_concl = violations = 0
            for m in ms:
                h = all(truth(m, a) for a in hyps)
                c = truth(m, concl)
                n_hyps += h
                n_concl += c
                violations += h and not c
            return accepted, (n_hyps, n_concl, violations)
        return op

    ops = [(lab, make_op(t, ok)) for (lab, _, ok), t in zip(items, texts)]

    def counts(out):
        return out[1] and out[1][:2]

    def verify(i, out):
        accepted, sweep = out
        if items[i][2]:
            if not accepted:
                return "corpus proof rejected"
            if sweep[2]:
                return "%d soundness violations" % sweep[2]
            return check_counts("soundness_sweep", items[i][0], quick, counts(out))
        if accepted:
            return "eigenvariable mutant accepted"
        return None

    return Prepared(ops, verify, _digest([sig_text] + texts), failures, counts)


# ---------------------------------------------------------------------------
# epsilon_sweep


def prefix_family(sx, s, p, r):
    """Criterion 5: quantifier prefixes of depth <= 3 over one unary and
    one binary predicate (80 formulas)."""
    xs = [sx.Var("x1", s), sx.Var("x2", s), sx.Var("x3", s)]

    def P(v):
        return sx.Atom(p, (v,))

    def R(a, b):
        return sx.Atom(r, (a, b))

    out = []
    for d in (1, 2, 3):
        b = xs[:d]
        atoms = [P(v) for v in b] + [R(u, v) for u, v in zip(b, reversed(b))]
        if d == 1:
            mats = atoms + [sx.Not(a) for a in atoms]
        elif d == 2:
            mats = atoms + [sx.Not(a) for a in atoms] + [
                sx.And(P(b[0]), R(b[0], b[1])),
                sx.Or(sx.Not(P(b[1])), R(b[1], b[0]))]
        else:
            mats = [R(b[0], b[2]), sx.Not(R(b[2], b[1])),
                    sx.Or(P(b[2]), R(b[0], b[1])),
                    sx.Implies(P(b[0]), R(b[2], b[2]))]
        for prefix in itertools.product([sx.FORALL, sx.EXISTS], repeat=d):
            for mt in mats:
                f = mt
                for q, v in reversed(list(zip(prefix, b))):
                    f = sx.Quant(q, v, None, f)
                out.append(f)
    return out


def build_epsilon(ek, seed, workdir, quick=False):
    rng = random.Random(seed)
    preds, _, sorts = _names(rng, ["P", "R"], (), ["s"])
    s, p, r = sorts["s"], preds["P"], preds["R"]
    family = prefix_family(ek.syntax, s, p, r)
    labels = ["formula-%02d" % i for i in range(len(family))]
    if quick:
        family, labels = family[::10], labels[::10]
    sig_text = render.signature([s], {}, {p: (s,), r: (s, s)})
    formulas_text = "".join(render.formula(f) + "\n" for f in family)
    sig_path = _write(workdir / "epsilon" / "prefix.sig", sig_text)
    f_path = _write(workdir / "epsilon" / "family.txt", formulas_text)

    parser = ek.parser
    sig = parser.parse_signature(_read(sig_path))
    texts = _read(f_path).splitlines()
    failures = [lab for lab, f, t in zip(labels, family, texts)
                if parser.parse_formula(t, sig) != f]
    ms = list(ek.models.enumerate_models(sig, EPSILON_MODEL_SIZE))
    ms = _stratified_sample(random.Random(EPSILON_SAMPLE_SEED), ms, _domain_size,
                            (1, 2), 8 if quick else EPSILON_SIZE3_SAMPLE)

    models, transform = ek.models, ek.transform
    embedded = {}

    def make_op(i, text):
        def op():
            f = parser.parse_formula(text, sig)
            e = transform.epsilon_embed(f)
            qfree = transform.quantifier_free(e)
            truth = models.truth
            n_true = mismatches = 0
            for m in ms:
                t = truth(m, f)
                n_true += t
                mismatches += t != truth(m, e)
            embedded.setdefault(i, e)
            return qfree, n_true, mismatches
        return op

    ops = [(lab, make_op(i, t)) for i, (lab, t) in enumerate(zip(labels, texts))]

    def counts(out):
        return out[1:2]

    def verify(i, out):
        qfree, _, mismatches = out
        if not qfree or not render.quantifier_free(embedded[i]):
            return "embedding is not quantifier-free"
        if mismatches:
            return "embedding differs in truth on %d models" % mismatches
        return check_counts("epsilon_sweep", labels[i], quick, counts(out))

    return Prepared(ops, verify, _digest([sig_text, formulas_text]), failures,
                    counts)


# ---------------------------------------------------------------------------
# requests: formula generators over the request signature

QUANTS = [("forall", None), ("exists", None), ("forall*", None),
          ("exists*", None), ("most", None), ("most", "strict"),
          ("most", "weak")]
CHOICES = ["eps", "tau", "iota", "eta"]


class _Gen:
    """Bounded random formulas over sort S, constant C, unary P, Q, A and
    binary R (names drawn by seed).  Choice terms are never nested, so the
    cost of an evaluation is bounded by the quantifier depth."""

    def __init__(self, rng, sx, s, c, unary, binary):
        self.rng, self.sx, self.s, self.c = rng, sx, s, c
        self.unary, self.binary = unary, binary

    def var(self, name):
        return self.sx.Var(name, self.s)

    def arg(self, scope, choice):
        rng = self.rng
        if choice and rng.random() < 0.4:
            z = self.var("z")
            return self.sx.Binder(rng.choice(CHOICES), z,
                                  self.body(scope + [z]))
        pool = scope + [self.sx.Const(self.c)]
        return rng.choice(pool)

    def atom(self, scope, choice=False):
        sx, rng = self.sx, self.rng
        if rng.random() < 0.3:
            return sx.Atom(self.binary, (self.arg(scope, choice),
                                         self.arg(scope, choice)))
        return sx.Atom(rng.choice(self.unary), (self.arg(scope, choice),))

    def body(self, scope):
        """Choice-term body: an atom on the bound variable, possibly
        negated or conjoined with an atom on the enclosing scope."""
        sx, rng = self.sx, self.rng
        z = scope[-1]
        a = sx.Atom(rng.choice(self.unary), (z,))
        k = rng.randrange(3)
        if k == 0:
            return a
        if k == 1:
            return sx.Not(a)
        return sx.And(a, sx.Atom(self.binary, (z, rng.choice(scope))))

    def quant(self, v, body, kinds=QUANTS, restricted=0.4):
        sx, rng = self.sx, self.rng
        kind, mode = rng.choice(kinds)
        restr = sx.Atom(rng.choice(self.unary), (v,)) \
            if rng.random() < restricted else None
        return sx.Quant(kind, v, restr, body, mode)

    def connect(self, a, b):
        sx = self.sx
        return self.rng.choice([sx.And, sx.Or, sx.Implies])(a, b)

    def eval_shapes(self):
        """Four closed formulas of fixed shape and random leaves, with
        choice terms, most and the starred quantifiers."""
        x, y = self.var("x"), self.var("y")
        sx = self.sx
        return [
            self.quant(x, self.quant(y, self.atom([x, y], choice=True))),
            self.quant(x, self.connect(self.atom([x], choice=True),
                                       self.atom([x]))),
            sx.And(self.atom([], choice=True),
                   self.quant(x, self.atom([x], choice=True))),
            sx.Not(self.quant(x, self.quant(
                y, self.connect(self.atom([x, y]), self.atom([y], choice=True))))),
        ]

    def classical(self, depth, scope, restricted):
        """forall/exists formula of the given quantifier depth."""
        if depth == 0:
            a = self.atom(scope)
            return self.sx.Not(a) if self.rng.random() < 0.3 else a
        v = self.var("xyuw"[len(scope)])
        body = self.classical(depth - 1, scope + [v], restricted)
        if self.rng.random() < 0.5:
            body = self.connect(body, self.atom(scope + [v]))
        return self.quant(v, body, QUANTS[:2], restricted)


def _concept_input(sx, s, x_body):
    """forall2 X:S. (C(X) implies exists x:S. (X(x) and B(x))), the shape
    concept lifting produces and lowering accepts."""
    X = "X"
    x, y = sx.Var("x", s), sx.Var("y", s)
    guard = sx.And(
        sx.Quant(sx.FORALL, x, None, sx.Quant(sx.FORALL, y, None, sx.Implies(
            sx.And(sx.PredApp(X, x), sx.PredApp(X, y)), sx.Atom("=", (x, y))))),
        sx.Quant(sx.EXISTS, x, None, sx.PredApp(X, x)))
    member = sx.Quant(sx.EXISTS, x, None, sx.And(sx.PredApp(X, x), x_body(x)))
    return sx.Quant2(sx.FORALL2, X, s, sx.Implies(guard, member))


# criterion 8: profiles of the named determiners (theta 1/2, strict)
CLASSIFY_TABLE = {
    "exists": (True, "upward", "upward", True),
    "no": (True, "downward", "downward", True),
    "forall": (True, "downward", "upward", False),
    "most": (True, "none", "upward", False),
}
CLASSIFY_SIZES = (4, 5, 6)

SEMANTICS_CASES = [
    ("most dogs bite", "most-dogs-bite"),
    ("a man enters . he whistles", "a-man-enters-he-whistles"),
    ("most students that passed-algebra passed-logic", "most-students"),
]

SHARED_LENGTHS = (9, 13, 17, 21)
# copies of the request mix in one pass, each drawn afresh from the seed
REQUEST_COPIES = 4
EVAL_SIZES = (6, 8, 10, 12)
DENSITY_N = 10000


def density_ratio(n=DENSITY_N):
    """Share of non-primes in 1..n, by a sieve."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return Fraction(n - sum(sieve), n)


def _shared_script(sx, hyp, n_lines):
    """Lines alternate and-i(k, k) and and-e1(k+1), so each line is used
    twice by the next-but-one and the expanded tree doubles every two
    lines."""
    lines = ["1. %s |- %s ; hyp" % (render.formula(hyp), render.formula(hyp))]
    for n in range(2, n_lines + 1):
        if n % 2 == 0:
            concl = sx.And(hyp, hyp)
            rule = "and-i(%d, %d)" % (n - 1, n - 1)
        else:
            concl = hyp
            rule = "and-e1(%d)" % (n - 1)
        lines.append("%d. %s |- %s ; %s" % (n, render.formula(hyp),
                                            render.formula(concl), rule))
    return "\n".join(lines) + "\n"


def _random_model(rng, s, c, unary, binary, n):
    elems = ["%s%d" % (s, i) for i in range(1, n + 1)]
    preds = {p: {(e,) for e in elems if rng.random() < 0.5} for p in unary}
    preds[binary] = {(a, b) for a in elems for b in elems if rng.random() < 0.3}
    pred_sorts = {p: (s,) for p in unary}
    pred_sorts[binary] = (s, s)
    return render.model({s: elems}, preds, {c: (s, rng.choice(elems))},
                        pred_sorts)


def build_requests(ek, seed, workdir, quick=False):
    rng = random.Random(seed)
    sx, parser = ek.syntax, ek.parser
    preds, consts, sorts = _names(rng, ["P", "Q", "A", "R"], ["c"], ["s"])
    s, c, R = sorts["s"], consts["c"], preds["R"]
    unary = [preds["P"], preds["Q"], preds["A"]]
    g = _Gen(rng, sx, s, c, unary, R)
    d = workdir / "requests"
    files = {}        # name -> text, written below

    def file(name, text):
        files[name] = text
        return str(d / name)

    sig_path = file("request.sig", render.signature(
        [s], {c: s}, {**{p: (s,) for p in unary}, R: (s, s)}))
    lex_path = file("fragment.lex", _read(ROOT / "tests" / "fixtures" / "fragment.lex"))
    golden = ROOT / "tests" / "golden"
    semantics = []
    for sentence, name in SEMANTICS_CASES:
        want = [_read(golden / (name + ".golden")).strip()]
        pre = golden / (name + ".presupposes")
        if pre.exists():
            want.append("presupposes: " + _read(pre).strip())
        semantics.append((sentence, name, want))

    ren = ({"P": preds["P"], "Q": preds["Q"]}, {"c": c}, {"s": s})
    requests = []
    for copy in range(REQUEST_COPIES):
        requests += _request_mix(ek, rng, g, ren, file, "%d-" % copy, sig_path,
                                 lex_path, semantics)
    if quick:
        kinds = {}
        for r in requests:
            kinds.setdefault(r[0].split("-")[1], r)
        requests = list(kinds.values()) + [
            r for r in requests if r[0] in ("0-check-shared-09", "0-eval-density")]

    for name, text in files.items():
        _write(d / name, text)

    # load back what the ops read and check the round trip
    sig = parser.parse_signature(_read(d / "request.sig"))
    failures = []
    for lab, argv, _, source in requests:
        if argv[0] == "eval":
            parser.parse_model(_read(argv[2]))
        if source is None:
            continue
        kind, text, tree = source
        if kind == "script":
            back = parser.parse_proof_script(_read(argv[-1]), sig)
        else:
            back = parser.parse_formula(text, sig)
        if back != tree:
            failures.append(lab)

    cli = ek.cli

    def make_op(argv):
        def op():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        return op

    ops = [(lab, make_op(argv)) for lab, argv, _, _ in requests]
    checker = _RequestChecker(ek, sig)

    def verify(i, out):
        return checker.check(requests[i][2], out)

    digest = _digest([files[k] for k in sorted(files)]
                     + [r[0] + "\0" + r[1][-1] for r in requests
                        if r[1][0] != "check"])
    return Prepared(ops, verify, digest, failures)


def _request_mix(ek, rng, g, ren, file, prefix, sig_path, lex_path, semantics):
    """One copy of the request mix: [(label, argv, known answer, (kind,
    input text, tree) for the round-trip check or None)]."""
    sx = ek.syntax
    s, unary = g.s, g.unary
    requests = []

    def add(label, argv, want, source=None):
        requests.append((prefix + label, argv, want, source))

    # check: one corpus proof per template, eigenvariable mutants and
    # shared-reference scripts
    gen = ek.generators
    corpus = gen.proof_corpus(random.Random(CORPUS_SEED), CORPUS_SIZE)
    templates = gen._PROOF_TEMPLATES
    checks = []
    for i in range(len(templates)):
        k = rng.randrange(i, CORPUS_SIZE, len(templates))
        checks.append(("check-proof-%03d/%s" % (k, templates[i].__name__),
                       render.rename(corpus[k], *ren), True))
    mutants = [(i, mu) for i, mu in enumerate(map(gen.mutate_eigenvariable, corpus))
               if mu is not None]
    for i, mu in rng.sample(mutants, 4):
        checks.append(("check-mutant-%03d" % i, render.rename(mu, *ren), False))
    for n, (lab, tree, ok) in enumerate(checks):
        text = render.script(tree)
        add(lab, ["check", "--signature", sig_path, "--proof",
                  file("%scheck-%02d.proof" % (prefix, n), text)],
            ("check", ok), ("script", text, tree))
    for n in SHARED_LENGTHS:
        hyp = g.atom([]) if rng.random() < 0.5 else sx.And(g.atom([]), g.atom([]))
        add("check-shared-%02d" % n,
            ["check", "--signature", sig_path, "--proof",
             file("%sshared-%02d.proof" % (prefix, n), _shared_script(sx, hyp, n))],
            ("check", True))

    # eval --witnesses: four shapes on each model size, and the density model
    for n in EVAL_SIZES:
        path = file("%seval-%02d.model" % (prefix, n),
                    _random_model(rng, s, g.c, unary, g.binary, n))
        for k, f in enumerate(g.eval_shapes()):
            text = render.formula(f)
            add("eval-n%02d-shape%d" % (n, k),
                ["eval", "--model", path, "--witnesses", "--format", "records",
                 text], ("eval", path, text), ("formula", text, f))
    path = file("density.model", "sort nat = int\npred prime : nat = @prime\n"
                "measure nat = density(%d)\n" % DENSITY_N)
    add("eval-density", ["eval", "--model", path, "--witnesses", "--format",
                         "records", "most x:nat. not prime(x)"], ("density",))

    # translate: every mode on two inputs of the shape the mode accepts
    def x():
        return g.var("x")

    def unfrege_input():
        guard = sx.Atom(rng.choice(unary), (x(),))
        body = g.classical(1, [x()], 0.0)
        if rng.random() < 0.5:
            return sx.Quant(sx.FORALL, x(), None, sx.Implies(guard, body))
        return sx.Quant(sx.EXISTS, x(), None, sx.And(guard, body))

    makers = {
        "frege": lambda: g.quant(x(), g.classical(1, [x()], 0.7), QUANTS, 1.0),
        "unfrege": unfrege_input,
        "epsilon": lambda: g.classical(2, [], 0.4),
        "concepts-up": lambda: g.classical(2, [], 0.0),
        "concepts-down": lambda: _concept_input(
            sx, s, lambda v: sx.Atom(rng.choice(unary), (v,))),
        "nnf": lambda: sx.Not(g.quant(x(), g.connect(
            g.atom([x()]), sx.Not(g.classical(1, [x()], 0.5))), QUANTS[:4])),
    }
    for mode in sorted(makers):
        for k in range(2):
            f = makers[mode]()
            text = render.formula(f)
            add("translate-%s-%d" % (mode, k),
                ["translate", "--signature", sig_path, "--mode", mode,
                 "--format", "records", text],
                ("translate", mode, f), ("formula", text, f))

    # parse
    for k in range(8):
        f = g.eval_shapes()[k % 4] if k % 2 else g.classical(2, [], 0.5)
        text = render.formula(f)
        add("parse-%d" % k, ["parse", "--signature", sig_path, text],
            ("parse", text), ("formula", text, f))

    # classify: the criterion-8 determiners at sizes 4-6
    for q in CLASSIFY_TABLE:
        for n in CLASSIFY_SIZES:
            add("classify-%s-%d" % (q, n),
                ["classify", q, "--size", str(n), "--format", "records"],
                ("classify", q, n))

    # semantics: the golden fragment sentences
    for sentence, name, want in semantics:
        add("semantics-" + name, ["semantics", "--lexicon", lex_path, sentence],
            ("semantics", want))
    return requests


class _RequestChecker:
    """Known answers for the CLI requests; runs after the timed part."""

    def __init__(self, ek, sig):
        self.ek = ek
        self.sig = sig
        self._small = None

    def small_models(self):
        # every model of size 1 and every eighth of size 2, for the
        # translation truth checks
        if self._small is None:
            ms = list(self.ek.models.enumerate_models(self.sig, 2))
            self._small = [m for i, m in enumerate(ms)
                           if _domain_size(m) == 1 or i % 8 == 0]
        return self._small

    def check(self, want, out):
        code, text, err = out
        kind = want[0]
        if kind == "check":
            last = text.strip().splitlines()[-1] if text.strip() else ""
            expect = (0, "accepted") if want[1] else (1, "rejected")
            if (code, last) != expect:
                return "check: exit %s, %r (want %s)" % (code, last, expect)
            return None
        if code != 0:
            return "exit %s: %s" % (code, err.strip()[:200])
        lines = text.strip().splitlines()
        if kind == "eval":
            return self._eval(want, json.loads(lines[0]))
        if kind == "density":
            rec = json.loads(lines[0])
            flag = "most-ratio %s" % density_ratio()
            if rec["value"] is not True or flag not in rec["flags"]:
                return "density: value %s, flags %s (want true, %r)" % (
                    rec["value"], rec["flags"], flag)
            return None
        if kind == "translate":
            return self._translate(want[1], want[2], json.loads(lines[0]))
        if kind == "parse":
            return None if lines == [want[1]] else "parse printed %r" % lines
        if kind == "classify":
            rec = json.loads(lines[0])
            got = (rec["conservative"], rec["left_monotone"],
                   rec["right_monotone"], rec["symmetric"])
            if got != CLASSIFY_TABLE[want[1]] or rec["size_bound"] != want[2]:
                return "classify: got %s at size %s" % (got, rec["size_bound"])
            return None
        if kind == "semantics":
            got = [lines[0]] + [ln for ln in lines if ln.startswith("presupposes:")]
            return None if got == want[1] else "semantics printed %r" % lines
        return "unknown request kind %r" % kind

    def _eval(self, want, rec):
        # ROADMAP aim 3: truth() and eval_formula() must agree
        parser, models = self.ek.parser, self.ek.models
        m = parser.parse_model(_read(want[1]))
        f = parser.parse_formula(want[2], m.signature)
        t = models.truth(m, f)
        if rec["value"] != t or not isinstance(rec.get("witnesses"), list):
            return "eval: eval_formula says %s, truth says %s" % (rec["value"], t)
        return None

    def _translate(self, mode, f, rec):
        parser, models = self.ek.parser, self.ek.models
        g = parser.parse_formula(rec["formula"], self.sig)
        if mode == "epsilon" and not render.quantifier_free(g):
            return "epsilon output has a quantifier"
        if mode == "nnf" and not render.negation_normal(g):
            return "nnf output has a negation above an atom"
        has_most = any(type(n).__name__ == "Quant" and n.kind == "most"
                       for n in render.nodes(f))
        if mode == "frege" and has_most != ("not-frege-reducible" in rec["tags"]):
            return "frege tags %s for an input %s most" % (
                rec["tags"], "with" if has_most else "without")
        bad = sum(1 for m in self.small_models()
                  if models.truth(m, f) != models.truth(m, g))
        return "%s output differs in truth on %d models" % (mode, bad) if bad else None
