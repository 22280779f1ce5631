"""Span tracing around the public functions of each epskernel layer.

The tracer wraps module attributes from outside the package: every name
in an ``epskernel`` module that is bound to a traced function, including
names bound by ``from ... import``, is replaced by a wrapper that records
a span.  Spans are kept in memory in flat arrays (name, parent, op id,
start, end) and written out once at the end of the run.

A span's self time is its duration minus the durations of its child
spans.  Because spans nest, the self times of all spans inside an op add
up to the op's duration.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

# (metric prefix, module, function); the prefix names the layer as callers
# reach it
TARGETS = [
    ("parser.parse_proof_script", "parser", "parse_proof_script"),
    ("parser.parse_formula", "parser", "parse_formula"),
    ("parser.parse_model", "parser", "parse_model"),
    ("parser.print_formula", "parser", "print_formula"),
    ("syntax.substitute", "syntax", "substitute"),
    ("syntax.alpha_eq", "syntax", "alpha_eq"),
    ("syntax.well_sorted", "syntax", "well_sorted"),
    ("syntax.free_vars", "syntax", "free_vars"),
    ("kernel.check_proof", "kernel", "check_proof"),
    ("models.truth", "models", "truth"),
    ("models.eval_formula", "models", "eval_formula"),
    ("models.classify_quantifier", "models", "classify_quantifier"),
    ("models.enumerate_models", "models", "enumerate_models"),
    ("transform.epsilon_embed", "transform", "epsilon_embed"),
    ("transform.frege_embed", "transform", "frege_embed"),
    ("transform.push_negation", "transform", "push_negation"),
    ("semantics.parse_fragment", "semantics", "parse_fragment"),
    ("semantics.build_logical_form", "semantics", "build_logical_form"),
    ("cli.main", "cli", "main"),
]

OP = "bench.op"
SETUP = "bench.setup"
# parser entry points whose input text is counted for parser.chars_per_s
_TEXT_INPUTS = ("parser.parse_proof_script", "parser.parse_formula",
                "parser.parse_model")


class Tracer:
    def __init__(self):
        self.labels = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op_id = 0
        self.generators = set()
        self.gen_calls = Counter()
        self.gen_items = Counter()
        self.texts = []        # (span index, characters) for parser inputs
        self.verdicts = []     # check_proof results
        self.embeds = []       # (input, output) of epsilon_embed
        self._patches = []

    def _id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    # -- wrapping ---------------------------------------------------------

    def install(self, ek):
        """Wrap every binding of each target in the epskernel modules."""
        if not self._patches:
            mods = [m for n, m in sorted(sys.modules.items())
                    if n == "epskernel" or n.startswith("epskernel.")]
            for label, mod, fn in TARGETS:
                orig = getattr(getattr(ek, mod), fn)
                wrapper = self._wrap(label, orig)
                self._patches += [(m, attr, orig, wrapper) for m in mods
                                  for attr, v in vars(m).items() if v is orig]
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig, _ in self._patches:
            setattr(m, attr, orig)

    def _wrap(self, label, fn):
        nid = self._id(label)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(label, nid, fn)
        open_, close = self._open, self._close
        if label in _TEXT_INPUTS:
            def note(idx, args, result):
                self.texts.append((idx, len(args[0])))
        elif label == "kernel.check_proof":
            def note(idx, args, result):
                self.verdicts.append(result)
        elif label == "transform.epsilon_embed":
            def note(idx, args, result):
                self.embeds.append((args[0], result))
        else:
            note = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if note is not None:
                note(idx, args, result)
            return result
        return traced

    def _wrap_generator(self, label, nid, fn):
        # one span per resumption, so consumer work between items is not
        # charged to the generator
        self.generators.add(label)
        open_, close = self._open, self._close

        def resume(it):
            while True:
                idx = open_(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(idx)
                self.gen_items[label] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.gen_calls[label] += 1
            return resume(fn(*args, **kwargs))
        return traced

    # -- bench spans ------------------------------------------------------

    def run_op(self, op_id, label, fn):
        self.op_id = op_id
        idx = self._open(self._id(label))
        try:
            return fn()
        finally:
            self._close(idx)

    # -- results ----------------------------------------------------------

    def metrics(self, untraced_s, traced_s):
        n = len(self.name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_ns = defaultdict(int)
        incl_ns = defaultdict(int)
        for i in range(n):
            lab = name[i]
            d = end[i] - start[i]
            calls[lab] += 1
            self_ns[lab] += d - child[i]
            incl_ns[lab] += d
        by = {lab: i for i, lab in enumerate(self.labels)}

        def get(table, label):
            return table.get(by.get(label, -1), 0)

        out = {}
        for label, _, _ in TARGETS:
            c = self.gen_calls[label] if label in self.generators \
                else get(calls, label)
            out[label + ".calls"] = (c, "count")
            out[label + ".self_s"] = (get(self_ns, label) / 1e9, "s")

        # characters per second over parser calls made from outside the parser
        parser_ids = {by[lab] for lab in _TEXT_INPUTS if lab in by}
        chars = ns = 0
        for idx, k in self.texts:
            p = parent[idx]
            if p < 0 or name[p] not in parser_ids:
                chars += k
                ns += end[idx] - start[idx]
        out["parser.chars_per_s"] = (chars / (ns / 1e9) if ns else 0.0, "1/s")

        nodes = sum(len(v.nodes) for v in self.verdicts)
        lines = sum(len({node[0] for node in v.nodes}) for v in self.verdicts)
        out["kernel.nodes_checked"] = (nodes, "count")
        out["kernel.nodes_per_line"] = (nodes / lines if lines else 0.0, "ratio")

        truth_calls = get(calls, "models.truth")
        out["models.truth.us_per_call"] = (
            get(incl_ns, "models.truth") / 1e3 / truth_calls if truth_calls else 0.0,
            "us")
        out["models.enumerate_models.models"] = (
            self.gen_items["models.enumerate_models"], "count")

        growth, dup = _embed_stats(self.embeds)
        out["transform.epsilon_embed.growth"] = (growth, "ratio")
        out["transform.epsilon_embed.choice_dup_ratio"] = (dup, "ratio")

        out["bench.self_s"] = (get(self_ns, OP) / 1e9, "s")
        out["bench.setup_self_s"] = (get(self_ns, SETUP) / 1e9, "s")
        out["trace.setup_s"] = (get(incl_ns, SETUP) / 1e9, "s")
        out["trace.ops_s"] = (get(incl_ns, OP) / 1e9, "s")
        out["trace.untraced_ops_s"] = (untraced_s, "s")
        out["trace.overhead"] = (traced_s / untraced_s - 1 if untraced_s else 0.0,
                                 "ratio")
        out["trace.spans"] = (n, "count")
        return out

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        labels = self.labels
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\top\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write("%d\t%d\t%s\t%d\t%d\t%d\n" % (
                    i, self.op[i], labels[self.name[i]], self.parent[i],
                    self.start[i], self.end[i]))


def _embed_stats(embeds):
    """Printed growth of the epsilon embedding (characters out / in) and
    choice-term duplication (binder occurrences / distinct binders)."""
    import render
    chars_in = chars_out = occurrences = distinct = 0
    for f, e in embeds:
        chars_in += len(render.formula(f))
        chars_out += len(render.formula(e))
        binders = [n for n in render.nodes(e) if type(n).__name__ == "Binder"]
        occurrences += len(binders)
        distinct += len(set(binders))
    return (chars_out / chars_in if chars_in else 0.0,
            occurrences / distinct if distinct else 0.0)
