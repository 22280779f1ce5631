"""Text rendering and tree walks for benchmark inputs.

The benchmark renders every generated input to text with its own printer,
so parsing is part of every operation and the rendered text does not
depend on the pretty-printer under test.  The printer follows the
canonical layout of ``epskernel.parser.print_formula`` (minimal
parentheses by precedence), which lets the ``parse`` requests compare the
CLI output with the rendered text.

Nodes are dispatched on their class name, so these functions work on the
syntax classes of any fresh import of ``epskernel``.
"""

from __future__ import annotations

import dataclasses
import re

_PREC = {"implies": 1, "or": 2, "and": 3, "not": 4}
_BINARY = {"Implies": "implies", "Or": "or", "And": "and"}


def formula(f, prec=0):
    k = type(f).__name__
    if k == "Quant":
        kw = f.kind
        if f.kind == "most" and f.mode in ("strict", "weak"):
            kw = "most" + f.mode
        restr = "" if f.restriction is None else " (%s)" % formula(f.restriction)
        s = "%s %s:%s%s. %s" % (kw, f.var.name, f.var.sort, restr,
                                formula(f.body))
        return "(%s)" % s if prec > 0 else s
    if k == "Quant2":
        s = "%s %s:%s. %s" % (f.kind, f.predvar, f.sort, formula(f.body))
        return "(%s)" % s if prec > 0 else s
    if k in _BINARY:
        op = _BINARY[k]
        p = _PREC[op]
        # implies is right associative, and/or are left associative
        lp, rp = (p + 1, p) if op == "implies" else (p, p + 1)
        s = "%s %s %s" % (formula(f.left, lp), op, formula(f.right, rp))
        return "(%s)" % s if prec > p else s
    if k == "Not":
        return "not %s" % formula(f.body, _PREC["not"])
    if k == "Atom":
        if f.pred == "=":
            s = "%s = %s" % (term(f.args[0]), term(f.args[1]))
            return "(%s)" % s if prec > _PREC["and"] else s
        if not f.args:
            return f.pred
        return "%s(%s)" % (f.pred, ", ".join(term(a) for a in f.args))
    if k == "PredApp":
        return "%s(%s)" % (f.predvar, term(f.arg))
    raise TypeError("not a formula: %r" % (f,))


def term(t):
    k = type(t).__name__
    if k in ("Var", "Const"):
        return t.name
    if k == "App":
        return "%s(%s)" % (t.func, ", ".join(term(a) for a in t.args))
    if k == "Binder":
        return "%s %s:%s. %s" % (t.kind, t.var.name, t.var.sort, formula(t.body))
    if k == "Generic":
        return "%s:%s" % (t.kind, t.sort)
    if k == "GenericRestricted":
        return "%s:%s(%s:%s. %s)" % (t.kind, t.sort, t.var.name, t.var.sort,
                                     formula(t.restriction))
    raise TypeError("not a term: %r" % (t,))


def signature(sorts, constants, predicates):
    """Signature file text; `predicates` maps names to argument sorts."""
    lines = ["sort %s" % s for s in sorts]
    lines += ["const %s : %s" % (c, s) for c, s in constants.items()]
    lines += ["pred %s : %s" % (p, ", ".join(a)) for p, a in predicates.items()]
    return "\n".join(lines) + "\n"


def model(domains, preds, consts, pred_sorts):
    """Model file text from plain data: `domains` maps sorts to element
    lists, `preds` maps predicates to sets of tuples."""
    lines = ["sort %s = {%s}" % (s, ", ".join(d)) for s, d in domains.items()]
    for c, (s, e) in consts.items():
        lines.append("const %s : %s = %s" % (c, s, e))
    for p, ext in preds.items():
        cells = ["(%s)" % ", ".join(t) if len(t) > 1 else t[0]
                 for t in sorted(ext)]
        lines.append("pred %s : %s = {%s}" % (p, ", ".join(pred_sorts[p]),
                                             ", ".join(cells)))
    return "\n".join(lines) + "\n"


def script(tree):
    """Proof script text for a proof tree: `var` lines for the free
    variables, then one numbered line per distinct proof line."""
    by_line = {}

    def collect(node):
        if node.line not in by_line:
            by_line[node.line] = node
            for p in node.premises:
                collect(p)

    collect(tree)
    free = set()
    for node in by_line.values():
        for f in (*node.sequent.hypotheses, node.sequent.conclusion):
            free |= free_vars(f)
    out = ["var %s : %s" % v for v in sorted(free)]
    for n in sorted(by_line):
        node = by_line[n]
        rule = node.rule
        if node.premises:
            rule += "(%s)" % ", ".join(str(p.line) for p in node.premises)
        if node.witness is not None:
            rule += " [%s := %s]" % (node.witness[0], term(node.witness[1]))
        elif node.eigen is not None:
            rule += " [eigen %s]" % node.eigen
        hyps = ", ".join(formula(h) for h in node.sequent.hypotheses)
        out.append("%d. %s |- %s ; %s" % (n, hyps, formula(node.sequent.conclusion),
                                          rule))
    return "\n".join(out) + "\n"


_SCRIPT_LINE = re.compile(r"^\s*\d+\s*\.", re.M)


def script_lines(text):
    return len(_SCRIPT_LINE.findall(text))


# ---------------------------------------------------------------------------
# tree walks

_BINDING = ("Quant", "Binder", "GenericRestricted")


def free_vars(e, bound=frozenset()):
    """Free variables of a formula or term as (name, sort) pairs."""
    k = type(e).__name__
    if k == "Var":
        return set() if e.name in bound else {(e.name, e.sort)}
    out = set()
    if k in _BINDING:
        inner = bound | {e.var.name}
        if k == "Quant" and e.restriction is not None:
            out |= free_vars(e.restriction, inner)
        body = e.restriction if k == "GenericRestricted" else e.body
        return out | free_vars(body, inner)
    for child in children(e):
        out |= free_vars(child, bound)
    return out


def children(e):
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if dataclasses.is_dataclass(v):
            yield v
        elif isinstance(v, tuple):
            yield from (x for x in v if dataclasses.is_dataclass(x))


def nodes(e):
    """Every node of a tree, pre-order, repeated subtrees included."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(children(n))


def quantifier_free(f):
    return not any(type(n).__name__ in ("Quant", "Quant2") for n in nodes(f))


def negation_normal(f):
    """True when every negation sits directly on an atom."""
    return all(type(n.body).__name__ in ("Atom", "PredApp")
               for n in nodes(f) if type(n).__name__ == "Not")


def rename(e, preds, consts, sorts):
    """Rename predicate, constant and sort symbols throughout a tree of
    syntax nodes, sequents and proof trees.  Variable names are kept, so
    the renaming cannot capture."""
    if isinstance(e, tuple):
        return tuple(rename(x, preds, consts, sorts) for x in e)
    if not dataclasses.is_dataclass(e):
        return e
    k = type(e).__name__
    kw = {}
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if f.name == "pred" and k == "Atom":
            v = preds.get(v, v)
        elif f.name == "name" and k == "Const":
            v = consts.get(v, v)
        elif f.name == "sort" and isinstance(v, str):
            v = sorts.get(v, v)
        else:
            v = rename(v, preds, consts, sorts)
        kw[f.name] = v
    return type(e)(**kw)
