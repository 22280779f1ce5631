"""The line-splitting readers that parse_signature, parse_model and
parse_lexicon used before the declaration reader on the shared lexer, kept
as the differential oracle for tests/test_declarations.py.

Each splits its file into lines by hand and reports every error at column
1 of its line.  Their Signatures, Models and Lexicons are the reference
on the inputs both readers accept; their diagnostics are not.
"""

from __future__ import annotations

from fractions import Fraction

from epskernel.models import BUILTIN_PREDS, Model
from epskernel.parser import Diagnostic, ParseError, SourceSpan
from epskernel.semantics import Lexicon
from epskernel.syntax import Signature


class LexiconError(Exception):
    pass


def parse_signature(text):
    sorts, consts, funcs, preds = set(), {}, {}, {}
    intsort = None
    diags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        span = SourceSpan(0, len(raw), lineno, 1)

        def err(msg):
            diags.append(Diagnostic(msg, span))

        parts = line.split(None, 1)
        kw = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if kw == "sort":
            name = rest.strip()
            if not name:
                err("sort needs a name")
            elif name in sorts:
                err("duplicate sort %s" % name)
            else:
                sorts.add(name)
        elif kw == "intsort":
            name = rest.strip()
            sorts.add(name)
            intsort = name
        elif kw in ("const", "pred", "fun"):
            if ":" not in rest:
                err("missing ':' in %s declaration" % kw)
                continue
            name, sig_part = (s.strip() for s in rest.split(":", 1))
            if kw == "const":
                if sig_part not in sorts:
                    err("unknown sort %s" % sig_part)
                elif name in consts:
                    err("duplicate constant %s" % name)
                else:
                    consts[name] = sig_part
            elif kw == "pred":
                args = tuple(s.strip() for s in sig_part.split(",") if s.strip())
                bad = [s for s in args if s not in sorts]
                if bad:
                    err("unknown sort %s" % bad[0])
                elif name in preds:
                    err("duplicate predicate %s" % name)
                else:
                    preds[name] = args
            else:
                if "->" not in sig_part:
                    err("function declaration needs '->'")
                    continue
                dom, cod = (s.strip() for s in sig_part.split("->", 1))
                args = tuple(s.strip() for s in dom.split(",") if s.strip())
                bad = [s for s in (*args, cod) if s not in sorts]
                if bad:
                    err("unknown sort %s" % bad[0])
                elif name in funcs:
                    err("duplicate function %s" % name)
                else:
                    funcs[name] = (args, cod)
        else:
            err("unknown declaration %r" % kw)
    if diags:
        raise ParseError(diags)
    return Signature(frozenset(sorts), consts, funcs, preds, intsort)


def parse_model(text):
    """Parse a model file; returns a models.Model. Raises ParseError."""
    domains = {}
    builtins = {}
    preds, consts, funcs = {}, {}, {}
    pred_sorts, const_sorts, func_sorts = {}, {}, {}
    measure = {}
    thresholds = {}
    majority = "strict"
    diags = []
    where = {}      # (keyword, name) -> (line number, line) of its declaration

    def err(msg, lineno, raw):
        diags.append(Diagnostic(msg, SourceSpan(0, len(raw), lineno, 1)))

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            err("missing '=' in model line", lineno, raw)
            continue
        head, rhs = (s.strip() for s in line.split("=", 1))
        parts = head.split(None, 1)
        kw = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if kw == "sort":
            name = rest.strip()
            if name in domains:
                err("duplicate sort %s" % name, lineno, raw)
                continue
            where[kw, name] = (lineno, raw)
            if rhs == "int":
                domains[name] = "int"
            else:
                elems = _parse_elem_set(rhs, lineno, raw, diags)
                if elems is not None:
                    seen = set()
                    for e in elems:
                        if e in seen:
                            err("duplicate element %s in sort %s" % (e, name),
                                lineno, raw)
                        seen.add(e)
                    domains[name] = list(dict.fromkeys(elems))
        elif kw == "pred":
            if ":" not in rest:
                err("predicate needs ': SORTS'", lineno, raw)
                continue
            name, sortspec = (s.strip() for s in rest.split(":", 1))
            arg_sorts = tuple(s.strip() for s in sortspec.split(",") if s.strip())
            pred_sorts[name] = arg_sorts
            where[kw, name] = (lineno, raw)
            if rhs.startswith("@"):
                builtins[name] = rhs[1:]
                preds[name] = None
            else:
                tuples = _parse_tuple_set(rhs, len(arg_sorts), lineno, raw, diags)
                if tuples is not None:
                    preds[name] = set(tuples)
        elif kw == "const":
            if ":" not in rest:
                err("constant needs ': SORT'", lineno, raw)
                continue
            name, sort = (s.strip() for s in rest.split(":", 1))
            const_sorts[name] = sort
            where[kw, name] = (lineno, raw)
            consts[name] = rhs
        elif kw == "fun":
            if ":" not in rest or "->" not in rest:
                err("function needs ': S -> T'", lineno, raw)
                continue
            name, sortspec = (s.strip() for s in rest.split(":", 1))
            dom, cod = (s.strip() for s in sortspec.split("->", 1))
            args = tuple(s.strip() for s in dom.split(",") if s.strip())
            func_sorts[name] = (args, cod)
            table = {}
            body = rhs.strip()
            if not (body.startswith("{") and body.endswith("}")):
                err("function table must be '{args: result, ...}'", lineno, raw)
                continue
            for entry in _split_entries(body[1:-1]):
                if not entry.strip():
                    continue
                if ":" not in entry:
                    err("bad function table entry %r" % entry, lineno, raw)
                    continue
                k, v = entry.rsplit(":", 1)
                k = k.strip().strip("()")
                key = tuple(s.strip() for s in k.split(",") if s.strip())
                table[key] = v.strip()
            funcs[name] = table
        elif kw == "measure":
            name = rest.strip()
            if rhs == "count":
                measure[name] = ("count",)
            elif rhs.startswith("density(") and rhs.endswith(")"):
                bound = rhs[len("density("):-1].strip()
                if bound.isdecimal() and int(bound) > 0:
                    measure[name] = ("density", int(bound))
                else:
                    err("bad density bound", lineno, raw)
            else:
                err("measure must be 'count' or 'density(N)'", lineno, raw)
        elif kw == "threshold":
            which = rest.strip()
            if which not in ("most", "many"):
                err("threshold applies to 'most' or 'many'", lineno, raw)
                continue
            try:
                thresholds[which] = Fraction(rhs)
            except (ValueError, ZeroDivisionError):
                err("bad threshold %r" % rhs, lineno, raw)
        elif kw == "mode":
            if rest.strip() != "majority" or rhs not in ("strict", "weak"):
                err("mode line must be 'mode majority = strict|weak'", lineno, raw)
            else:
                majority = rhs
        else:
            err("unknown model declaration %r" % kw, lineno, raw)

    # resolve integer sorts against measures
    final_domains = {}
    intsort = None
    for name, dom in domains.items():
        if dom == "int":
            intsort = name
            m = measure.get(name)
            if m is None or m[0] != "density":
                err("integer sort %s needs 'measure %s = density(N)'"
                    % (name, name), *where["sort", name])
                continue
            final_domains[name] = range(1, m[1] + 1)
        else:
            final_domains[name] = dom
            measure.setdefault(name, ("count",))

    # sort checks on extensions
    for name, builtin in builtins.items():
        arg_sorts = pred_sorts[name]
        if builtin not in BUILTIN_PREDS:
            err("unknown builtin predicate @%s" % builtin, *where["pred", name])
        elif len(arg_sorts) != 1 or domains.get(arg_sorts[0]) != "int":
            err("builtin @%s needs one argument of an integer sort" % builtin,
                *where["pred", name])
    for name, arg_sorts in pred_sorts.items():
        for s in arg_sorts:
            if s not in domains:
                err("predicate %s over unknown sort %s" % (name, s),
                    *where["pred", name])
        ext = preds.get(name)
        if ext is None:
            continue
        for tup in ext:
            for e, s in zip(tup, arg_sorts):
                if s in final_domains and domains.get(s) != "int" \
                        and e not in final_domains[s]:
                    err("element %s of predicate %s not in sort %s" % (e, name, s),
                        *where["pred", name])
    for name, sort in const_sorts.items():
        if sort not in final_domains:
            err("constant %s of unknown sort %s" % (name, sort),
                *where["const", name])
        elif domains.get(sort) != "int" and consts[name] not in final_domains[sort]:
            err("constant %s = %s not in sort %s" % (name, consts[name], sort),
                *where["const", name])
    if diags:
        raise ParseError(diags)

    sig = Signature(frozenset(final_domains),
                    dict(const_sorts),
                    dict(func_sorts),
                    dict(pred_sorts),
                    intsort)
    return Model(signature=sig,
                 domains=final_domains,
                 preds={n: frozenset(e) for n, e in preds.items() if e is not None},
                 builtins=builtins,
                 consts=consts,
                 funcs=funcs,
                 most_threshold=thresholds.get("most", Fraction(1, 2)),
                 many_threshold=thresholds.get("many", Fraction(2, 5)),
                 majority_mode=majority)


def _parse_elem_set(rhs, lineno, raw, diags):
    rhs = rhs.strip()
    if not (rhs.startswith("{") and rhs.endswith("}")):
        diags.append(Diagnostic("expected '{...}'",
                                SourceSpan(0, len(raw), lineno, 1)))
        return None
    inner = rhs[1:-1].strip()
    if not inner:
        return []
    return [s.strip() for s in inner.split(",")]


def _split_entries(s):
    """Split on commas not inside parentheses."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def _parse_tuple_set(rhs, arity, lineno, raw, diags):
    rhs = rhs.strip()
    if not (rhs.startswith("{") and rhs.endswith("}")):
        diags.append(Diagnostic("expected '{...}'",
                                SourceSpan(0, len(raw), lineno, 1)))
        return None
    inner = rhs[1:-1].strip()
    if not inner:
        return []
    tuples = []
    for entry in _split_entries(inner):
        entry = entry.strip()
        if entry.startswith("(") and entry.endswith(")"):
            tup = tuple(s.strip() for s in entry[1:-1].split(","))
        else:
            tup = (entry,)
        if len(tup) != arity:
            diags.append(Diagnostic("tuple %r has arity %d, expected %d"
                                    % (entry, len(tup), arity),
                                    SourceSpan(0, len(raw), lineno, 1)))
            continue
        tuples.append(tup)
    return tuples


def parse_lexicon(text):
    """Lexicon file, one entry per line:

        noun dog : dog
        verb bite : bite(dog)
        tverb know : know(person, person)
        adj grumpy : grumpy(dog)
        pron he : man
    """
    nouns, iverbs, tverbs, adjectives, pronouns = {}, {}, {}, {}, {}
    sorts, preds = set(), {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) != 3 or ":" not in parts[2]:
            raise LexiconError("line %d: expected 'KIND word : spec'" % lineno)
        kind, word = parts[0], parts[1]
        spec = parts[2].split(":", 1)[1].strip() if parts[2].startswith(":") \
            else line.split(":", 1)[1].strip()
        if kind == "noun":
            nouns[word] = spec
            sorts.add(spec)
        elif kind in ("verb", "tverb", "adj"):
            if "(" not in spec or not spec.endswith(")"):
                raise LexiconError("line %d: predicate spec must be name(sorts)"
                                   % lineno)
            name, args = spec[:-1].split("(", 1)
            name = name.strip()
            arg_sorts = tuple(s.strip() for s in args.split(","))
            want = 2 if kind == "tverb" else 1
            if len(arg_sorts) != want:
                raise LexiconError("line %d: %s takes %d argument sort(s)"
                                   % (lineno, kind, want))
            sorts.update(arg_sorts)
            preds[name] = arg_sorts
            {"verb": iverbs, "tverb": tverbs, "adj": adjectives}[kind][word] = name
        elif kind == "pron":
            pronouns[word] = spec
            sorts.add(spec)
        else:
            raise LexiconError("line %d: unknown entry kind %r" % (lineno, kind))
    # every noun doubles as a unary predicate over its sort, so that
    # referent terms can mention the noun (man(eta x:man. man(x)))
    for word, sort in nouns.items():
        preds.setdefault(word, (sort,))
    sig = Signature(frozenset(sorts), {}, {}, preds, None)
    return Lexicon(nouns, iverbs, tverbs, pronouns, sig)
