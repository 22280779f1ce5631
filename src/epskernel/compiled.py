"""The evaluator: a formula or term is compiled once into closures over
bitmasks, then run on model after model.

compile_formula turns a node into closures run(d, env), cached on the node.
`d` holds what the code reads from a model under string keys (its
`needs`): the _Shape of a sort's domain, a predicate's extension, the mask
of a unary predicate (a sieve or a slice for a builtin), the rows, columns
or diagonal of a binary one, constants, function tables and the settings.
`env` is a frame: bound variables by depth, slots pre-bound from the
Environment, then a context.  A formula in the variable bound at slot k
compiles to a mask: bit i is set when the formula holds with element i of
that sort in slot k.  So forall is A & ~B == 0, exists A & B != 0, the
count determiners compare popcounts, and a second-order quantifier binds
each subset mask in turn.  A choice term picks from its body's mask: eps
and eta the lowest set bit, tau the lowest clear bit, iota the only set
bit, and with none the sort's least element.

The mask form (TRUTH), which truth runs, decides every quantifier and
choice from whole masks.  The ordered form, which eval_formula and
eval_term run, keeps the order of the semantics and records flags and
witnesses as it goes (_Rec); it still runs a subformula with nothing to
record (no choice or generic term, no count quantifier) as masks (RECORD),
and STRICT orders everything.  Whatever the mask form or RECORD raises (a
partial function's gap, a missing symbol, an empty domain, an unbound
variable) they may have met where the semantics would not look, so the
call runs again in STRICT, which raises EvalError where the semantics does.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from numbers import Rational
from types import SimpleNamespace

from . import syntax as sx
from .syntax import (Atom, And, App, Binder, Const, Generic, GenericRestricted,
                     Implies, Not, Or, PredApp, Quant, Quant2, Var)


class EvalError(Exception):
    """Raised for hard evaluation failures (ill-sorted input, unknown symbol)."""


FLAG_IOTA = "iota-undetermined"
FLAG_PRESUPPOSITION = "presupposition-failure"
FLAG_EMPTY_RESTRICTION = "empty-restriction"


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


BUILTIN_PREDS = {
    "prime": lambda n: _is_prime(int(n)),
    "even": lambda n: int(n) % 2 == 0,
    "odd": lambda n: int(n) % 2 == 1,
}


# ---------------------------------------------------------------------------
# determiners as count predicates: hits of total restriction elements
# satisfy the body; theta is a Rational, mode "strict" or anything else for
# weak.  Cross-multiplying keeps the comparison exact and Fraction-free.


def as_rational(x):
    """x as an exact rational (thresholds may be given as floats)."""
    return x if isinstance(x, Rational) else Fraction(x)


def _most_count(hits, total, theta, mode):
    """most/many: false on an empty restriction; hits/total > theta when
    strict, >= theta when weak."""
    if not total:
        return False
    lhs, rhs = hits * theta.denominator, theta.numerator * total
    return lhs > rhs if mode == "strict" else lhs >= rhs


def _forall_star_count(hits, total, theta, mode):
    """forall* (regime B): true on an empty restriction; hits/total >= theta."""
    return not total or hits * theta.denominator >= theta.numerator * total


def _exists_star_count(hits, total, theta, mode):
    """exists* (regime B): false on an empty restriction;
    hits/total > 1 - theta."""
    return bool(total) and \
        hits * theta.denominator > (theta.denominator - theta.numerator) * total


COUNT_TESTS = {
    sx.MOST: _most_count,
    "many": _most_count,
    sx.FORALL_STAR: _forall_star_count,
    sx.EXISTS_STAR: _exists_star_count,
}


# what the mask form and RECORD may raise where the semantics would not
_RETRY = (EvalError, LookupError, ValueError, TypeError)
_UNSET = object()
_SEP = "\x1f"
TRUTH, RECORD, STRICT = "truth", "record", "strict"


class _Shape:
    """A domain's elements, element -> mask of its positions (`bits`) and
    the mask of all positions (`full`).  A listed domain's bits are a dict,
    shared by every model with the same element list; an integer range
    keeps no per-element table at all."""

    __slots__ = ("elems", "bits", "full")

    def __init__(self, elems):
        self.elems = elems
        self.full = (1 << len(elems)) - 1
        if isinstance(elems, range):
            # an int's bit is its position's, by arithmetic
            self.bits = SimpleNamespace(get=lambda e, default=None: (
                1 << elems.index(e) if type(e) is int and e in elems else default))
        else:
            self.bits = {}
            for i, e in enumerate(elems):
                self.bits[e] = self.bits.get(e, 0) | 1 << i


_shape = functools.lru_cache(maxsize=256)(_Shape)


def _low(shape, mask):
    """Element at the lowest set bit of mask, else the least element."""
    return shape.elems[(mask & -mask).bit_length() - 1] if mask else shape.elems[0]


def _positions(mask):
    """Positions of the set bits of mask, lowest first."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _subsets(shape):
    """The mask of each subset of a domain, in itertools.combinations order."""
    for r in range(len(shape.elems) + 1):
        for c in itertools.combinations(shape.elems, r):
            yield functools.reduce(int.__or__, map(shape.bits.get, c), 0)


class _Builtin(str):
    """A builtin predicate's name as its extension: membership applies it."""

    def __contains__(self, args):
        return BUILTIN_PREDS[self](*args)


def _builtin_mask(name, shape):
    """Mask of a builtin over a domain: a sieve (prime) or a slice (even,
    odd) over a range of naturals, else its function on each element."""
    dom = shape.elems
    if not (isinstance(dom, range) and dom.step == 1 and dom.start >= 0):
        return sum(1 << i for i, e in enumerate(dom) if BUILTIN_PREDS[name](e))
    if not dom:
        return 0
    if name == "prime":
        sieve = bytearray(b"1") * max(dom.stop, 2)
        sieve[:2] = b"00"
        for p in range(2, math.isqrt(dom.stop - 1) + 1):
            if sieve[p] == ord("1"):
                sieve[p * p::p] = b"0" * len(range(p * p, dom.stop, p))
        digits = sieve[dom.start:dom.stop]
    else:
        digits = bytearray(b"0") * len(dom)
        first = (dom.start + (name == "odd")) % 2
        digits[first::2] = b"1" * len(range(first, len(dom), 2))
    return int(digits[::-1], 2)


def _derive(model, d, key):
    """The value of d[key] for model; EvalError, with the message of the
    semantics, when the model lacks what the key names."""
    tag, *args = key.split(_SEP)
    if tag == "dom":
        dom = model.domains.get(args[0])
        if dom is None:
            raise EvalError("model has no sort %s" % args[0])
        return _Shape(dom) if isinstance(dom, range) else _shape(tuple(dom))
    if tag == "ext":
        if args[0] in model.builtins:
            name = model.builtins[args[0]]
            if name not in BUILTIN_PREDS:
                raise EvalError("unknown builtin predicate @%s" % name)
            return _Builtin(name)
        if args[0] not in model.preds:
            raise EvalError("model does not interpret predicate %s" % args[0])
        return model.preds[args[0]]
    if tag == "const":
        if args[0] not in model.consts:
            raise EvalError("model does not interpret constant %s" % args[0])
        return model.consts[args[0]]
    if tag == "fn":
        # a missing function is a table with nothing defined
        return model.funcs.get(args[0], {})
    if tag == "cfg":
        return (as_rational(model.most_threshold),
                as_rational(model.many_threshold),
                model.majority_mode, model.star_regime)
    # mask / row / col / diag of predicate args[0] over sort args[1];
    # compile lists the "ext" and "dom" keys before these
    ext, shape = d["ext" + _SEP + args[0]], d["dom" + _SEP + args[1]]
    bits = shape.bits
    if isinstance(ext, _Builtin):
        if tag != "mask":
            raise EvalError("builtin @%s is unary" % ext)
        return _builtin_mask(ext, shape)
    if tag == "mask":
        return functools.reduce(int.__or__, (bits.get(t[0], 0) for t in ext
                                             if len(t) == 1), 0)
    if tag == "diag":
        return functools.reduce(int.__or__, (bits.get(t[0], 0) for t in ext
                                             if len(t) == 2 and t[0] == t[1]), 0)
    # row: first argument given, mask of second arguments; col: the other
    # way round
    given, free = (0, 1) if tag == "row" else (1, 0)
    val = {}
    for t in ext:
        b = bits.get(t[free], 0) if len(t) == 2 else 0
        if b:
            val[t[given]] = val.get(t[given], 0) | b
    return val


def extension(model, name):
    """Predicate `name`'s extension in model (a builtin's tests membership)."""
    return _derive(model, None, "ext" + _SEP + name)


class _Lazy(dict):
    """STRICT's derived values, of the model in .model: each is derived when
    first read, so a missing symbol raises its EvalError where it is read."""

    def __missing__(self, key):
        val = self[key] = _derive(self.model, self, key)
        return val


class _Rec:
    """What an ordered run records: flags in first-raised order, witnesses
    as (choice term, element), and per closed choice term its element and
    the span of witnesses its first pick recorded."""

    __slots__ = ("flags", "witnesses", "chosen")

    def __init__(self, closed):
        self.flags, self.witnesses, self.chosen = [], [], [_UNSET] * closed

    def flag(self, f):
        if f not in self.flags:
            self.flags.append(f)


def _is_generic_atom(f):
    """P(most:S) or P(many:S(y. R)): a determiner in disguise."""
    return len(f.args) == 1 and isinstance(f.args[0], (Generic, GenericRestricted))


class _Compiler:
    """Each method returns (closure, deps); deps has bit k set when the
    closure reads bound slot k, and is -1 when it reads a free name's
    pre-bound slot (at a negative index: the frame's length is known only
    at the end), whose binder may be any scope."""

    def __init__(self, mode):
        self.ordered, self.strict = mode != TRUTH, mode == STRICT
        self.needs = {}       # key -> itself, in first-use order
        self.depth = 0        # bound slots used
        self.closed = {}      # closed choice term -> its shared closure
        self.frees = []       # (Environment field, name) per pre-bound slot
        self.memo = {}        # id(node) -> (node, kept alive; whether it records)

    def need(self, *parts):
        key = _SEP.join(parts)
        return self.needs.setdefault(key, key)

    def bind(self, scope, name, dk=None):
        """A bound slot for `name` (a predicate variable's name starts with
        _SEP and carries the domain key of its subset masks)."""
        slot = scope[-1][1] + 1 if scope else 0
        self.depth = max(self.depth, slot + 1)
        return slot, scope + ((name, slot, dk),)

    def lookup(self, scope, name):
        """(slot, domain key) of name's innermost binding; a free name gets
        a pre-bound slot."""
        for n, slot, dk in reversed(scope):
            if n == name:
                return slot, dk
        key = ("predvars", name[1:]) if name[0] == _SEP else ("vars", name)
        if key not in self.frees:
            self.frees.append(key)
        return -2 - self.frees.index(key), None

    def records(self, e):
        """Whether the ordered form must run e element by element: it can
        record a flag or witness, or STRICT orders everything."""
        if self.strict:
            return True
        hit = self.memo.get(id(e))
        if hit is None:
            rec = isinstance(e, (Binder, Generic, GenericRestricted)) or \
                isinstance(e, Quant) and e.kind not in (sx.FORALL, sx.EXISTS) or \
                any(self.records(k) for k in sx.children(e))
            hit = self.memo[id(e)] = (e, rec)
        return hit[1]

    @staticmethod
    def bad(message):      # a node the semantics rejects when it reaches it
        def fail(d, env):
            raise EvalError(message)
        return fail, 0

    # -- formulas as booleans ---------------------------------------------

    def formula(self, f, scope):
        if isinstance(f, Atom):
            return self.atom(f, scope)
        if isinstance(f, Not):
            g, dep = self.formula(f.body, scope)
            return (lambda d, env: not g(d, env)), dep
        if isinstance(f, (And, Or, Implies)):
            a, da = self.formula(f.left, scope)
            b, db = self.formula(f.right, scope)
            if isinstance(f, And):
                run = lambda d, env: a(d, env) and b(d, env)
            elif isinstance(f, Or):
                run = lambda d, env: a(d, env) or b(d, env)
            else:
                run = lambda d, env: not a(d, env) or b(d, env)
            return run, da | db
        if isinstance(f, Quant):
            if f.kind not in sx.QUANT_KINDS:
                return self.bad("unknown quantifier kind %s" % f.kind)
            return self.quant(f, scope)
        if isinstance(f, Quant2):
            return self.quant2(f, scope)
        if isinstance(f, PredApp):
            return self.predapp(f, scope)
        return self.bad("not a formula: %r" % (f,))

    def quant(self, f, scope):
        slot, inner = self.bind(scope, f.var.name)
        dk = self.need("dom", f.var.sort)
        body = bmask = None
        if self.ordered and self.records(f.body):
            body, deps = self.formula(f.body, inner)
        else:
            bmask, deps = self.mask(f.body, inner, slot, f.var.sort)
        restr = None
        if f.restriction is not None:
            restr, dr = self.mask(f.restriction, inner, slot, f.var.sort)
            deps |= dr
        return self.decide(f.kind, f.mode, dk, slot, restr, body, bmask,
                           self.need("cfg"), self.ordered), \
            deps & ~(1 << slot)

    @staticmethod
    def decide(kind, mode, dk, slot, restr, body, bmask, cfg, record):
        """Closure deciding quantifier `kind` over the variable in `slot`
        from the restriction mask (None: the whole domain) and the body,
        given as a mask (bmask) or, in the ordered form, as a boolean that
        must run element by element (body)."""
        if body is None and kind == sx.FORALL:
            if restr is None:
                return lambda d, env: bmask(d, env) == d[dk].full
            return lambda d, env: not restr(d, env) & ~bmask(d, env)
        if body is None and kind == sx.EXISTS:
            if restr is None:
                return lambda d, env: bmask(d, env) != 0
            return lambda d, env: restr(d, env) & bmask(d, env) != 0
        test = COUNT_TESTS.get(kind)
        star = kind in (sx.FORALL_STAR, sx.EXISTS_STAR)
        universal = kind in (sx.FORALL, sx.FORALL_STAR)

        def run(d, env):
            shape = d[dk]
            a = shape.full if restr is None else restr(d, env)
            most_t, many_t, default_mode, regime = d[cfg]
            if test is None or star and regime == "A":
                if body is None:
                    b = bmask(d, env)
                    return not a & ~b if universal else a & b != 0
                for i in _positions(a):
                    env[slot] = shape.elems[i]
                    if body(d, env) != universal:
                        return not universal
                return universal
            b = bmask(d, env) & a if body is None else 0
            if body is not None:
                for i in _positions(a):
                    env[slot] = shape.elems[i]
                    if body(d, env):
                        b |= 1 << i
            hits, total = b.bit_count(), a.bit_count()
            if record and not total:
                env[-1].flag(FLAG_EMPTY_RESTRICTION)
            elif record and not star:
                env[-1].flag("most-ratio %s" % Fraction(hits, total))
            if star:
                return test(hits, total, most_t, None)
            return test(hits, total, many_t if kind == "many" else most_t,
                        mode or default_mode)
        return run

    def quant2(self, f, scope):
        dk = self.need("dom", f.sort)
        slot, inner = self.bind(scope, _SEP + f.predvar, dk)
        body, deps = self.formula(f.body, inner)
        every = f.kind == sx.FORALL2

        def run(d, env):
            for m in _subsets(d[dk]):
                env[slot] = m
                if body(d, env) != every:
                    return not every
            return every
        return run, deps & ~(1 << slot)

    def predapp(self, f, scope):
        t, deps = self.term(f.arg, scope)
        slot, dk = self.lookup(scope, _SEP + f.predvar)
        if dk is not None:
            return (lambda d, env: d[dk].bits.get(t(d, env), 0) & env[slot] != 0), \
                deps | 1 << slot
        name = f.predvar

        def free(d, env):
            e, s = t(d, env), env[slot]
            if s is _UNSET:
                raise EvalError("unbound predicate variable %s" % name)
            return e in s
        return free, -1

    def atom(self, f, scope):
        if _is_generic_atom(f):
            return self.generic_atom(f, scope)
        return self.atom_of(f, [self.term(a, scope) for a in f.args])

    def atom_of(self, f, args):
        """The atom f as a boolean, from its compiled arguments."""
        deps = functools.reduce(int.__or__, (dep for _, dep in args), 0)
        fns = [fn for fn, _ in args]
        if f.pred == sx.EQ:
            if len(fns) != 2:
                return self.bad("= takes two arguments")
            a, b = fns
            return (lambda d, env: a(d, env) == b(d, env)), deps
        ek = self.need("ext", f.pred)
        if len(fns) == 1:
            a, = fns
            return (lambda d, env: (a(d, env),) in d[ek]), deps
        if len(fns) == 2:
            a, b = fns
            return (lambda d, env: (a(d, env), b(d, env)) in d[ek]), deps
        return (lambda d, env: tuple(fn(d, env) for fn in fns) in d[ek]), deps

    def generic_atom(self, f, scope):
        """P(most:S) and P(many:S(y. R)) read as most/many y:S (R). P(y)."""
        g = f.args[0]
        x = Var(g.var.name if isinstance(g, GenericRestricted) else "x", g.sort)
        return self.quant(Quant("many" if g.kind == "many" else sx.MOST, x,
                                getattr(g, "restriction", None), Atom(f.pred, (x,))),
                          scope)

    # -- formulas as masks over the variable in `slot` ---------------------

    def mask(self, f, scope, slot, sort):
        dk = self.need("dom", sort)
        if self.ordered and self.records(f):
            g, deps = self.formula(f, scope)
            return self.loop(g, slot, dk), deps
        if isinstance(f, Not):
            g, dep = self.mask(f.body, scope, slot, sort)
            return (lambda d, env: d[dk].full ^ g(d, env)), dep
        if isinstance(f, (And, Or, Implies)):
            a, da = self.mask(f.left, scope, slot, sort)
            b, db = self.mask(f.right, scope, slot, sort)
            if isinstance(f, And):
                run = lambda d, env: a(d, env) & b(d, env)
            elif isinstance(f, Or):
                run = lambda d, env: a(d, env) | b(d, env)
            else:
                run = lambda d, env: (d[dk].full ^ a(d, env)) | b(d, env)
            return run, da | db
        if isinstance(f, Atom) and not _is_generic_atom(f):
            args = [self.term(a, scope) for a in f.args]
            direct = self.atom_mask(f, args, scope, slot, sort, dk)
            if direct is not None:
                return direct
            g, deps = self.atom_of(f, args)
        else:
            g, deps = self.formula(f, scope)
        if not deps >> slot & 1:
            return (lambda d, env: d[dk].full if g(d, env) else 0), deps
        return self.loop(g, slot, dk), deps

    @staticmethod
    def loop(g, slot, dk):
        """Mask of the elements satisfying g, tried in domain order."""
        def loop(d, env):
            out, bit = 0, 1
            for e in d[dk].elems:
                env[slot] = e
                if g(d, env):
                    out |= bit
                bit <<= 1
            return out
        return loop

    def atom_mask(self, f, args, scope, slot, sort, dk):
        """Mask of an atom whose arguments are the slot's variable or do not
        read it: a predicate mask, row, column or diagonal, or an equality.
        None for any other atom."""
        at = [isinstance(a, Var) and self.lookup(scope, a.name)[0] == slot
              for a in f.args]
        given = [fn for (fn, dep), x in zip(args, at) if not x]
        if not any(at) or len(f.args) > 2 or any(
                dep >> slot & 1 for (_, dep), x in zip(args, at) if not x):
            return None
        deps = functools.reduce(int.__or__, (dep for _, dep in args), 0)
        if f.pred == sx.EQ:
            if len(f.args) != 2:
                return None
            if not given:
                return (lambda d, env: d[dk].full), deps
            t, = given
            return (lambda d, env: d[dk].bits.get(t(d, env), 0)), deps
        self.need("ext", f.pred)
        if len(f.args) == 1:
            mk = self.need("mask", f.pred, sort)
            return (lambda d, env: d[mk]), deps
        if not given:
            dg = self.need("diag", f.pred, sort)
            return (lambda d, env: d[dg]), deps
        t, = given
        rk = self.need("row" if at[1] else "col", f.pred, sort)
        return (lambda d, env: d[rk].get(t(d, env), 0)), deps

    # -- terms as elements -------------------------------------------------

    def term(self, t, scope):
        if isinstance(t, Var):
            slot, _ = self.lookup(scope, t.name)
            if slot >= 0:
                return (lambda d, env: env[slot]), 1 << slot

            def free(d, env):
                if env[slot] is _UNSET:
                    raise EvalError("unbound variable %s" % t.name)
                return env[slot]
            return free, -1
        if isinstance(t, Const):
            ck = self.need("const", t.name)
            return (lambda d, env: d[ck]), 0
        if isinstance(t, App):
            fk = self.need("fn", t.func)
            args = [self.term(a, scope) for a in t.args]
            fns = [fn for fn, _ in args]
            deps = functools.reduce(int.__or__, (dep for _, dep in args), 0)

            def app(d, env):
                key = tuple(fn(d, env) for fn in fns)
                try:
                    return d[fk][key]
                except KeyError:
                    raise EvalError("function %s undefined at %r"
                                    % (t.func, key)) from None
            return app, deps
        if isinstance(t, Binder):
            return self.choice(t, scope)
        if isinstance(t, Generic):
            dk = self.need("dom", t.sort)
            return (lambda d, env: d[dk].elems[0]), 0
        if isinstance(t, GenericRestricted):
            # satisfiers range over the variable's sort, the default is the
            # least element of the term's sort
            vk = self.need("dom", t.var.sort)
            slot, inner = self.bind(scope, t.var.name)
            r, deps = self.mask(t.restriction, inner, slot, t.var.sort)
            dk, ordered = self.need("dom", t.sort), self.ordered

            def first(d, env):
                m = r(d, env)
                if m:
                    return _low(d[vk], m)
                if ordered:
                    env[-1].flag(FLAG_PRESUPPOSITION)
                return d[dk].elems[0]
            return first, deps & ~(1 << slot)
        return self.bad("not a term: %r" % (t,))

    def choice(self, t, scope):
        if t in self.closed:
            return self.closed[t], 0
        if t.kind not in sx.BINDER_KINDS:
            return self.bad("unknown binder kind %s" % t.kind)
        dk = self.need("dom", t.var.sort)
        slot, inner = self.bind(scope, t.var.name)
        body, deps = self.mask(t.body, inner, slot, t.var.sort)
        deps &= ~(1 << slot)
        tau, iota, ordered = t.kind == sx.TAU, t.kind == sx.IOTA, self.ordered

        def pick(d, env):
            shape = d[dk]
            if not shape.full:
                raise EvalError("empty domain for sort %s" % t.var.sort)
            m = body(d, env)
            if tau:
                m ^= shape.full
            elif iota and (not m or m & (m - 1)):
                if ordered:
                    env[-1].flag(FLAG_IOTA)
                m = 0
            v = _low(shape, m)
            if ordered:
                env[-1].witnesses.append((t, v))
            return v
        if not (ordered or iota):    # the mask form's eps, tau and eta
            pick = (lambda d, env: _low(d[dk], d[dk].full ^ body(d, env))) if tau \
                else (lambda d, env: _low(d[dk], body(d, env)))
        if deps:
            return pick, deps
        # closed (no bound slot read): one closure for every copy of the
        # term, chosen once per call.  It runs in a copy of the frame, so its
        # slots cannot clash with those of the scope it is used in.
        at = len(self.closed)
        if ordered:
            def memo(d, env):
                rec = env[-1]
                hit = rec.chosen[at]
                if hit is _UNSET:
                    start = len(rec.witnesses)
                    v = pick(d, env.copy())
                    rec.chosen[at] = (v, start, len(rec.witnesses))
                    return v
                # a copy replays the witnesses of the first pick
                rec.witnesses.extend(rec.witnesses[hit[1]:hit[2]])
                return hit[0]
        else:
            def memo(d, env):
                chosen = env[-1]
                v = chosen[at]
                if v is _UNSET:
                    v = chosen[at] = pick(d, env.copy())
                return v
        self.closed[t] = memo
        return memo, 0


_CODE = {TRUTH: "_truth_code", RECORD: "_record_code", STRICT: "_strict_code"}


def _not_compiled():
    return _UNSET


class _Code(tuple):
    """A node's compiled code.  Closures do not pickle, so a pickled or
    deep-copied node carries "not compiled yet" and compiles again."""

    __slots__ = ()

    def __reduce__(self):
        return _not_compiled, ()


def compile_formula(node, mode=TRUTH):
    """(needs in order, needs as a set, run, frame template, number of closed
    choice terms, pre-bound slots) of a formula, or in the ordered modes a
    term, in form `mode`; cached on the node, to live and die with it."""
    c = _Compiler(mode)
    run, _ = (c.formula if sx.is_formula(node) else c.term)(node, ())
    # a pre-bound slot is unbound until _bind
    code = _Code((tuple(c.needs), frozenset(c.needs), run,
                  [_UNSET] * (c.depth + len(c.frees)) + [None], len(c.closed),
                  tuple(c.frees)))
    try:
        object.__setattr__(node, _CODE[mode], code)
    except (AttributeError, TypeError):
        pass
    return code


def _bind(frame, frees, env):
    """Pre-bind the frame's slots for free names from env; an unbound name
    stays _UNSET, and the code raises where it reads it."""
    for k, (field, name) in enumerate(frees, 2):
        frame[-k] = next((e for n, e in getattr(env, field) if n == name), _UNSET)


def truth(model, f, env=None):
    """Truth of formula f in model by its mask form; what the mask form
    raises sends the call to the ordered form (STRICT)."""
    code = getattr(f, "_truth_code", _UNSET)
    if code is _UNSET:
        code = compile_formula(f)
    needs, need_set, run_f, template, closed, frees = code
    d = model._derived
    try:
        if not d.keys() >= need_set:
            for key in needs:
                if key not in d:
                    d[key] = _derive(model, d, key)
        frame = template.copy()
        if closed:
            frame[-1] = [_UNSET] * closed
        if frees and env is not None:
            _bind(frame, frees, env)
        return run_f(d, frame)
    except _RETRY:
        return ordered(model, f, env, STRICT)[0]


def ordered(model, node, env, mode):
    """(value, _Rec) of a formula or term by its ordered code in `mode`
    (RECORD or STRICT)."""
    code = getattr(node, _CODE[mode], _UNSET)
    if code is _UNSET:
        code = compile_formula(node, mode)
    needs, need_set, run_f, template, closed, frees = code
    d = model._derived
    if mode == STRICT:
        d = _Lazy()
        d.model = model
    if not d.keys() >= need_set and mode != STRICT:
        for key in needs:
            if key not in d:
                d[key] = _derive(model, d, key)
    rec = _Rec(closed)
    frame = template.copy()
    frame[-1] = rec
    if env is not None:
        _bind(frame, frees, env)
    return run_f(d, frame), rec


def record(model, node, env=None):
    """(value, _Rec) of a formula or term in the order of the semantics,
    with its flags and witnesses."""
    try:
        return ordered(model, node, env, RECORD)
    except _RETRY:
        return ordered(model, node, env, STRICT)
