"""Compiled truth: each formula is compiled once into closures over
bitmasks, then run on model after model.

compile_formula turns a formula into closures run(d, env), cached on the
formula node, so the code lives and dies with the formula.  `d` is the
model's _derived dict, which holds what the code reads from the model under
string keys (the code's `needs`): the _Shape of a sort's domain, a
predicate's extension, the mask of a unary predicate, the rows, columns or
diagonal of a binary one, constants, function tables and the settings.
Nothing model-dependent is fixed at compile time.  `env` is a frame: a list
of depth-indexed slots for bound variables and, last, the call's list of
memoised closed choice terms.  A formula in the variable bound at slot k
compiles to a mask: bit i is set when the formula holds with element i of
that sort in slot k.  So forall is A & ~B == 0, exists A & B != 0, and the
count determiners compare popcounts (COUNT_TESTS).

models.truth runs this code and falls back to the tree walk (models.
_Evaluator) whenever run raises Fallback; see the models docstring for when.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from numbers import Rational

from . import syntax as sx
from .syntax import (Atom, And, App, Binder, Const, Generic, GenericRestricted,
                     Implies, Not, Or, Quant, Var)


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


class Fallback(Exception):
    """The tree walk must decide this call."""


class _Uncompilable(Exception):
    """This formula needs the tree walk on every model."""


_UNSET = object()
_SEP = "\x1f"


class _Shape:
    """A domain's elements, each element's mask of positions, and the mask
    of all positions; shared by every model with the same element list."""

    __slots__ = ("elems", "bits", "full")

    def __init__(self, elems):
        self.elems = elems
        self.bits = {}
        for i, e in enumerate(elems):
            self.bits[e] = self.bits.get(e, 0) | 1 << i
        self.full = (1 << len(elems)) - 1


_shape = functools.lru_cache(maxsize=256)(_Shape)


def _low(shape, mask):
    """Element at the lowest set bit of mask, else the least element."""
    return shape.elems[(mask & -mask).bit_length() - 1] if mask else shape.elems[0]


def _fill(model, d, key):
    """Derive d[key] from the model; Fallback when the model lacks what
    the key names, so that the tree walk decides the call."""
    tag, *args = key.split(_SEP)
    if tag == "dom":
        dom = model.domains.get(args[0])
        if not dom:
            raise Fallback
        val = _shape(tuple(dom))
    elif tag == "ext":
        if args[0] in model.builtins or args[0] not in model.preds:
            raise Fallback
        val = model.preds[args[0]]
    elif tag == "const":
        if args[0] not in model.consts:
            raise Fallback
        val = model.consts[args[0]]
    elif tag == "fn":
        if args[0] not in model.funcs:
            raise Fallback
        val = model.funcs[args[0]]
    elif tag == "cfg":
        val = (as_rational(model.most_threshold),
               as_rational(model.many_threshold),
               model.majority_mode, model.star_regime)
    else:
        # mask / row / col / diag of predicate args[0] over sort args[1];
        # compile lists the "ext" and "dom" keys before these
        ext, bits = d["ext" + _SEP + args[0]], d["dom" + _SEP + args[1]].bits
        if tag == "mask":
            val = 0
            for t in ext:
                if len(t) == 1:
                    val |= bits.get(t[0], 0)
        elif tag == "diag":
            val = 0
            for t in ext:
                if len(t) == 2 and t[0] == t[1]:
                    val |= bits.get(t[0], 0)
        else:
            # row: first argument given, mask of second arguments; col: the
            # other way round
            given, free = (0, 1) if tag == "row" else (1, 0)
            val = {}
            for t in ext:
                if len(t) == 2 and t[free] in bits:
                    val[t[given]] = val.get(t[given], 0) | bits[t[free]]
    d[key] = val


def _is_generic_atom(f):
    """P(most:S) or P(many:S(y. R)): a determiner in disguise."""
    return len(f.args) == 1 and isinstance(f.args[0], (Generic, GenericRestricted))


class _Compiler:
    """Each method returns (closure, deps); deps has bit k set when the
    closure reads the variable in slot k."""

    def __init__(self):
        self.needs = {}       # key -> itself, in first-use order
        self.depth = 0        # variable slots used
        self.closed = {}      # closed choice term -> its shared closure
        self.slots = [0]      # variable slots of a frame, known at the end

    def need(self, *parts):
        key = _SEP.join(parts)
        return self.needs.setdefault(key, key)

    def bind(self, scope, name):
        slot = scope[-1][1] + 1 if scope else 0
        self.depth = max(self.depth, slot + 1)
        return slot, scope + ((name, slot),)

    @staticmethod
    def lookup(scope, name):
        for n, slot in reversed(scope):
            if n == name:
                return slot
        raise _Uncompilable    # free variable

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
            return self.quant(f, scope)
        raise _Uncompilable    # PredApp, Quant2 or not a formula

    def quant(self, f, scope):
        if f.kind not in sx.QUANT_KINDS:
            raise _Uncompilable
        slot, inner = self.bind(scope, f.var.name)
        dk = self.need("dom", f.var.sort)
        body, deps = self.mask(f.body, inner, slot, f.var.sort)
        restr = None
        if f.restriction is not None:
            restr, dr = self.mask(f.restriction, inner, slot, f.var.sort)
            deps |= dr
        return self.decide(f.kind, f.mode, dk, restr, body), deps & ~(1 << slot)

    def decide(self, kind, mode, dk, restr, body):
        """Closure deciding quantifier `kind` from the restriction and body
        masks (restr None: the whole domain)."""
        def masks(d, env):
            a = d[dk].full if restr is None else restr(d, env)
            return a, body(d, env)

        if kind == sx.FORALL:
            if restr is None:
                return lambda d, env: body(d, env) == d[dk].full
            return lambda d, env: not restr(d, env) & ~body(d, env)
        if kind == sx.EXISTS:
            if restr is None:
                return lambda d, env: body(d, env) != 0
            return lambda d, env: restr(d, env) & body(d, env) != 0
        cfg = self.need("cfg")
        if kind in (sx.MOST, "many"):
            test, many = COUNT_TESTS[sx.MOST], kind == "many"

            def run(d, env):
                a, b = masks(d, env)
                most_t, many_t, default_mode, _ = d[cfg]
                return test((a & b).bit_count(), a.bit_count(),
                            many_t if many else most_t, mode or default_mode)
            return run
        test, universal = COUNT_TESTS[kind], kind == sx.FORALL_STAR

        def star(d, env):
            a, b = masks(d, env)
            theta, _, _, regime = d[cfg]
            if regime == "A":
                return not a & ~b if universal else a & b != 0
            return test((a & b).bit_count(), a.bit_count(), theta, None)
        return star

    def atom(self, f, scope):
        if _is_generic_atom(f):
            return self.generic_atom(f, scope)
        return self.atom_of(f, [self.term(a, scope) for a in f.args])

    def atom_of(self, f, args):
        """The atom f as a boolean, from its compiled arguments."""
        deps = 0
        for _, dep in args:
            deps |= dep
        fns = [fn for fn, _ in args]
        if f.pred == sx.EQ:
            if len(fns) != 2:
                raise _Uncompilable
            a, b = fns
            return (lambda d, env: a(d, env) == b(d, env)), deps
        ek = self.need("ext", f.pred)
        if not fns:
            return (lambda d, env: () in d[ek]), deps
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
        if f.pred == sx.EQ:
            raise _Uncompilable
        self.need("ext", f.pred)
        dk = self.need("dom", g.sort)
        mk = self.need("mask", f.pred, g.sort)
        restr, deps = None, 0
        if isinstance(g, GenericRestricted):
            slot, inner = self.bind(scope, g.var.name)
            restr, deps = self.mask(g.restriction, inner, slot, g.sort)
            deps &= ~(1 << slot)
        kind = "many" if g.kind == "many" else sx.MOST
        return self.decide(kind, None, dk, restr, lambda d, env: d[mk]), deps

    # -- formulas as masks over the variable in `slot` ---------------------

    def mask(self, f, scope, slot, sort):
        dk = self.need("dom", sort)
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

        def loop(d, env):
            out, bit = 0, 1
            for e in d[dk].elems:
                env[slot] = e
                if g(d, env):
                    out |= bit
                bit <<= 1
            return out
        return loop, deps

    def atom_mask(self, f, args, scope, slot, sort, dk):
        """Mask of an atom whose arguments are the slot's variable or do not
        read it: a predicate mask, row, column or diagonal, or an equality.
        None for any other atom."""
        at = [isinstance(a, Var) and self.lookup(scope, a.name) == slot
              for a in f.args]
        given = [fn for (fn, dep), x in zip(args, at) if not x]
        if not any(at) or len(f.args) > 2 or any(
                dep >> slot & 1 for (_, dep), x in zip(args, at) if not x):
            return None
        deps = 0
        for _, dep in args:
            deps |= dep
        if f.pred == sx.EQ:
            if len(f.args) != 2:
                raise _Uncompilable
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
            slot = self.lookup(scope, t.name)
            return (lambda d, env: env[slot]), 1 << slot
        if isinstance(t, Const):
            ck = self.need("const", t.name)
            return (lambda d, env: d[ck]), 0
        if isinstance(t, App):
            fk = self.need("fn", t.func)
            args = [self.term(a, scope) for a in t.args]
            fns = [fn for fn, _ in args]
            deps = 0
            for _, dep in args:
                deps |= dep

            def app(d, env):
                try:
                    return d[fk][tuple(fn(d, env) for fn in fns)]
                except KeyError:
                    raise Fallback    # partial function: the tree decides
            return app, deps
        if isinstance(t, Binder):
            return self.choice(t, scope)
        if isinstance(t, Generic):
            dk = self.need("dom", t.sort)
            return (lambda d, env: d[dk].elems[0]), 0
        if isinstance(t, GenericRestricted):
            # satisfiers range over the variable's sort, the default is the
            # least element of the term's sort, as in _Evaluator.term
            dk, vk = self.need("dom", t.sort), self.need("dom", t.var.sort)
            slot, inner = self.bind(scope, t.var.name)
            r, deps = self.mask(t.restriction, inner, slot, t.var.sort)

            def first(d, env):
                m = r(d, env)
                return _low(d[vk], m) if m else d[dk].elems[0]
            return first, deps & ~(1 << slot)
        raise _Uncompilable

    def choice(self, t, scope):
        if t in self.closed:
            return self.closed[t], 0
        if t.kind not in sx.BINDER_KINDS:
            raise _Uncompilable
        dk = self.need("dom", t.var.sort)
        slot, inner = self.bind(scope, t.var.name)
        body, deps = self.mask(t.body, inner, slot, t.var.sort)
        deps &= ~(1 << slot)
        if t.kind == sx.TAU:
            def pick(d, env):
                shape = d[dk]
                return _low(shape, shape.full ^ body(d, env))
        elif t.kind == sx.IOTA:
            def pick(d, env):
                shape, m = d[dk], body(d, env)
                return _low(shape, m if not m & (m - 1) else 0)
        else:
            # eps; eta too, since truth never sees an exclusion set
            pick = lambda d, env: _low(d[dk], body(d, env))
        if deps:
            return pick, deps
        # closed: one closure for every copy of the term, chosen once per
        # call.  It runs in a frame of its own, so its slots cannot clash
        # with those of the scope it is used in.
        at, slots = len(self.closed), self.slots

        def memo(d, env):
            chosen = env[-1]
            v = chosen[at]
            if v is _UNSET:
                frame = [_UNSET] * slots[0]
                frame.append(chosen)
                v = chosen[at] = pick(d, frame)
            return v
        self.closed[t] = memo
        return memo, 0


_CODE = "_truth_code"


def _not_compiled():
    return _UNSET


class _Code(tuple):
    """A formula's compiled code.  Closures do not pickle, so a pickled or
    deep-copied formula carries "not compiled yet" and compiles again."""

    __slots__ = ()

    def __reduce__(self):
        return _not_compiled, ()


def compile_formula(f):
    """(needs in order, needs as a set, run, frame template, closed choice
    terms) for f, or None when f needs the tree walk.  Cached on the node,
    so the code lives and dies with the formula."""
    code = None
    try:
        c = _Compiler()
        run, _ = c.formula(f, ())
        c.slots[0] = c.depth
        code = _Code((tuple(c.needs), frozenset(c.needs), run,
                      [_UNSET] * c.depth + [None], len(c.closed)))
    except (_Uncompilable, RecursionError):
        pass
    try:
        object.__setattr__(f, _CODE, code)
    except (AttributeError, TypeError):
        pass
    return code


def run(model, f):
    """Truth of the closed formula f in model by f's compiled code; raises
    Fallback when f or the model needs the tree walk."""
    code = getattr(f, _CODE, _UNSET)
    if code is _UNSET:
        code = compile_formula(f)
    if code is None:
        raise Fallback
    needs, need_set, run_f, template, closed = code
    d = model._derived
    if not d.keys() >= need_set:
        for key in needs:
            if key not in d:
                _fill(model, d, key)
    frame = template.copy()
    if closed:
        frame[-1] = [_UNSET] * closed
    try:
        return run_f(d, frame)
    except RecursionError:
        raise Fallback
