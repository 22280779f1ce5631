"""The evaluator: a formula or term is compiled once, then run on model
after model.

compile_formula compiles a node and caches the code on the node.  `d` holds
what the code reads from a model under string keys (its `needs`): the
_Shape of a sort's domain, a predicate's extension, the mask of a unary
predicate (a sieve or a slice for a builtin), the rows, columns or diagonal
of a binary one, constants, function tables and the settings.  Each is
derived once per model and kept in the model's plain dict: truth runs the
code on it as it is and fills it only when a read misses (KeyError), then
runs once more; the ordered form fills it before it runs.

The mask form (TRUTH), which truth runs, is first-order: it is compiled
once per shape into generated source (_Emitter), one flat Python function
per formula, one local per node.  A formula in the variable bound at slot k
is a mask: bit i is set when the formula holds with element i of that sort
in slot k.  So forall is A & ~B == 0, exists A & B != 0 and the count
determiners compare popcounts.  A choice term picks from its body's mask:
eps and eta the lowest set bit, tau the lowest clear bit, iota the only set
bit, and with none the sort's least element.  The source names no symbol
(the needs keys come in as a tuple), so formulas equal up to the names of
their symbols share one code object.  The code cache is keyed by shape
before emitting: one walk writes a formula's node kinds, variable names
and symbol positions (_shape_key), and a shape seen before takes its code
and needs from the cache, with this formula's symbols in their places,
without running the emitter.  A second-order quantifier or a predicate
variable's application compiles to a failure, so the calls that reach one
run in the ordered form, which binds predicate variables.

The ordered form, which eval_formula and eval_term run, is closures
run(d, env) over a frame `env`: bound variables by depth, slots pre-bound
from the Environment, then a _Rec.  It keeps the order of the semantics and
records flags and witnesses as it goes; it takes the mask of a quantifier
body, restriction or choice body that is first-order and has nothing to
record (no choice or generic term, no count quantifier) from that
subformula's generated code (RECORD), and STRICT orders everything.
Whatever the mask form or RECORD raises (a partial function's gap, a
missing symbol, an empty domain, an unbound variable) they may have met
where the semantics would not look, so the call runs again in STRICT, which
raises EvalError where the semantics does.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import types
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


class _Pairs:
    """The (element, bit) pairs of an integer range, made as they are read."""

    __slots__ = ("elems",)

    def __init__(self, elems):
        self.elems = elems

    def __iter__(self):
        return zip(self.elems, map((1).__lshift__, range(len(self.elems))))


class _Shape:
    """A domain's elements, element -> mask of its positions (`bits`), the
    (element, bit of its position) pairs in order (`pairs`) and the mask of
    all positions (`full`).  A listed domain's tables are shared by every
    model with the same element list; an integer range keeps no
    per-element table at all."""

    __slots__ = ("elems", "bits", "full", "pairs")

    def __init__(self, elems):
        self.elems = elems
        self.full = (1 << len(elems)) - 1
        if isinstance(elems, range):
            # an int's bit is its position's, by arithmetic
            self.bits = SimpleNamespace(get=lambda e, default=None: (
                1 << elems.index(e) if type(e) is int and e in elems else default))
            self.pairs = _Pairs(elems)
        else:
            self.bits = {}
            for i, e in enumerate(elems):
                self.bits[e] = self.bits.get(e, 0) | 1 << i
            self.pairs = tuple((e, 1 << i) for i, e in enumerate(elems))


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


def _generic_quant(f):
    """P(most:S) and P(many:S(y. R)) read as most/many y:S (R). P(y)."""
    g = f.args[0]
    x = Var(g.var.name if isinstance(g, GenericRestricted) else "x", g.sort)
    return Quant("many" if g.kind == "many" else sx.MOST, x,
                 getattr(g, "restriction", None), Atom(f.pred, (x,)))


# ---------------------------------------------------------------------------
# the mask form as generated source


def _fail():
    raise EvalError("left to the ordered form")


_COUNT_NAMES = {kind: "_count%d" % i for i, kind in enumerate(COUNT_TESTS)}
_GLOBALS = {"_U": _UNSET, "_fail": _fail,
            **{name: COUNT_TESTS[kind] for kind, name in _COUNT_NAMES.items()}}
# distinct shapes whose compiled code is kept; a shape past the bound is
# emitted again when it comes back
CODE_CACHE = 512


class _CodeCache(dict):
    """Shape key -> what emitting it gave, least recently used first, at
    most `maxsize` entries; its hits and misses are counted."""

    def __init__(self, maxsize):
        super().__init__()
        self.maxsize, self.hits, self.misses = maxsize, 0, 0

    def take(self, key):
        entry = self.pop(key, None)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            self[key] = entry
        return entry

    def put(self, key, entry):
        if len(self) >= self.maxsize:
            del self[next(iter(self))]
        self[key] = entry


_codes = _CodeCache(CODE_CACHE)
# a shape key's symbol namespaces, and those of a need key's parts after
# its tag
_PREDS, _CONSTS, _FUNCS, _SORTS = range(4)
_NEED_SYMBOLS = {"dom": (_SORTS,), "ext": (_PREDS,), "const": (_CONSTS,),
                 "fn": (_FUNCS,), "cfg": (),
                 **dict.fromkeys(("mask", "row", "col", "diag"), (_PREDS, _SORTS))}


def _shape_key(node, head, syms):
    """node's shape as a flat tuple after `head`: each node's type and its
    fields that are not symbols, variable names as they are, and each
    predicate, constant, function and sort name as the index of its first
    occurrence in its namespace (syms: a name -> index dict for each).  Two
    formulas with one key differ at most by a renaming of their symbols,
    one to one in each namespace, and the emitter writes the same code for
    both.  One walk on an explicit stack, so the key is made and hashed at
    any depth."""
    preds, consts, funcs, sorts = syms
    out = list(head)
    add = out.extend
    stack = [node]
    pop, push = stack.pop, stack.append
    while stack:
        e = pop()
        t = type(e)
        if t is Atom:
            p = e.pred
            add((Atom, p if p == sx.EQ else preds.setdefault(p, len(preds)),
                 len(e.args)))
            stack += e.args
        elif t is Var:
            add((Var, e.name, sorts.setdefault(e.sort, len(sorts))))
        elif t is Not:
            out.append(Not)
            push(e.body)
        elif t is And or t is Or or t is Implies:
            out.append(t)
            push(e.right)
            push(e.left)
        elif t is Quant:
            add((Quant, e.kind, e.mode, e.restriction is None))
            push(e.body)
            if e.restriction is not None:
                push(e.restriction)
            push(e.var)
        elif t is Binder:
            add((Binder, e.kind))
            push(e.body)
            push(e.var)
        elif t is Const:
            add((Const, consts.setdefault(e.name, len(consts))))
        elif t is App:
            add((App, funcs.setdefault(e.func, len(funcs)), len(e.args)))
            stack += e.args
        elif t is Generic:
            add((Generic, e.kind, sorts.setdefault(e.sort, len(sorts))))
        elif t is GenericRestricted:
            add((GenericRestricted, e.kind, sorts.setdefault(e.sort, len(sorts))))
            push(e.restriction)
            push(e.var)
        elif t is Quant2:
            add((Quant2, e.kind, e.predvar, sorts.setdefault(e.sort, len(sorts))))
            push(e.body)
        elif t is PredApp:
            add((PredApp, e.predvar))
            push(e.arg)
        else:               # no node: the emitter fails on it
            add((None, e))
    return tuple(out)


_OUTER = 1          # deps bit of a name read from env


def _bit(slot):
    """deps bit of bound slot `slot`."""
    return 2 << slot


class _Region:
    """One generated function: the entry, an element loop over `slot` (its
    element is the local `var`), a short-circuit's right operand or a choice
    term being written.  Its lines are (local or None, text, locals read);
    the locals it reads and does not define are its parameters.  A line
    moves out of a loop whose slot it does not read, but not past `stop`,
    the nearest region without a slot."""

    __slots__ = ("slot", "var", "lines", "reads", "depth", "stop")

    def __init__(self, parent, slot=None, var=None):
        self.slot, self.var, self.lines, self.reads = slot, var, [], {}
        self.depth = parent.depth + 1 if parent else 0
        self.stop = self if slot is None else parent.stop


class _Emitter:
    """Writes a node's mask form out as Python source and compiles it.

    Each node gets one local, written in the outermost region whose loops
    bind every slot it reads.  Needs, the shapes' attributes and names read
    from env are read once, at the entry, as is a closed choice term.  An
    element loop and the right operand of a short-circuit are functions of
    their own, so the source nests boundedly at any depth; a short-circuit
    whose value its function returns instead returns early when its left
    operand settles it, so a right-nested chain is one function.
    The walk keeps its pending work on one stack (todo) and the locals of
    finished nodes on another (vals)."""

    def __init__(self, c):
        self.c = c              # the _Compiler: needs, slots and free names
        self.keys = {}          # need key -> its index in K
        self.entry = {}         # need, attribute or env index -> entry local
        self.home, self.deps = {}, {}   # local -> region, slots read
        self.defs = []          # source of each helper function
        self.closed = {}        # closed choice term -> its local
        self.loops = {}         # inner slot -> the loop region binding it
        self.outer = 0          # outer slots read, -1 with a free name
        self.count = 0
        self.root = _Region(None)
        self.todo, self.vals = [], []

    def emit(self, node, scope, slot=None, sort=None):
        """(_run(d, env, K), deps) of formula node, its mask over inner
        `slot` when given: the slots of `scope` below it are outer, read
        from env, and K holds the need keys in the order of self.keys."""
        self.base = slot if slot is not None else scope[-1][1] + 1 if scope else 0
        if slot is not None:
            self.mask(node, scope, slot, sort, self.root)
        else:
            self.formula(node, scope, self.root, True)
        todo = self.todo
        while todo:
            fn, *args = todo.pop()
            fn(*args)
        out, = self.vals
        source = "\n".join(self.defs + ["def _run(d, env, K):"] + [
            "    " + (t if v is None else "%s = %s" % (v, t))
            for v, t, _ in self.root.lines] + ["    return " + out, ""])
        ns = dict(_GLOBALS)
        exec(compile(source, "<mask form>", "exec"), ns)
        return ns["_run"], self.outer

    # -- locals and regions -----------------------------------------------

    def new(self, prefix="v"):
        self.count += 1
        return "%s%d" % (prefix, self.count)

    def target(self, reg, bits):
        """The outermost region from reg out whose loops bind every slot in
        bits: the loop of the last of them."""
        slots = bits >> 1
        if slots:
            loop = self.loops[slots.bit_length() - 1]
            if loop.depth > reg.stop.depth:
                return loop
        return reg.stop

    def place(self, reg, v, text, reads):
        reg = self.target(reg, self.deps[v])
        reg.lines.append((v, text, reads))
        reg.reads.update(dict.fromkeys(reads))
        self.home[v] = reg

    def put(self, reg, text, reads):
        """A new local holding text, whose locals are `reads`."""
        v = self.new()
        self.deps[v] = functools.reduce(int.__or__,
                                        map(self.deps.__getitem__, reads), 0)
        self.place(reg, v, text, reads)
        return v

    def op(self, reg, template, *reads):
        return self.put(reg, template % reads, reads)

    def combine(self, reg, template, n, *pre):
        self.vals.append(self.op(reg, template, *pre, *self.pop(n)))

    def pop(self, n):
        out = self.vals[len(self.vals) - n:]
        del self.vals[len(self.vals) - n:]
        return out

    def loop_region(self, reg, slot):
        loop = self.loops[slot] = _Region(reg, slot, self.new("e"))
        self.home[loop.var], self.deps[loop.var] = loop, _bit(slot)
        return loop

    def close(self, reg, head, tail):
        """Write region reg out as a function: (its call, its parameters)."""
        params = [v for v in reg.reads if self.home[v] is not reg]
        name = "_f%d" % len(self.defs)
        pad = "        " if head else "    "
        self.defs.append("\n".join(
            ["def %s(%s):" % (name, ", ".join(params))] + head +
            [pad + (t if v is None else "%s = %s" % (v, t))
             for v, t, _ in reg.lines] + tail))
        return "%s(%s)" % (name, ", ".join(params)), params

    # -- what the entry reads once ----------------------------------------

    def need(self, *parts):
        key = self.c.need(*parts)
        self.keys.setdefault(key, len(self.keys))
        return key

    def at_entry(self, key, text, bits=0):
        v = self.entry.get(key)
        if v is None:
            v = self.entry[key] = self.new("n")
            self.root.lines.append((v, text, ()))
            self.home[v], self.deps[v] = self.root, bits
        return v

    def value(self, key, attr=""):
        """d[key] of a need, or its attribute or item `attr`."""
        if attr:
            return self.at_entry((key, attr), self.value(key) + attr)
        return self.at_entry(key, "d[K[%d]]" % self.keys[key])

    def name(self, scope, name):
        """Local of a variable: an inner slot's element, else what env holds
        at its frame index (a free variable's raises when unbound)."""
        slot, _ = self.c.lookup(scope, name)
        if slot >= self.base:
            return self.loops[slot].var
        if slot not in self.entry:
            self.outer |= -1 if slot < 0 else 1 << slot
            v = self.at_entry(slot, "env[%d]" % slot, _OUTER)
            if slot < 0:
                self.root.lines.append((None, "if %s is _U: _fail()" % v, ()))
        return self.entry[slot]

    # -- formulas as booleans ---------------------------------------------

    def formula(self, f, scope, reg, tail=False):
        """Push the local of f's value; `tail` when that value is what reg,
        the entry or a right operand's function, returns."""
        t, todo = type(f), self.todo
        if t is Atom and _is_generic_atom(f):
            self.quant(_generic_quant(f), scope, reg)
        elif t is Atom:
            todo.append((self.atom, f, reg))
            self.terms(f.args, scope, reg)
        elif t is Not:
            todo.append((self.combine, reg, "not %s", 1))
            todo.append((self.formula, f.body, scope, reg))
        elif (t is And or t is Or or t is Implies) and tail:
            # return early when the left operand settles it, else go on
            # with the right in place: a right-nested chain stays flat
            todo.append((self.formula, f.right, scope, reg, True))
            todo.append((self.guard, f, reg))
            todo.append((self.formula, f.left, scope, reg))
        elif t is And or t is Or or t is Implies:
            todo.append((self.right, f, scope, reg))
            todo.append((self.formula, f.left, scope, reg))
        elif t is Quant and f.kind in sx.QUANT_KINDS:
            self.quant(f, scope, reg)
        else:       # second-order, or a node the semantics rejects
            self.vals.append(self.put(reg, "_fail()", ()))

    def atom(self, f, reg):
        args = self.pop(len(f.args))
        if f.pred != sx.EQ:
            ext = self.value(self.need("ext", f.pred))
            v = self.op(reg, "(" + "%s, " * len(args) + ") in %s", *args, ext)
        elif len(args) == 2:
            v = self.op(reg, "%s == %s", *args)
        else:
            v = self.put(reg, "_fail()", ())
        self.vals.append(v)

    def guard(self, f, reg):
        left = self.vals.pop()
        reg.lines.append((None, ("if not %s: return False" if type(f) is And else
                                 "if %s: return True" if type(f) is Or else
                                 "if not %s: return True") % left, (left,)))
        reg.reads[left] = None

    def right(self, f, scope, reg):
        ro = _Region(reg)
        self.todo.append((self.connect, f, reg, ro))
        self.todo.append((self.formula, f.right, scope, ro, True))

    def connect(self, f, reg, ro):
        """The connective, running its right operand only when the left
        leaves the value open."""
        r = self.vals.pop()
        left = self.vals.pop()
        if len(ro.lines) == 1:
            # written in place: a connective writes its left operand's
            # line and more in ro, so this one line holds no operand in
            # place
            _, text, reads = ro.lines[0]
            text = "(%s)" % text
        else:
            ro.reads[r] = None
            text, reads = self.close(ro, [], ["    return " + r])
        template = "%s and %s" if type(f) is And else \
            "%s or %s" if type(f) is Or else "not %s or %s"
        self.vals.append(self.put(reg, template % (left, text), [left, *reads]))

    def quant(self, f, scope, reg):
        slot, inner = self.c.bind(scope, f.var.name)
        dk = self.need("dom", f.var.sort)
        self.todo.append((self.decide, f, dk, reg))
        self.todo.append((self.mask, f.body, inner, slot, f.var.sort, reg))
        if f.restriction is not None:
            self.todo.append((self.mask, f.restriction, inner, slot, f.var.sort,
                              reg))

    def decide(self, f, dk, reg):
        """Quantifier f from its body's mask b and its restriction's a."""
        b = self.vals.pop()
        a = self.value(dk, ".full") if f.restriction is None else self.vals.pop()
        kind, op = f.kind, self.op
        if kind == sx.FORALL:
            v = op(reg, "%s == %s", b, a) if f.restriction is None else \
                op(reg, "not %s & ~%s", a, b)
        elif kind == sx.EXISTS:
            v = op(reg, "%s != 0", b) if f.restriction is None else \
                op(reg, "%s & %s != 0", a, b)
        else:
            if f.restriction is not None:
                b = op(reg, "%s & %s", a, b)
            cfg = self.need("cfg")
            counts = _COUNT_NAMES[kind] + "(%s.bit_count(), %s.bit_count(), %s, "
            if kind in (sx.FORALL_STAR, sx.EXISTS_STAR):
                # regime A reads them as forall and exists
                v = op(reg, ("not %s & ~%s" if kind == sx.FORALL_STAR else
                             "%s & %s != 0") + " if %s == 'A' else " + counts + "None)",
                       a, b, self.value(cfg, "[3]"), b, a, self.value(cfg, "[0]"))
            else:
                theta = self.value(cfg, "[1]" if kind == "many" else "[0]")
                if f.mode:
                    v = op(reg, counts + "%r)" % ("strict" if f.mode == "strict"
                                                  else "weak"), b, a, theta)
                else:
                    v = op(reg, counts + "%s)", b, a, theta, self.value(cfg, "[2]"))
        self.vals.append(v)

    # -- formulas as masks over the variable in `slot` ---------------------

    def mask(self, f, scope, slot, sort, reg):
        t, todo = type(f), self.todo
        dk = self.need("dom", sort)
        if t is Not:
            todo.append((self.combine, reg, "%s ^ %s", 1, self.value(dk, ".full")))
            todo.append((self.mask, f.body, scope, slot, sort, reg))
        elif t is And or t is Or or t is Implies:
            if t is Implies:
                todo.append((self.combine, reg, "(%s ^ %s) | %s", 2,
                             self.value(dk, ".full")))
            else:
                todo.append((self.combine, reg,
                             "%s & %s" if t is And else "%s | %s", 2))
            todo.append((self.mask, f.right, scope, slot, sort, reg))
            todo.append((self.mask, f.left, scope, slot, sort, reg))
        elif t is Atom and 0 < len(f.args) <= 2 and not _is_generic_atom(f):
            loop = self.loop_region(reg, slot)
            todo.append((self.direct_atom, f, scope, sort, dk, reg, loop))
            self.terms(f.args, scope, loop)
        else:
            loop = self.loop_region(reg, slot)
            todo.append((self.loop, dk, reg, loop))
            todo.append((self.formula, f, scope, loop))

    def direct_atom(self, f, scope, sort, dk, reg, loop):
        """An atom whose arguments are the slot's variable or do not read
        it is a predicate mask, row, column or diagonal, or an equality;
        any other is tried on each element."""
        args = self.pop(len(f.args))
        at = [type(a) is Var and self.c.lookup(scope, a.name)[0] == loop.slot
              for a in f.args]
        given = [v for v, x in zip(args, at) if not x]
        if not any(at) or any(self.deps[v] & _bit(loop.slot) for v in given) \
                or f.pred == sx.EQ and len(args) != 2:
            self.vals += args
            self.atom(f, loop)
            self.loop(dk, reg, loop)
            return
        if f.pred == sx.EQ:
            v = self.value(dk, ".full") if not given else \
                self.op(reg, "%s.get(%s, 0)", self.value(dk, ".bits"), *given)
        else:
            self.need("ext", f.pred)
            if len(args) == 1:
                v = self.value(self.need("mask", f.pred, sort))
            elif not given:
                v = self.value(self.need("diag", f.pred, sort))
            else:
                v = self.op(reg, "%s.get(%s, 0)", self.value(self.need(
                    "row" if at[1] else "col", f.pred, sort)), *given)
        self.vals.append(v)

    def loop(self, dk, reg, loop):
        """The mask of the elements that satisfy the boolean on vals."""
        g = self.vals.pop()
        if not self.deps[g] & _bit(loop.slot):
            self.vals.append(self.op(reg, "%s if %s else 0",
                                     self.value(dk, ".full"), g))
            return
        pairs = self.value(dk, ".pairs")
        loop.reads[pairs] = None
        call, params = self.close(
            loop, ["    out = 0",
                   "    for %s, bit in %s:" % (loop.var, pairs)],
            ["        if %s:" % g, "            out |= bit", "    return out"])
        self.vals.append(self.put(reg, call, params))

    # -- terms as elements -------------------------------------------------

    def terms(self, args, scope, reg):
        self.todo.extend((self.term, a, scope, reg) for a in reversed(args))

    def term(self, t, scope, reg):
        typ = type(t)
        if typ is Var:
            self.vals.append(self.name(scope, t.name))
        elif typ is Const:
            self.vals.append(self.value(self.need("const", t.name)))
        elif typ is App:
            self.todo.append((self.app, self.need("fn", t.func), len(t.args), reg))
            self.terms(t.args, scope, reg)
        elif typ is Binder and t in self.closed:
            self.vals.append(self.closed[t])
        elif typ is Binder and t.kind in sx.BINDER_KINDS or typ is GenericRestricted:
            dk = self.need("dom", t.var.sort)
            slot, inner = self.c.bind(scope, t.var.name)
            # written in a region of its own, then moved: to the entry when
            # it reads no bound slot
            choice = _Region(reg)
            self.todo.append((self.choice, t, dk, reg, choice))
            self.todo.append((self.mask, t.body if typ is Binder else t.restriction,
                              inner, slot, t.var.sort, choice))
        elif typ is Generic:
            self.vals.append(self.op(reg, "%s[0]", self.value(
                self.need("dom", t.sort), ".elems")))
        else:
            self.vals.append(self.put(reg, "_fail()", ()))

    def app(self, fk, n, reg):
        args = self.pop(n)
        self.vals.append(self.op(reg, "%s[(" + "%s, " * n + ")]",
                                 self.value(fk), *args))

    def choice(self, t, dk, reg, choice):
        m = self.vals.pop()
        elems = self.value(dk, ".elems")
        pick = "%s[(%s & -%s).bit_length() - 1] if %s else %s[0]"
        if type(t) is GenericRestricted:    # else its own sort's least element
            v = self.op(choice, pick, elems, m, m, m, self.value(
                self.need("dom", t.sort), ".elems"))
        elif t.kind == sx.IOTA:     # only when exactly one bit is set
            v = self.op(choice, "%s[(%s & -%s).bit_length() - 1] "
                        "if %s and not %s & (%s - 1) else %s[0]",
                        elems, m, m, m, m, m, elems)
        else:
            if t.kind == sx.TAU:
                m = self.op(choice, "%s ^ %s", self.value(dk, ".full"), m)
            v = self.op(choice, pick, elems, m, m, m, elems)
        closed = not self.deps[v]
        for line in choice.lines:
            self.place(self.root if closed else reg, *line)
        if closed and type(t) is Binder:
            self.closed[t] = v
        self.vals.append(v)


# ---------------------------------------------------------------------------
# the ordered form as closures


class _Compiler:
    """The ordered form.  Each method returns (closure, deps); deps has bit
    k set when the closure reads bound slot k, and is -1 when it reads a
    free name's pre-bound slot (at a negative index: the frame's length is
    known only at the end), whose binder may be any scope.  In RECORD the
    mask of a subformula that records nothing is generated code
    (_Emitter)."""

    def __init__(self, mode):
        self.strict = mode == STRICT
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
        record a flag or witness, it is second-order, or STRICT orders
        everything."""
        if self.strict:
            return True
        hit = self.memo.get(id(e))
        if hit is None:
            rec = isinstance(e, (Binder, Generic, GenericRestricted, Quant2,
                                 PredApp)) or \
                isinstance(e, Quant) and e.kind not in (sx.FORALL, sx.EXISTS) or \
                any(self.records(k) for k in sx.children(e))
            hit = self.memo[id(e)] = (e, rec)
        return hit[1]

    def generated(self, node, scope, slot=None, sort=None):
        """(run(d, env), deps) of formula node's mask form, its mask over
        inner `slot` when given (_Emitter.emit).  The code comes from the
        cache when a formula of the same shape, in the same scope and with
        the same free names met before, was emitted: then its needs are
        this node's symbols in their places, and the compiler learns the
        same needs, free names and slots as from emitting."""
        syms = ({}, {}, {}, {})
        if slot is not None:        # the mask's sort is sort 0
            syms[_SORTS][sort] = 0
        # the slots of a scope are its positions
        key = _shape_key(node, (slot, tuple(self.frees),
                                tuple(n for n, _, _ in scope)), syms)
        entry = _codes.take(key)
        if entry is None:
            emitter = _Emitter(self)
            depth, self.depth, old = self.depth, 0, len(self.frees)
            run, outer = emitter.emit(node, scope, slot, sort)
            keys = tuple(emitter.keys)
            # kept flat, each tag followed by its symbols' indices, and
            # with the key's strings interned: an entry holds no string of
            # its own
            needs = []
            for need in keys:
                tag, *parts = need.split(_SEP)
                needs += (sys.intern(tag), *(syms[ns][part] for ns, part
                                             in zip(_NEED_SYMBOLS[tag], parts)))
            _codes.put(tuple(sys.intern(k) if type(k) is str else k for k in key),
                       (run, tuple(needs), tuple(self.frees[old:]), self.depth,
                        outer))
            self.depth = max(depth, self.depth)
        else:
            run, needs, frees, depth, outer = entry
            names = [list(s) for s in syms]
            keys, it = [], iter(needs)
            for tag in it:
                keys.append(self.need(tag, *[names[ns][next(it)]
                                             for ns in _NEED_SYMBOLS[tag]]))
            keys = tuple(keys)
            self.frees += frees
            self.depth = max(self.depth, depth)
        return types.FunctionType(run.__code__, run.__globals__, "_run",
                                  (keys,)), outer

    @staticmethod
    def bad(message):      # a node the semantics rejects when it reaches it
        def fail(d, env):
            raise EvalError(message)
        return fail, 0

    def satisfiers(self, f, scope, slot, sort):
        """Mask of the elements of `sort` that satisfy f in `slot`: f's
        generated code when it records nothing, else its closure tried on
        each element in domain order."""
        if not self.records(f):
            return self.generated(f, scope, slot, sort)
        g, deps = self.formula(f, scope)
        dk = self.need("dom", sort)

        def loop(d, env):
            out = 0
            for e, bit in d[dk].pairs:
                env[slot] = e
                if g(d, env):
                    out |= bit
            return out
        return loop, deps

    # -- formulas as booleans ---------------------------------------------

    def formula(self, f, scope):
        if isinstance(f, Atom):
            if _is_generic_atom(f):
                return self.quant(_generic_quant(f), scope)
            return self.atom_of(f, [self.term(a, scope) for a in f.args])
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
        if self.records(f.body):
            body, deps = self.formula(f.body, inner)
        else:
            bmask, deps = self.generated(f.body, inner, slot, f.var.sort)
        restr = None
        if f.restriction is not None:
            restr, dr = self.satisfiers(f.restriction, inner, slot, f.var.sort)
            deps |= dr
        return self.decide(f.kind, f.mode, dk, slot, restr, body, bmask,
                           self.need("cfg")), deps & ~(1 << slot)

    @staticmethod
    def decide(kind, mode, dk, slot, restr, body, bmask, cfg):
        """Closure deciding quantifier `kind` over the variable in `slot`
        from the restriction mask (None: the whole domain) and the body:
        generated code's mask when it records nothing (bmask), else a
        closure run on the restriction's elements in domain order, on all
        of them for a count."""
        test = COUNT_TESTS.get(kind)
        star = kind in (sx.FORALL_STAR, sx.EXISTS_STAR)
        universal = kind in (sx.FORALL, sx.FORALL_STAR)

        def run(d, env):
            shape = d[dk]
            a = shape.full if restr is None else restr(d, env)
            most_t, many_t, default_mode, regime = d[cfg]
            if body is None:
                b = bmask(d, env) & a
            elif test is None or star and regime == "A":
                for i in _positions(a):
                    env[slot] = shape.elems[i]
                    if body(d, env) != universal:
                        return not universal
                return universal
            else:
                b = 0
                for i in _positions(a):
                    env[slot] = shape.elems[i]
                    if body(d, env):
                        b |= 1 << i
            if test is None or star and regime == "A":
                return b == a if universal else b != 0
            hits, total = b.bit_count(), a.bit_count()
            if not total:
                env[-1].flag(FLAG_EMPTY_RESTRICTION)
            elif not star:
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
            r, deps = self.satisfiers(t.restriction, inner, slot, t.var.sort)
            dk = self.need("dom", t.sort)

            def first(d, env):
                m = r(d, env)
                if m:
                    return _low(d[vk], m)
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
        body, deps = self.satisfiers(t.body, inner, slot, t.var.sort)
        deps &= ~(1 << slot)
        tau, iota = t.kind == sx.TAU, t.kind == sx.IOTA

        def pick(d, env):
            shape = d[dk]
            if not shape.full:
                raise EvalError("empty domain for sort %s" % t.var.sort)
            m = body(d, env)
            if tau:
                m ^= shape.full
            elif iota and (not m or m & (m - 1)):
                env[-1].flag(FLAG_IOTA)
                m = 0
            v = _low(shape, m)
            env[-1].witnesses.append((t, v))
            return v
        if deps:
            return pick, deps
        # closed (no bound slot read): one closure for every copy of the
        # term, chosen once per call.  It runs in a copy of the frame, so its
        # slots cannot clash with those of the scope it is used in; a copy
        # replays the witnesses of the first pick.
        at = len(self.closed)

        def memo(d, env):
            rec = env[-1]
            hit = rec.chosen[at]
            if hit is _UNSET:
                start = len(rec.witnesses)
                v = pick(d, env.copy())
                rec.chosen[at] = (v, start, len(rec.witnesses))
                return v
            rec.witnesses.extend(rec.witnesses[hit[1]:hit[2]])
            return hit[0]
        self.closed[t] = memo
        return memo, 0


_CODE = {TRUTH: "_truth_code", RECORD: "_record_code", STRICT: "_strict_code"}


def _not_compiled():
    return _UNSET


class _Code(tuple):
    """A node's compiled code.  Functions do not pickle, so a pickled or
    deep-copied node carries "not compiled yet" and compiles again."""

    __slots__ = ()

    def __reduce__(self):
        return _not_compiled, ()


def compile_formula(node, mode=TRUTH):
    """(needs in order, run, pre-bound slots) of a formula, or in the
    ordered modes a term, in form `mode`, and in the ordered modes the
    frame template and the number of closed choice terms too; cached on the
    node, to live and die with it.  The mask form's run(d, values) takes
    the pre-bound names' values in frame order, no frame."""
    c = _Compiler(mode)
    if mode == TRUTH:
        run, _ = c.generated(node, ())
        code = (tuple(c.needs), run, tuple(c.frees))
    else:
        run, _ = (c.formula if sx.is_formula(node) else c.term)(node, ())
        # a pre-bound slot is unbound until _bound's values go in
        template = [_UNSET] * (c.depth + len(c.frees)) + [None]
        code = (tuple(c.needs), run, tuple(c.frees), template, len(c.closed))
    code = _Code(code)
    try:
        object.__setattr__(node, _CODE[mode], code)
    except (AttributeError, TypeError):
        pass
    return code


def _bound(frees, env):
    """The values of the free names from env in frame order, the last
    first; _UNSET for an unbound one, and the code raises where it reads
    it."""
    if env is None:
        return (_UNSET,) * len(frees)
    return tuple(next((e for n, e in getattr(env, field) if n == name), _UNSET)
                 for field, name in reversed(frees))


def _fill(model, d, needs):
    """Derive into d the needs it lacks; compile lists each key after the
    keys its derivation reads."""
    for key in needs:
        if key not in d:
            d[key] = _derive(model, d, key)


def truth(model, f, env=None):
    """Truth of formula f in model by its mask form; what the mask form
    raises sends the call to the ordered form (STRICT)."""
    code = getattr(f, "_truth_code", _UNSET)
    if code is _UNSET:
        code = compile_formula(f)
    needs, run_f, frees = code
    d = model._derived
    try:
        # free name i is at index -2 - i, as in an ordered frame
        values = _bound(frees, env) + (None,) if frees else ()
        try:
            return run_f(d, values)
        except KeyError:
            # a need not derived yet, or a gap the second run meets again;
            # the code is pure, so running it again is safe
            _fill(model, d, needs)
            return run_f(d, values)
    except _RETRY:
        return ordered(model, f, env, STRICT)[0]


def ordered(model, node, env, mode):
    """(value, _Rec) of a formula or term by its ordered code in `mode`
    (RECORD or STRICT)."""
    code = getattr(node, _CODE[mode], _UNSET)
    if code is _UNSET:
        code = compile_formula(node, mode)
    needs, run_f, frees, template, closed = code
    if mode == STRICT:
        d = _Lazy()
        d.model = model
    else:
        # up front: a RECORD run can miss deep into its work, where running
        # it again would cost more than the check saves
        d = model._derived
        _fill(model, d, needs)
    rec = _Rec(closed)
    frame = template.copy()
    frame[-1] = rec
    if env is not None:
        frame[-1 - len(frees):-1] = _bound(frees, env)
    return run_f(d, frame), rec


def record(model, node, env=None):
    """(value, _Rec) of a formula or term in the order of the semantics,
    with its flags and witnesses."""
    try:
        return ordered(model, node, env, RECORD)
    except _RETRY:
        return ordered(model, node, env, STRICT)
