"""The evaluator: a formula or term is compiled once, then run on model
after model.

compile_formula compiles a node and caches the code on the node.  `d` holds
what the code reads from a model under string keys: the _Shape of a sort's
domain, a predicate's extension, constants, function tables and the
settings, which the ordered form reads, and what the mask form reads, keyed
by bit: the mask of a unary predicate (a sieve or a slice for a builtin),
the rows, columns or diagonal of a binary one, the tuples of bits of
another arity, a constant's bit and a function's table from its arguments'
bits to its value's (_derive).  Each is derived once per model and kept in
the model's plain dict, model._derived.  Every form reads it through one
view, _Lazy(model), which derives a value there when first read, so a
missing symbol raises its EvalError where it is read.  truth alone runs
first on the plain dict, and on the view only when a read misses
(KeyError).

One generator (_Emitter) writes every form as Python source: one flat
function per node, one local per subnode, with each element loop and each
short-circuit's right operand a function of its own, so the source nests
boundedly at any depth.  The source reads each value of d by its key,
written in it, and names the nodes that witnesses and messages name
through a tuple T bound in its namespace.  The code cache is keyed by form
and formula before emitting, by syntax.node_key, the walk that gives nodes
their == and hash: a formula equal to one emitted before takes that one's
code from the cache without running the emitter.

The mask form (TRUTH), which truth runs, is first-order and computes with
bits.  A formula in the variable bound at slot k is a mask: bit i is set
when the formula holds with element i of that sort in slot k.  So forall is
A & ~B == 0, exists A & B != 0 and the count determiners compare popcounts.
A term is the one-hot bit of its element's position: a loop runs over the
bits, a unary atom is mask & t, a binary one row[t] & u, an equation
t == u, a predicate variable's subset mask & t.  Each term's bit is over
the domain of its sort: a variable's or choice term's own, and for a
constant or application the sort of what it meets, or else the one the
model's signature gives it.  Only a domain that lists each element once
has these bits (its `dom` shape); another, which only the API builds,
raises, and STRICT runs.  A second-order quantifier loops over its sort's
subsets, and a predicate variable holds one as a mask.

The ordered form, which eval_formula and eval_term run, keeps the order of
the semantics: elements in domain order, an early exit once a quantifier's
value is settled, a count's body on every restriction element.  It records
flags and witnesses (a _Rec) as it goes, and its terms are elements.  An
ordered loop binds each element and its bit.  RECORD writes a subformula
that has nothing to record (no choice or generic term, no count) in the
mask form, inside the same function, so a formula with nothing to record
gets TRUTH's source; STRICT writes everything ordered.  Whatever the mask
form or RECORD raises (a partial function's gap, a missing symbol, an
empty domain, an unbound variable, a domain without bits, a term read at
another sort) they may have met where the semantics would not look, so the
call runs again in STRICT, which raises EvalError where the semantics does.

Every form picks a choice or restricted generic term alike, from the mask
of its satisfiers: eps, eta and a generic term the lowest set bit, tau the
lowest clear bit, iota the only set bit, and with none the sort's least
element; the mask form keeps the bit (m & -m), the ordered form takes the
element at its position.  A closed one is picked once: at the mask form's
entry, or once per call by the ordered form, which replays its witnesses
when met again.  The mask form writes such a term once for each binding
of its free names, however often it is copied: the generator gives equal
subtrees one value number, and a copy whose number was written under the
same loops that bind its free names, in the region it is met in or one
enclosing it, reads that local.  A copy in a short-circuit's right operand
shares with no copy outside it, and one under another binder of the same
name with none under the first.  A connective both of whose operands loop
over a slot's elements is one loop in the mask form, so the copies in both
meet in one function.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from numbers import Rational

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


class _Remade:
    """An iterable that `make` makes anew each time it is iterated: an
    integer range's bits or (element, bit) pairs, made as they are read."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __iter__(self):
        return self.make()


class _RangeBits:
    """An integer range's element -> bit of its position, by arithmetic."""

    __slots__ = ("elems",)

    def __init__(self, elems):
        self.elems = elems

    def get(self, e, default=None):
        return 1 << self.elems.index(e) if type(e) is int and e in self.elems \
            else default

    def __getitem__(self, e):
        b = self.get(e)
        if b is None:
            raise KeyError(e)
        return b


class _Shape:
    """A domain's elements, element -> mask of its positions (`bits`), the
    one-hot bit of each position in order (`ones`), over which a mask loop
    runs, the (element, bit) pairs in order (`pairs`), over which an
    ordered loop runs, and the mask of all positions (`full`).  Where each
    element is listed once, `bits` maps it to its term's bit.  A listed
    domain's tables are shared by every model with the same element list;
    an integer range keeps no per-element table at all."""

    __slots__ = ("elems", "bits", "full", "ones", "pairs")

    def __init__(self, elems):
        self.elems = elems
        n = len(elems)
        self.full = (1 << n) - 1
        if isinstance(elems, range):
            def ones():
                return map((1).__lshift__, range(n))
            self.bits = _RangeBits(elems)
            self.ones = _Remade(ones)
            self.pairs = _Remade(lambda: zip(elems, ones()))
        else:
            self.ones = tuple(1 << i for i in range(n))
            self.bits = {}
            for e, b in zip(elems, self.ones):
                self.bits[e] = self.bits.get(e, 0) | b
            self.pairs = tuple(zip(elems, self.ones))


_shape = functools.lru_cache(maxsize=256)(_Shape)


def _mask(bits, elements):
    """The mask of the positions of `elements` in a domain whose element ->
    mask of its positions is `bits`; an element outside it adds none."""
    return functools.reduce(int.__or__, (bits.get(e, 0) for e in elements), 0)


def _bits_of(bits, elements):
    """The tuple of the bits of `elements`, each over the domain whose
    element -> bit is the matching item of `bits`; None when there are not
    as many or one lies outside its domain."""
    if len(elements) != len(bits):
        return None
    out = tuple(b.get(e) for b, e in zip(bits, elements))
    return None if None in out else out


def _subsets(shape):
    """The mask of each subset of a domain, in itertools.combinations order."""
    for r in range(len(shape.elems) + 1):
        for c in itertools.combinations(shape.elems, r):
            yield _mask(shape.bits, c)


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


def _key(*parts):
    """The key in d of the value that `parts` name."""
    return _SEP.join(parts)


def _sort(model, sort):
    """The sort that `sort` names: itself, or, written "c:NAME" or
    "f:NAME", the sort that the model's signature gives constant NAME or
    the values of function NAME."""
    if sort[:2] == "c:":
        named = model.signature.constants.get(sort[2:])
    elif sort[:2] == "f:":
        named = model.signature.functions.get(sort[2:], (None, None))[1]
    else:
        return sort
    if named is None:
        raise EvalError("model's signature gives %s no sort" % sort[2:])
    return named


def _derive(model, d, key):
    """The value of d[key] for model, d its _Lazy view; EvalError, with the
    message of the semantics, when the model lacks what the key names.

    A sort's shape is `dom`, which raises on a domain that lists an
    element twice, or `seq`, which STRICT reads, for any domain.  What the
    mask form reads is keyed by bit: a constant's `bit`, a function's `map`
    from its arguments' bits to its value's, and a predicate's `mask`,
    `diag`, `row`, `col` and `tuples`, each over the sorts its key names.
    A value outside the domain of its sort has no bit, so reading it raises
    KeyError.  A key over a sort that a constant or function names (_sort)
    takes the value over the sort it names."""
    tag, *args = key.split(_SEP)
    if ":" in key:
        lead = 0 if tag == "dom" or tag == "seq" else 1
        named = args[:lead] + [_sort(model, s) for s in args[lead:]]
        if named != args:
            return d[_key(tag, *named)]
    if tag == "dom" or tag == "seq":
        dom = model.domains.get(args[0])
        if dom is None:
            raise EvalError("model has no sort %s" % args[0])
        if isinstance(dom, range):
            return _Shape(dom)
        shape = _shape(tuple(dom))
        # a term is the bit of its element's position, which an element
        # listed twice does not have
        if tag == "dom" and len(shape.bits) < len(dom):
            raise EvalError("domain of sort %s lists an element twice" % args[0])
        return shape
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
    if tag == "bit":        # of constant args[0] over sort args[1]
        return d[_key("dom", args[1])].bits[d[_key("const", args[0])]]
    if tag == "map":
        # function args[0], its arguments' sorts args[1:-1], its value's
        # args[-1]: keyed by the argument's bit, or by the tuple of them
        *given, value = [d[_key("dom", s)].bits for s in args[1:]]
        out = {}
        for key, val in d[_key("fn", args[0])].items():
            k, v = _bits_of(given, key), value.get(val)
            if k is not None and v is not None:
                out[k[0] if len(k) == 1 else k] = v
        return out
    # mask / diag / row / col / tuples of predicate args[0] over sorts args[1:]
    ext = d[_key("ext", args[0])]
    if isinstance(ext, _Builtin):
        if tag != "mask":
            raise EvalError("builtin @%s is unary" % ext)
        return _builtin_mask(ext, d[_key("dom", args[1])])
    if tag == "mask" or tag == "diag":
        bits = d[_key("dom", args[1])].bits
        if tag == "mask":
            return functools.reduce(int.__or__, (bits.get(t[0], 0) for t in ext
                                                 if len(t) == 1), 0)
        return functools.reduce(int.__or__, (bits.get(t[0], 0) for t in ext
                                             if len(t) == 2 and t[0] == t[1]), 0)
    bits = [d[_key("dom", s)].bits for s in args[1:]]
    if tag == "tuples":
        keys = (_bits_of(bits, t) for t in ext)
        return frozenset(k for k in keys if k is not None)
    # row: keyed by the first argument's bit, the mask of second arguments;
    # col the other way round.  Every position has its entry.
    given, free = (0, 1) if tag == "row" else (1, 0)
    out = dict.fromkeys(d[_key("dom", args[1 + given])].ones, 0)
    for t in ext:
        g = bits[given].get(t[given]) if len(t) == 2 else None
        if g is not None:
            out[g] |= bits[free].get(t[free], 0)
    return out


def extension(model, name):
    """Predicate `name`'s extension in model (a builtin's tests membership)."""
    return _Lazy(model)[_key("ext", name)]


class _Lazy(dict):
    """A view of model's derived values: a value first read here is taken
    from model._derived, or derived there, and kept here too.  The view
    holds the model; the model never holds a view."""

    __slots__ = ("model",)

    def __init__(self, model):
        self.model = model

    def __missing__(self, key):
        derived = self.model._derived
        if key not in derived:
            derived[key] = _derive(self.model, self, key)
        val = self[key] = derived[key]
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
# generated source: what it calls, and the cache of its code by formula


def _raise(message, *nodes):
    """A failure of the semantics, which STRICT raises where the semantics
    meets it; `nodes` fill the message."""
    raise EvalError(message % nodes if nodes else message)


def _least(elems, sort):
    """STRICT's least element of a sort's domain, whose elements are
    `elems`: the semantics' pick when nothing else is picked."""
    if not elems:
        raise EvalError("empty domain for sort %s" % sort)
    return elems[0]


def _app(table, key, t):
    """Function application t's value at the argument tuple `key`."""
    try:
        return table[key]
    except KeyError:
        raise EvalError("function %s undefined at %r" % (t.func, key)) from None


def _counted(rec, hits, total, regime=None):
    """Record a count quantifier's flag from the masks of its hits and of
    its restriction: an empty restriction, else most's and many's ratio.  A
    starred quantifier (its regime given) records one in regime B only."""
    if regime == "A":
        return
    if not total:
        rec.flag(FLAG_EMPTY_RESTRICTION)
    elif regime is None:
        rec.flag("most-ratio %s" % Fraction(hits.bit_count(), total.bit_count()))


def _replay(rec, hit):
    """A closed choice term met again: its element.  The witnesses its pick
    recorded are recorded once more."""
    rec.witnesses.extend(rec.witnesses[hit[1]:hit[2]])
    return hit[0]


_COUNT_NAMES = {kind: "_count%d" % i for i, kind in enumerate(COUNT_TESTS)}
_GLOBALS = {"_U": _UNSET, "_raise": _raise, "_app": _app,
            "_counted": _counted, "_replay": _replay, "_least": _least,
            "_subsets": _subsets, "_mask": _mask,
            **{name: COUNT_TESTS[kind] for kind, name in _COUNT_NAMES.items()}}
# distinct formulas whose compiled code is kept; a formula past the bound
# is emitted again when it comes back
CODE_CACHE = 512


class _CodeCache(dict):
    """Formula key -> its code, least recently used first, at most
    `maxsize` entries; its hits and misses are counted."""

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


_FREE = 1           # deps bit of a free name, read from env


def _bit(slot):
    """deps bit of bound slot `slot`."""
    return 2 << slot


_RECORDS = (Binder, Generic, GenericRestricted)


class _Numbers:
    """Value numbers: equal subtrees get one number.  Per number it keeps
    the mask of the names free in it (`frees`; `bits` holds each name's
    bit, a predicate variable's name with _SEP before it), the mask of
    the names over which the mask form writes it with an element loop
    (`loops`): those it reads, but through not and the connectives, and
    in an atom of one or two arguments only those that an argument other
    than a bare variable reads (a mask, row, column, diagonal or equality
    test reads the others), and whether it records (`records`): it is or
    holds a choice or generic term or a count quantifier.  It keeps the
    nodes it numbers, so that no id is reused while it lives."""

    __slots__ = ("number", "table", "bits", "frees", "loops", "records",
                 "kept")

    def __init__(self):
        self.number = {}        # id(node) -> its number
        self.table = {}         # (class, fields, children's numbers) -> number
        self.bits, self.frees, self.loops, self.records = {}, [], [], []
        self.kept = []

    def of(self, node):
        """node's number; the nodes of a subtree met first are numbered in
        one walk on an explicit stack, children first."""
        number = self.number
        n = number.get(id(node))
        if n is not None:
            return n
        order, todo = [], [node]
        while todo:
            e = todo.pop()
            if id(e) not in number:
                order.append(e)
                layout = sx._LAYOUT.get(type(e))
                if layout is not None:
                    todo += layout[0](e)
        self.kept += order
        table, bits, frees, loops = self.table, self.bits, self.frees, self.loops
        for e in reversed(order):
            if id(e) in number:
                continue
            t = type(e)
            layout = sx._LAYOUT.get(t)
            # anything that is no node gets a number of its own
            kids = [*map(number.__getitem__, map(id, layout[0](e)))] \
                if layout else []
            key = (t, layout[1](e), *kids) if layout else id(e)
            n = table.get(key)
            if n is None:
                n = table[key] = len(frees)
                names = 0
                for k in kids:
                    names |= frees[k]
                loop = names
                if t is Atom and len(kids) <= 2:
                    loop = 0
                    for a, k in zip(e.args, kids):
                        if type(a) is not Var:
                            loop |= frees[k]
                elif t is Var:
                    names = loop = bits.setdefault(e.name, 1 << len(bits))
                elif t is Not:
                    loop = loops[kids[0]]
                elif t is And or t is Or or t is Implies:
                    loop = loops[kids[0]] | loops[kids[1]]
                elif t is PredApp:
                    names = loop = names | bits.setdefault(_SEP + e.predvar,
                                                           1 << len(bits))
                elif t is Quant2:
                    names = loop = names & ~bits.get(_SEP + e.predvar, 0)
                elif t in sx._VAR_BINDERS:
                    names = loop = names & ~bits.get(e.var.name, 0)
                frees.append(names)
                loops.append(loop)
                rec = self.records
                rec.append(t in _RECORDS or any(map(rec.__getitem__, kids)) or
                           t is Quant and e.kind not in (sx.FORALL, sx.EXISTS))
            number[id(e)] = n
        return number[id(node)]


class _Region:
    """One generated function: the entry, an element loop over `slot` (the
    ordered form reads its element, or a predicate variable's subset mask,
    as the local `var`, and the mask form its bit as `bit`), a
    short-circuit's right operand or a choice term being written.  Its lines
    are (local or None, text, locals read); the locals it reads and does not
    define are its parameters.  A line moves out of a mask loop whose slot
    it does not read, but not past `stop`, the nearest region that is not a
    mask loop: an ordered loop runs its lines on each element in turn."""

    __slots__ = ("parent", "slot", "var", "bit", "lines", "reads", "depth",
                 "stop")

    def __init__(self, parent, slot=None, var=None, bit=None, ordered=False):
        self.parent, self.slot, self.var, self.bit = parent, slot, var, bit
        self.lines, self.reads = [], {}
        self.depth = parent.depth + 1 if parent else 0
        self.stop = self if slot is None or ordered else parent.stop

    def within(self, reg):
        """Whether this region is reg or nested in it."""
        if reg.parent is None:
            return True         # the entry holds every region
        inner = self
        while inner.depth > reg.depth:
            inner = inner.parent
        return inner is reg


class _Emitter:
    """Writes a formula or term out as Python source in form `mode` and
    compiles it.

    Each node gets one local, written in the outermost region whose loops
    bind every slot it reads.  The values of d, the shapes' attributes and
    free names are read once, at the entry, as is each closed pick of the
    mask form; STRICT reads each where the semantics does instead.  An element
    loop and the right operand of a short-circuit are functions of their
    own; a short-circuit whose value its function returns instead returns
    early when its left operand settles it, so a right-nested chain is one
    function.  Flags and witnesses are statements, written where the
    ordered form reaches them, and nothing moves out of an ordered loop.
    A choice term is keyed by its value number (_Numbers) and the loops
    that bind its free names, so the mask form writes a copy once for
    each binding; a connective of two operands that each need an element
    loop over the slot is written in one loop, its right operand a
    short-circuit there, so copies in both operands meet.
    The mask form writes a term as the bit of its element's position in
    the domain of a sort the reader names (term), the ordered form as the
    element.
    The walk keeps its pending work on one stack (todo) and the locals of
    finished nodes on another (vals).  A scope is a chain of links (name,
    slot, sort of the elements or of a predicate variable's subsets, outer
    scope)."""

    def __init__(self, mode):
        self.mode, self.strict = mode, mode == STRICT
        # how the keys of the shapes it reads start (dom)
        self.shape_key = ("seq" if self.strict else "dom") + _SEP
        self.named = {}         # id(node) -> (its index in T, node)
        self.frees = []         # (Environment field, name) per free name
        self.entry = {}         # key, attribute or env index -> entry local
        self.root = _Region(None)
        # the run function's parameters, which STRICT reads where it needs
        self.home = dict.fromkeys(("d", "env"), self.root)
        self.deps = {"d": 0, "env": _FREE}      # local -> slots read
        self.defs = []          # source of each helper function
        # (value number, loop regions binding its free names) of a choice
        # term written -> its local in the mask form, or the ordered
        # form's memo call of a closed one
        self.shared = {}
        self.values = _Numbers()
        self.loops = {}         # inner slot -> the loop region binding it
        self.memos = 0          # closed choice terms of the ordered form
        self.count = 0
        self.todo, self.vals = [], []

    def emit(self, node):
        """_run(d, env) of form self.mode: env holds the free names' values
        (name i at index -2 - i, the ordered form's _Rec at -1), and T, in
        its namespace, the nodes that witnesses and messages name."""
        if self.mode == TRUTH or sx.is_formula(node):
            self.formula(node, None, self.root, True)
        else:
            self.term(node, None, self.root)
        todo = self.todo
        while todo:
            fn, *args = todo.pop()
            fn(*args)
        out, = self.vals
        source = "\n".join(self.defs + ["def _run(d, env):"] + [
            "    " + (t if v is None else "%s = %s" % (v, t))
            for v, t, _ in self.root.lines] + ["    return " + out, ""])
        ns = dict(_GLOBALS, T=tuple(e for _, e in self.named.values()))
        exec(compile(source, "<mask form>" if self.mode == TRUTH else
                     "<ordered form>", "exec"), ns)
        return ns["_run"]

    def orders(self, e):
        """Whether e is written in the ordered form: every node in STRICT,
        in RECORD one that records (_Numbers), none in TRUTH.  So RECORD
        writes a formula with nothing to record as TRUTH does."""
        if self.mode != RECORD:
            return self.strict
        if type(e) is Atom:
            # the most common atom, of variables and constants, is not
            # numbered to ask
            for a in e.args:
                if type(a) is not Var and type(a) is not Const:
                    break
            else:
                return False
        return self.values.records[self.values.of(e)]

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

    def stmt(self, reg, text, *reads):
        """A statement in reg, where it is written."""
        reg.lines.append((None, text, reads))
        reg.reads.update(dict.fromkeys(reads))

    def combine(self, reg, template, n, *pre):
        self.vals.append(self.op(reg, template, *pre, *self.pop(n)))

    def pop(self, n):
        out = self.vals[len(self.vals) - n:]
        del self.vals[len(self.vals) - n:]
        return out

    def loop_region(self, reg, slot, ordered=False):
        """A loop over slot's elements: an ordered one binds the element and
        its bit, a mask loop the bit (or a subset's mask) alone."""
        bit = self.new("b")
        var = self.new("e") if ordered else bit
        loop = self.loops[slot] = _Region(reg, slot, var, bit, ordered)
        self.home[var] = self.home[bit] = loop
        self.deps[var] = self.deps[bit] = _bit(slot)
        return loop

    def close(self, reg, head, tail, pad="    "):
        """Write region reg out as a function: (its call, its parameters)."""
        params = [v for v in reg.reads if self.home[v] is not reg]
        name = "_f%d" % len(self.defs)
        self.defs.append("\n".join(
            ["def %s(%s):" % (name, ", ".join(params))] + head +
            [pad + (t if v is None else "%s = %s" % (v, t))
             for v, t, _ in reg.lines] + tail))
        return "%s(%s)" % (name, ", ".join(params)), params

    def bad(self, reg, message, node=None):
        """A node the semantics rejects, with message (`node` put in): the
        mask form and RECORD may raise it early, and STRICT runs again and
        raises it where the semantics meets it."""
        nodes = "" if node is None else ", T[%d]" % self.node(node)
        self.vals.append(self.put(reg, "_raise(%r%s)" % (message, nodes), ()))

    # -- what the entry reads once ----------------------------------------

    def at_entry(self, key, text, bits=0):
        v = self.entry.get(key)
        if v is None:
            v = self.entry[key] = self.new("n")
            self.root.lines.append((v, text, ()))
            self.home[v], self.deps[v] = self.root, bits
        return v

    def value(self, key, attr=""):
        """d[key], or its attribute or item `attr`."""
        if attr:
            return self.at_entry((key, attr), self.value(key) + attr)
        return self.at_entry(key, "d[%r]" % key)

    def read(self, reg, key, attr=""):
        """value(key, attr), which STRICT reads in reg, where it is used."""
        if not self.strict:
            return self.value(key, attr)
        return self.put(reg, "d[%r]%s" % (key, attr), ("d",))

    def rec(self):
        """The ordered form's _Rec."""
        return self.at_entry("rec", "env[-1]")

    def node(self, e):
        """The index in T of node e, which a witness or a message names."""
        return self.named.setdefault(id(e), (len(self.named), e))[0]

    def bind(self, scope, name, sort):
        """(slot, inner scope) of a binding of `name` to an element of
        `sort`, or, for a predicate variable, whose name starts with _SEP,
        to a subset of its domain."""
        slot = scope[1] + 1 if scope else 0
        return slot, (name, slot, sort, scope)

    def lookup(self, scope, name):
        """(slot, sort) of name's innermost binding; a free name gets the
        negative index of its value in env, and no sort."""
        while scope:
            if scope[0] == name:
                return scope[1], scope[2]
            scope = scope[3]
        key = ("predvars", name[1:]) if name[0] == _SEP else ("vars", name)
        if key not in self.frees:
            self.frees.append(key)
        return -2 - self.frees.index(key), None

    def binding(self, scope, names):
        """The loop regions that bind the names in mask `names` that scope
        binds, innermost first."""
        out, bits = [], self.values.bits
        while scope and names:
            bit = bits.get(scope[0], 0)
            if names & bit:
                out.append(self.loops[scope[1]])
                names &= ~bit
            scope = scope[3]
        return tuple(out)

    def dom(self, sort):
        """The key of sort's shape: STRICT reads any domain (`seq`), the
        other forms one that lists each element once (`dom`), whose
        positions are the bits they write terms as."""
        return self.shape_key + sort

    def sort_of(self, t, scope, named=True):
        """The sort over whose domain the mask form writes term t: a bound
        variable's binding's, a variable's, choice or generic term's own,
        else, with `named`, the one that the model's signature gives a
        constant or an application (_sort); "" for what is no term."""
        typ = type(t)
        if typ is Var:
            slot, sort = self.lookup(scope, t.name)
            return sort if slot >= 0 else t.sort
        if typ is Binder:
            return t.var.sort
        if typ is Generic or typ is GenericRestricted:
            return t.sort
        if not named:
            return None
        return "c:" + t.name if typ is Const else "f:" + t.func \
            if typ is App else ""

    def sorts(self, f, scope):
        """The sorts over which the mask form writes atom f's arguments: each
        its own, but both sides of an equation over one."""
        if f.pred == sx.EQ and len(f.args) == 2:
            a, b = f.args
            sort = self.sort_of(a, scope, False) or self.sort_of(b, scope)
            return sort, sort
        return [self.sort_of(a, scope) for a in f.args]

    def name(self, scope, name, reg):
        """Local of a variable or a predicate variable: a bound slot's,
        else what env holds at its index.  An unbound free name fails at the
        entry, and in STRICT raises where it is read."""
        slot, _ = self.lookup(scope, name)
        if slot >= 0:
            return self.loops[slot].var
        if self.strict:
            v = self.put(reg, "env[%d]" % slot, ("env",))
        elif slot in self.entry:
            return self.entry[slot]
        else:
            v, reg = self.at_entry(slot, "env[%d]" % slot, _FREE), self.root
        self.stmt(reg, "if %s is _U: _raise(%r)" % (v, "unbound " + (
            "predicate variable " + name[1:] if name[0] == _SEP else
            "variable " + name)), v)
        return v

    # -- formulas as booleans ---------------------------------------------

    def formula(self, f, scope, reg, tail=False):
        """Push the local of f's value; `tail` when that value is what reg,
        the entry or a right operand's function, returns."""
        t, todo = type(f), self.todo
        if t is Atom and _is_generic_atom(f):
            self.quant(_generic_quant(f), scope, reg)
        elif t is Atom:
            sorts = None if self.orders(f) else self.sorts(f, scope)
            todo.append((self.atom, f, reg, sorts))
            self.terms(f.args, scope, reg, sorts)
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
        elif t is Quant:
            self.bad(reg, "unknown quantifier kind %s" % f.kind)
        elif t is Quant2:
            self.quant2(f, scope, reg)
        elif t is PredApp:
            over = None
            if not self.orders(f):
                # a bound predicate variable's subsets are of its sort
                slot, over = self.lookup(scope, _SEP + f.predvar)
                if slot < 0:
                    over = self.sort_of(f.arg, scope)
            todo.append((self.member, f, scope, reg, over))
            todo.append((self.term, f.arg, scope, reg, over))
        else:
            self.bad(reg, "not a formula: %r", f)

    def atom(self, f, reg, sorts=None):
        """Atom f from its arguments' locals: elements, or in the mask form
        (`sorts` given) their bits over those sorts, which a unary
        predicate's mask, a binary one's row or the tuples of another
        arity test."""
        args = self.pop(len(f.args))
        n = len(args)
        if f.pred == sx.EQ:
            if n == 2:
                self.vals.append(self.op(reg, "%s == %s", *args))
            else:
                self.bad(reg, "= takes two arguments")
        elif sorts is None:
            ext = self.read(reg, _key("ext", f.pred))
            self.vals.append(self.op(reg, "(" + "%s, " * n + ") in %s",
                                     *args, ext))
        elif n == 1:
            self.vals.append(self.op(reg, "%s & %s != 0", self.value(
                _key("mask", f.pred, *sorts)), *args))
        elif n == 2:
            self.vals.append(self.op(reg, "%s[%s] & %s != 0", self.value(
                _key("row", f.pred, *sorts)), *args))
        else:
            self.vals.append(self.op(reg, "(" + "%s, " * n + ") in %s", *args,
                                     self.value(_key("tuples", f.pred, *sorts))))

    def guard(self, f, reg):
        left = self.vals.pop()
        self.stmt(reg, ("if not %s: return False" if type(f) is And else
                        "if %s: return True" if type(f) is Or else
                        "if not %s: return True") % left, left)

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
        """Quantifier f: its restriction's mask over the whole domain, then
        its body's on the restriction's elements, each by satisfy, so in
        the mask form when it records nothing."""
        slot, inner = self.bind(scope, f.var.name, f.var.sort)
        dk = self.dom(f.var.sort)
        self.todo.append((self.decide, f, dk, reg))
        self.todo.append((self.quant_body, f, inner, slot, reg))
        if f.restriction is not None:
            self.todo.append((self.satisfy, f.restriction, inner, slot,
                              f.var.sort, reg))

    def decide(self, f, dk, reg):
        """Quantifier f from its body's mask b and its restriction's a; the
        ordered form records a count's flag."""
        b = self.vals.pop()
        kind, op = f.kind, self.op
        if f.restriction is not None:
            a = self.vals.pop()
        elif kind != sx.EXISTS:             # exists reads b alone
            a = self.read(reg, dk, ".full")
        if kind == sx.FORALL:
            v = op(reg, "%s == %s", b, a) if f.restriction is None else \
                op(reg, "not %s & ~%s", a, b)
        elif kind == sx.EXISTS:
            v = op(reg, "%s != 0", b) if f.restriction is None else \
                op(reg, "%s & %s != 0", a, b)
        else:
            if f.restriction is not None:
                b = op(reg, "%s & %s", a, b)
            cfg = _key("cfg")
            counts = _COUNT_NAMES[kind] + "(%s.bit_count(), %s.bit_count(), %s, "
            star = kind in (sx.FORALL_STAR, sx.EXISTS_STAR)
            if star:
                # regime A reads them as forall and exists
                regime = self.read(reg, cfg, "[3]")
                v = op(reg, ("not %s & ~%s" if kind == sx.FORALL_STAR else
                             "%s & %s != 0") + " if %s == 'A' else " + counts + "None)",
                       a, b, regime, b, a, self.read(reg, cfg, "[0]"))
            else:
                theta = self.read(reg, cfg, "[1]" if kind == "many" else "[0]")
                if f.mode:
                    v = op(reg, counts + "%r)" % ("strict" if f.mode == "strict"
                                                  else "weak"), b, a, theta)
                else:
                    v = op(reg, counts + "%s)", b, a, theta,
                           self.read(reg, cfg, "[2]"))
            if self.orders(f):
                flag = (self.rec(), b, a) + ((regime,) if star else ())
                self.stmt(reg, "_counted(%s)" % ", ".join(flag), *flag)
        self.vals.append(v)

    def quant_body(self, f, scope, slot, reg):
        """f's body over the elements of its restriction (the mask on vals,
        or all), until it settles f.  In regime A a starred quantifier
        settles as forall and exists do."""
        early = None
        if f.kind in (sx.FORALL_STAR, sx.EXISTS_STAR) and self.orders(f.body):
            early = self.op(reg, "%s == 'A'", self.read(reg, _key("cfg"), "[3]"))
        self.satisfy(f.body, scope, slot, f.var.sort, reg, f.kind,
                     f.restriction and self.vals[-1], early)

    def satisfy(self, f, scope, slot, sort, reg, kind=None, a=None, early=None):
        """Push the mask of the elements of `sort` that satisfy f in `slot`:
        its mask form when it records nothing, else f tried on each element
        in domain order, those in mask a when given, until it settles
        quantifier `kind` (each)."""
        if not self.orders(f):
            self.mask(f, scope, slot, sort, reg)
            return
        loop = self.loop_region(reg, slot, True)
        self.todo.append((self.each, sort, reg, loop, kind, a, early))
        self.todo.append((self.formula, f, scope, loop))

    def each(self, sort, reg, loop, kind=None, a=None, early=None):
        """Close loop `loop`: the mask of the elements where the boolean on
        vals holds.  A mask loop whose boolean reads no element is that
        boolean's mask.  An ordered loop tries the elements in domain order,
        those in mask a when given, and returns once its value settles
        quantifier `kind` (a starred one when the local `early` holds)."""
        g = self.vals.pop()
        dk, bit = self.dom(sort), loop.bit
        if loop.stop is loop:
            seq = self.read(reg, dk, ".pairs")
            head = ["    out = 0", "    for %s, %s in %s:" % (loop.var, bit, seq)]
        elif self.deps[g] & _bit(loop.slot):
            seq = self.value(dk, ".ones")
            head = ["    out = 0", "    for %s in %s:" % (bit, seq)]
        else:
            self.vals.append(self.op(reg, "%s if %s else 0",
                                     self.value(dk, ".full"), g))
            return
        if a is not None:
            head.append("        if not %s & %s: continue" % (bit, a))
        if kind == sx.FORALL:
            tail = ["        if not %s: return out" % g, "        out |= " + bit]
        elif kind == sx.EXISTS:
            tail = ["        if %s: return %s" % (g, bit)]
        else:
            tail = ["        if %s:" % g, "            out |= " + bit]
            if kind == sx.FORALL_STAR:
                tail.append("        elif %s: return out" % early)
            elif kind == sx.EXISTS_STAR:
                tail.append("        if %s and %s: return out" % (g, early))
        loop.reads.update(dict.fromkeys(v for v in (seq, a, g, early) if v))
        call, params = self.close(loop, head, tail + ["    return out"],
                                  "        ")
        self.vals.append(self.put(reg, call, params))

    def quant2(self, f, scope, reg):
        """Second-order f: its body on each subset of its sort's domain, in
        itertools.combinations order, until one settles it."""
        dk = self.dom(f.sort)
        slot, inner = self.bind(scope, _SEP + f.predvar, f.sort)
        loop = self.loop_region(reg, slot, self.orders(f))
        self.todo.append((self.subsets, f, dk, reg, loop))
        self.todo.append((self.formula, f.body, inner, loop))

    def subsets(self, f, dk, reg, loop):
        g = self.vals.pop()
        shape = self.read(reg, dk)
        every = f.kind == sx.FORALL2
        loop.reads.update(dict.fromkeys((shape, g)))
        call, params = self.close(
            loop, ["    for %s in _subsets(%s):" % (loop.var, shape)],
            ["        if %s%s: return %s" % ("not " if every else "", g, not every),
             "    return %s" % every], "        ")
        self.vals.append(self.put(reg, call, params))

    def member(self, f, scope, reg, over):
        """Predicate variable application f, its argument's local on vals:
        the mask form (`over` given) tests the argument's bit against the
        subset's mask, over `over`'s domain for a free one."""
        e = self.vals.pop()
        name = _SEP + f.predvar
        slot, sort = self.lookup(scope, name)
        subset = self.name(scope, name, reg)
        if over is not None:
            if slot < 0:
                subset = self.at_entry((subset, over), "_mask(%s, %s)" % (
                    self.value(self.dom(over), ".bits"), subset), _FREE)
            v = self.op(reg, "%s & %s != 0", subset, e)
        elif slot >= 0:
            v = self.op(reg, "%s.get(%s, 0) & %s != 0",
                        self.read(reg, self.dom(sort), ".bits"), e, subset)
        else:
            v = self.op(reg, "%s in %s", e, subset)
        self.vals.append(v)

    # -- formulas as masks over the variable in `slot` ---------------------

    def mask(self, f, scope, slot, sort, reg):
        t, todo = type(f), self.todo
        dk = self.dom(sort)
        if t is Not:
            todo.append((self.combine, reg, "%s ^ %s", 1, self.value(dk, ".full")))
            todo.append((self.mask, f.body, scope, slot, sort, reg))
        elif (t is And or t is Or or t is Implies) and not (
                self.looped(f.left, scope[0]) and self.looped(f.right, scope[0])):
            # a connective of two element loops over the slot is one
            # loop, in the last branch, so copies in both meet in it
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
            sorts = self.sorts(f, scope)
            todo.append((self.direct_atom, f, scope, sort, reg, loop, sorts))
            self.terms(f.args, scope, loop, sorts)
        else:
            loop = self.loop_region(reg, slot)
            todo.append((self.each, sort, reg, loop))
            todo.append((self.formula, f, scope, loop))

    def looped(self, f, name):
        """Whether mask writes f with a loop over the elements of `name`."""
        values = self.values
        return bool(values.loops[values.of(f)] & values.bits.get(name, 0))

    def direct_atom(self, f, scope, sort, reg, loop, sorts):
        """An atom whose arguments are the slot's variable or do not read
        it is a predicate mask, row, column or diagonal, or an equality (the
        other side's bit); any other is tried on each element."""
        args = self.pop(len(f.args))
        at = [type(a) is Var and self.lookup(scope, a.name)[0] == loop.slot
              for a in f.args]
        given = [v for v, x in zip(args, at) if not x]
        if not any(at) or any(self.deps[v] & _bit(loop.slot) for v in given) \
                or f.pred == sx.EQ and len(args) != 2:
            self.vals += args
            self.atom(f, loop, sorts)
            self.each(sort, reg, loop)
            return
        if f.pred == sx.EQ:
            v = given[0] if given else self.value(self.dom(sort), ".full")
        elif len(args) == 1:
            v = self.value(_key("mask", f.pred, sort))
        elif not given:
            v = self.value(_key("diag", f.pred, sort))
        else:
            v = self.op(reg, "%s[%s]", self.value(_key(
                "row" if at[1] else "col", f.pred, *sorts)), *given)
        self.vals.append(v)

    # -- terms as elements or bits ------------------------------------------

    def terms(self, args, scope, reg, sorts=None):
        todo, term = self.todo, self.term
        for i in range(len(args) - 1, -1, -1):
            todo.append((term, args[i], scope, reg, sorts and sorts[i]))

    def term(self, t, scope, reg, over=None):
        """Push the local of term t: its element, or in the mask form
        (`over` given) the bit of its element's position in the domain of
        sort `over`.  A term of another sort fails there."""
        typ = type(t)
        if typ is Var:
            slot, sort = self.lookup(scope, t.name)
            if over is not None and (sort if slot >= 0 else t.sort) != over:
                self.bad(reg, "a term of another sort than %s" % over)
            elif over is not None and slot >= 0:
                self.vals.append(self.loops[slot].bit)
            else:
                v = self.name(scope, t.name, reg)
                if over is not None:    # a free variable's element
                    v = self.at_entry((v, over), "%s[%s]" % (
                        self.value(self.dom(over), ".bits"), v), _FREE)
                self.vals.append(v)
        elif over is not None and self.sort_of(t, scope, False) not in (None, over):
            self.bad(reg, "a term of another sort than %s" % over)
        elif typ is Const:
            self.vals.append(self.read(reg, _key("const", t.name)) if over is None
                             else self.value(_key("bit", t.name, over)))
        elif typ is App:
            sorts = None if over is None else [self.sort_of(a, scope)
                                               for a in t.args]
            self.todo.append((self.app, t, reg, over, sorts))
            self.terms(t.args, scope, reg, sorts)
        elif typ is Binder or typ is GenericRestricted:
            self.choice(t, scope, reg)
        elif typ is Generic:
            self.vals.append(self.put(reg, *self.least(t.sort, over is not None)))
        else:
            self.bad(reg, "not a term: %r", t)

    def app(self, t, reg, over, sorts):
        """Function application t from its arguments' locals: the mask form
        reads a table keyed by their bits, over `sorts`; STRICT names the
        gap it meets."""
        n = len(t.args)
        args = self.pop(n)
        if over is not None:
            table = self.value(_key("map", t.func, *sorts, over))
            self.vals.append(self.op(reg, "%s[%s]" if n == 1 else
                                     "%s[(" + "%s, " * n + ")]", table, *args))
        elif self.strict:
            self.vals.append(self.put(reg, "_app(d[%r], (%s), T[%d])" % (
                _key("fn", t.func), "%s, " * n % tuple(args), self.node(t)),
                ("d", *args)))
        else:
            self.vals.append(self.op(reg, "%s[(" + "%s, " * n + ")]",
                                     self.value(_key("fn", t.func)), *args))

    def least(self, sort, bits=False):
        """(text, locals read) of the least element of `sort`, or with
        `bits` its bit, which on an empty domain raises where the text runs;
        STRICT reads the domain there too."""
        dk = self.dom(sort)
        if bits:
            full = self.value(dk, ".full")
            return "%s & 1 or _raise(%r)" % (
                full, "empty domain for sort %s" % sort), (full,)
        if self.strict:
            return "_least(d[%r].elems, %r)" % (dk, sort), ("d",)
        elems = self.value(dk, ".elems")
        return elems + "[0]", (elems,)

    def choice(self, t, scope, reg):
        """Choice or restricted generic term t: its body's or restriction's
        satisfiers, written in a region of its own, then its pick.  The
        mask form reads the local of a copy written under the same binding
        in reg or a region enclosing it, and the ordered form calls the memo
        of a closed one."""
        n = self.values.of(t)
        key = n, self.binding(scope, self.values.frees[n])
        hit = self.shared.get(key)
        if hit is not None and self.orders(t):
            self.vals.append(self.put(reg, *hit))
            return
        if hit is not None and reg.within(self.home[hit]):
            self.vals.append(hit)
            return
        binder, ordered = type(t) is Binder, self.orders(t)
        if binder and t.kind not in sx.BINDER_KINDS:
            # the semantics reads the domain first: raise where it is empty
            text, reads = self.least(t.var.sort, not ordered)
            self.stmt(reg, text, *reads)
            self.bad(reg, "unknown binder kind %s" % t.kind)
            return
        slot, inner = self.bind(scope, t.var.name, t.var.sort)
        choice = _Region(reg)
        dk = self.dom(t.var.sort)
        self.todo.append((self.pick, t, key, dk, self.read(
            choice, dk, ".elems") if ordered else None, reg, choice))
        self.satisfy(t.body if binder else t.restriction, inner, slot,
                     t.var.sort, choice)

    def pick(self, t, key, dk, elems, reg, choice):
        """Term t from the mask of its satisfiers on vals: eps and eta the
        lowest set bit, tau the lowest clear bit, iota the only set bit, a
        generic term its first satisfier, and with none the least element of
        its sort.  The mask form picks the bit; the ordered form, which
        reads the domain's elements as the local `elems`, picks the element,
        records a choice term's pick as a witness, and flags an iota term
        without exactly one satisfier and a generic term without any.  The mask form keeps the pick's local
        under `key` and writes one that reads no bound slot or free name at
        the entry.  The ordered form keeps only such a pick, as a function
        of its own that picks once per call and, met again, replays the
        witnesses its pick recorded."""
        m = self.vals.pop()
        binder = type(t) is Binder
        rec = self.rec() if self.orders(t) else None
        # with no satisfier a generic term takes its own sort's least
        # element, whose domain STRICT reads only then
        least, reads = self.least(t.var.sort if binder else t.sort, not elems)
        iota = binder and t.kind == sx.IOTA
        if binder and t.kind == sx.TAU:
            m = self.op(choice, "%s ^ %s", self.read(choice, dk, ".full"), m)
        elif iota and elems:    # only when exactly one bit is set
            m = self.op(choice, "%s if %s and not %s & (%s - 1) else 0",
                        m, m, m, m)
            if rec:
                self.stmt(choice, "if not %s: %s.flag(%r)" % (m, rec, FLAG_IOTA),
                          m, rec)
        if elems:
            v = self.put(choice, "%s[(%s & -%s).bit_length() - 1] if %s else %s"
                         % (elems, m, m, m, least), (elems, m, *reads))
        elif iota:              # the only set bit is the pick
            v = self.put(choice, "%s if %s and not %s & (%s - 1) else %s" % (
                m, m, m, m, least), (m, *reads))
        else:                   # the lowest set bit
            v = self.put(choice, "%s & -%s or %s" % (m, m, least), (m, *reads))
        if rec and binder:
            self.stmt(choice, "%s.witnesses.append((T[%d], %s))" % (
                rec, self.node(t), v), rec, v)
        elif rec:
            self.stmt(choice, "if not %s: %s.flag(%r)" % (
                m, rec, FLAG_PRESUPPOSITION), m, rec)
        if rec and not self.deps[v]:
            at, self.memos = self.memos, self.memos + 1
            choice.reads[rec] = None
            self.shared[key] = self.close(choice, [
                "    hit = %s.chosen[%d]" % (rec, at),
                "    if hit is not _U: return _replay(%s, hit)" % rec,
                "    start = len(%s.witnesses)" % rec], [
                "    %s.chosen[%d] = %s, start, len(%s.witnesses)" % (
                    rec, at, v, rec),
                "    return " + v])
            self.vals.append(self.put(reg, *self.shared[key]))
            return
        home = reg if self.deps[v] else self.root
        for line in choice.lines:
            if line[0] is None:
                self.stmt(home, line[1], *line[2])
            else:
                self.place(home, *line)
        if not rec:
            self.shared[key] = v
        self.vals.append(v)


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
    """(run, free names, number of closed choice terms the ordered form
    memoizes) of a formula in form `mode`, or of a formula or term in an
    ordered form; cached on the node, to live and die with it.  A node equal
    to one emitted in this mode before, by node_key, so by ==, gets that
    one's code, which names that one's nodes.  run(d, values) takes a
    model's derived values, or their _Lazy view, and the free names'
    values, with the ordered form's _Rec last."""
    key = sx.node_key(node, (mode,))
    code = _codes.take(key)
    if code is None:
        emitter = _Emitter(mode)
        run = emitter.emit(node)
        code = _Code((run, tuple(emitter.frees), emitter.memos))
        _codes.put(key, code)
    try:
        object.__setattr__(node, _CODE[mode], code)
    except (AttributeError, TypeError):
        pass
    return code


def _bound(frees, env):
    """The values of the free names from env, the last first, so that
    free name i is at index -2 - i once one more item follows; _UNSET for
    an unbound one, and the code raises where it reads it."""
    if env is None:
        return (_UNSET,) * len(frees)
    return tuple(next((e for n, e in getattr(env, field) if n == name), _UNSET)
                 for field, name in reversed(frees))


def truth(model, f, env=None):
    """Truth of formula f in model by its mask form, run on the model's
    derived values and, when a read misses, once more on their view; what
    the mask form raises sends the call to the ordered form (STRICT)."""
    try:
        run_f, frees, _ = f._truth_code
    except (AttributeError, TypeError):
        # not compiled yet, or a pickled node's "not compiled" mark
        run_f, frees, _ = compile_formula(f)
    try:
        # the ordered form's _Rec takes the last place
        values = _bound(frees, env) + (None,) if frees else ()
        try:
            return run_f(model._derived, values)
        except KeyError:
            # a value not derived yet, or a gap the second run meets again;
            # the code is pure, so running it again is safe
            return run_f(_Lazy(model), values)
    except _RETRY:
        return ordered(model, f, env, STRICT)[0]


def ordered(model, node, env, mode):
    """(value, _Rec) of a formula or term by its ordered code in `mode`
    (RECORD or STRICT), run on the view of the model's derived values."""
    code = getattr(node, _CODE[mode], _UNSET)
    if code is _UNSET:
        code = compile_formula(node, mode)
    run_f, frees, memos = code
    rec = _Rec(memos)
    return run_f(_Lazy(model), _bound(frees, env) + (rec,)), rec


def record(model, node, env=None):
    """(value, _Rec) of a formula or term in the order of the semantics,
    with its flags and witnesses."""
    try:
        return ordered(model, node, env, RECORD)
    except _RETRY:
        return ordered(model, node, env, STRICT)
