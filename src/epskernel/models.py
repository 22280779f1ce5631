"""Finite many-sorted models and evaluation.

Choice policies (all deterministic, driven by the per-sort total order,
which is the listing order of the model file):

  eps  x. F   least element satisfying F; the sort's least element if none.
  tau  x. F   least element falsifying F; the sort's least element if none.
  iota x. F   the unique satisfier when existence and uniqueness hold,
              otherwise the least element plus an undetermination flag.
  eta  x. F   least satisfier outside the environment's excluded set,
              falling back to the eps policy.

"most" is measure-based: measure(restriction-and-body) / measure(restriction)
compared against the threshold, strictly or weakly per majority mode.  Both
measures (count and density) are proportional to the number of elements, so
the ratio is hits / total, and most, many, forall* and exists* are count
predicates of (hits, total, theta, mode): compiled.COUNT_TESTS, which the
tree walk, the compiled code and classify_quantifier share.

Evaluation policy:

  truth          runs the formula's compiled code (compiled.py): the formula
                 is compiled once into closures over bitmasks, that code is
                 kept on the formula node and reused for every model.
  eval_formula,  the reference tree walk (_Evaluator), which also records
  eval_term      flags and witnesses.

truth falls back to the tree walk, as a whole, for
  - a formula with a Quant2 or PredApp node, a free variable, or a node or
    kind the compiler does not know;
  - a non-empty environment;
  - a model that interprets one of the formula's predicates as a builtin,
    lacks one of its sorts, constants, functions or predicates, or has an
    empty domain for one of its sorts;
  - a call that meets an App term the model leaves undefined, since the tree
    walk's short-circuiting decides whether that raises EvalError;
  - a formula nested too deep to compile or run.
Both paths give the same value or raise the same error on every input
(tests/test_compiled.py).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import compiled
from . import syntax as sx
from .compiled import COUNT_TESTS, as_rational
from .parser import print_term
from .syntax import (Atom, And, App, Binder, Const, Generic, GenericRestricted,
                     Implies, Not, Or, PredApp, Quant, Quant2, Signature, Var)


class EvalError(Exception):
    """Raised for hard evaluation failures (ill-sorted input, unknown symbol)."""


class EnumerationBound(Exception):
    """Raised when a model enumeration would exceed its combinatorial budget."""

    def __init__(self, estimate, budget):
        self.estimate = estimate
        self.budget = budget
        super().__init__("enumeration would produce about %d models (budget %d)"
                         % (estimate, budget))


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


BUILTIN_PREDS = {
    "prime": lambda n: _is_prime(int(n)),
    "even": lambda n: int(n) % 2 == 0,
    "odd": lambda n: int(n) % 2 == 1,
}


@dataclass(frozen=True)
class Model:
    signature: Signature
    domains: dict                  # sort -> ordered list of elements
    preds: dict = field(default_factory=dict)      # name -> frozenset of tuples
    builtins: dict = field(default_factory=dict)   # name -> builtin name
    consts: dict = field(default_factory=dict)     # name -> element
    funcs: dict = field(default_factory=dict)      # name -> {arg tuple: element}
    measure: dict = field(default_factory=dict)    # sort -> ("count",)|("density", N)
    most_threshold: Fraction = Fraction(1, 2)
    many_threshold: Fraction = Fraction(2, 5)
    majority_mode: str = "strict"
    star_regime: str = "B"
    # masks and lookups derived for compiled truth; replace() starts afresh
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def domain(self, sort):
        try:
            return self.domains[sort]
        except KeyError:
            raise EvalError("model has no sort %s" % sort)

    def pred_holds(self, name, args):
        if name in self.builtins:
            fn = BUILTIN_PREDS.get(self.builtins[name])
            if fn is None:
                raise EvalError("unknown builtin predicate @%s" % self.builtins[name])
            return fn(*args)
        try:
            return tuple(args) in self.preds[name]
        except KeyError:
            raise EvalError("model does not interpret predicate %s" % name)


class Environment:
    """Immutable evaluation environment; binding builds a new one.
    Plain slotted class: bind() is the hottest call in model checking."""

    __slots__ = ("vars", "predvars", "eta_excluded")

    def __init__(self, vars=(), predvars=(), eta_excluded=frozenset()):
        self.vars = vars                # ((name, element), ...)
        self.predvars = predvars        # ((name, frozenset of elements), ...)
        self.eta_excluded = eta_excluded

    def lookup(self, name):
        for n, e in self.vars:
            if n == name:
                return e
        raise EvalError("unbound variable %s" % name)

    def lookup_pred(self, name):
        for n, s in self.predvars:
            if n == name:
                return s
        raise EvalError("unbound predicate variable %s" % name)

    def bind(self, name, elem):
        return Environment(((name, elem),) + self.vars, self.predvars,
                           self.eta_excluded)

    def bind_pred(self, name, subset):
        return Environment(self.vars,
                           ((name, frozenset(subset)),) + self.predvars,
                           self.eta_excluded)

    def exclude(self, elems):
        return Environment(self.vars, self.predvars,
                           self.eta_excluded | frozenset(elems))


@dataclass
class EvalResult:
    value: object            # bool for formulas, element for terms
    flags: list
    witnesses: list          # (term text, chosen element) per binder evaluated


FLAG_IOTA = "iota-undetermined"
FLAG_PRESUPPOSITION = "presupposition-failure"
FLAG_EMPTY_RESTRICTION = "empty-restriction"


class _Evaluator:
    def __init__(self, model, record=True):
        self.m = model
        self.record = record
        self.flags = []
        self.witnesses = []
        # id(term) -> (term, ...); holding the term keeps its id from
        # being reused by another term while this evaluator lives
        self._choice_cache = {}   # closed eps/tau term -> element, and the
                                  # witnesses[start:end] it appended
        self._closed = {}         # term -> bool

    def _is_closed(self, t):
        """No free individual or predicate variable: t picks the same
        element, with the same witnesses and flags, wherever it occurs in
        one evaluation."""
        hit = self._closed.get(id(t))
        if hit is None or hit[0] is not t:
            closed = not sx.free_vars(t) and not sx.free_predvars(t)
            hit = self._closed[id(t)] = (t, closed)
        return hit[1]

    def flag(self, f):
        if f not in self.flags:
            self.flags.append(f)

    # -- terms ------------------------------------------------------------

    def term(self, t, env):
        if isinstance(t, Var):
            return env.lookup(t.name)
        if isinstance(t, Const):
            try:
                return self.m.consts[t.name]
            except KeyError:
                raise EvalError("model does not interpret constant %s" % t.name)
        if isinstance(t, App):
            args = tuple(self.term(a, env) for a in t.args)
            try:
                return self.m.funcs[t.func][args]
            except KeyError:
                raise EvalError("function %s undefined at %r" % (t.func, args))
        if isinstance(t, Binder):
            return self._binder(t, env)
        if isinstance(t, Generic):
            return self.m.domain(t.sort)[0]
        if isinstance(t, GenericRestricted):
            sat = self._satisfiers(t.var, t.restriction, env)
            if not sat:
                self.flag(FLAG_PRESUPPOSITION)
                return self.m.domain(t.sort)[0]
            return sat[0]
        raise EvalError("not a term: %r" % (t,))

    def _satisfiers(self, var, body, env):
        return [e for e in self.m.domain(var.sort)
                if self.formula(body, env.bind(var.name, e))]

    def _binder(self, t, env):
        dom = self.m.domain(t.var.sort)
        if not dom:
            raise EvalError("empty domain for sort %s" % t.var.sort)
        # closed eps/tau choices do not depend on the environment; caching
        # them keeps nested embedded terms from going exponential.  A hit
        # replays the witnesses the first evaluation recorded, its own and
        # nested ones; its flags are already set.
        cacheable = t.kind in (sx.EPS, sx.TAU) and self._is_closed(t)
        if cacheable:
            hit = self._choice_cache.get(id(t))
            if hit is not None and hit[0] is t:
                _, chosen, start, end = hit
                self.witnesses.extend(self.witnesses[start:end])
                return chosen
        start = len(self.witnesses)
        if t.kind == sx.EPS:
            sat = self._satisfiers(t.var, t.body, env)
            chosen = sat[0] if sat else dom[0]
        elif t.kind == sx.TAU:
            bad = [e for e in dom if not self.formula(t.body, env.bind(t.var.name, e))]
            chosen = bad[0] if bad else dom[0]
        elif t.kind == sx.IOTA:
            sat = self._satisfiers(t.var, t.body, env)
            if len(sat) == 1:
                chosen = sat[0]
            else:
                self.flag(FLAG_IOTA)
                chosen = dom[0]
        elif t.kind == sx.ETA:
            sat = self._satisfiers(t.var, t.body, env)
            fresh = [e for e in sat if e not in env.eta_excluded]
            chosen = fresh[0] if fresh else (sat[0] if sat else dom[0])
        else:
            raise EvalError("unknown binder kind %s" % t.kind)
        if self.record:
            self.witnesses.append((t, chosen))
        if cacheable:
            self._choice_cache[id(t)] = (t, chosen, start, len(self.witnesses))
        return chosen

    # -- formulas ---------------------------------------------------------

    def formula(self, f, env):
        if isinstance(f, Atom):
            return self._atom(f, env)
        if isinstance(f, PredApp):
            return self.term(f.arg, env) in env.lookup_pred(f.predvar)
        if isinstance(f, Not):
            return not self.formula(f.body, env)
        if isinstance(f, And):
            return self.formula(f.left, env) and self.formula(f.right, env)
        if isinstance(f, Or):
            return self.formula(f.left, env) or self.formula(f.right, env)
        if isinstance(f, Implies):
            return (not self.formula(f.left, env)) or self.formula(f.right, env)
        if isinstance(f, Quant):
            return self._quant(f, env)
        if isinstance(f, Quant2):
            dom = self.m.domain(f.sort)
            subsets = _all_subsets(dom)
            if f.kind == sx.FORALL2:
                return all(self.formula(f.body, env.bind_pred(f.predvar, s))
                           for s in subsets)
            return any(self.formula(f.body, env.bind_pred(f.predvar, s))
                       for s in subsets)
        raise EvalError("not a formula: %r" % (f,))

    def _atom(self, f, env):
        # a unary atom over a most/many generic term is the generalized
        # quantifier in disguise: P(most:S) means "most x:S. P(x)"
        if len(f.args) == 1 and isinstance(f.args[0], (Generic, GenericRestricted)):
            g = f.args[0]
            if isinstance(g, Generic):
                x, restr = Var("x", g.sort), None
            else:
                x, restr = Var(g.var.name, g.sort), g.restriction
            return self._most(x, restr, Atom(f.pred, (x,)), env, kind=g.kind)
        args = tuple(self.term(a, env) for a in f.args)
        if f.pred == sx.EQ:
            return args[0] == args[1]
        return self.m.pred_holds(f.pred, args)

    def _restriction_elems(self, var, restriction, env):
        dom = self.m.domain(var.sort)
        if restriction is None:
            return list(dom)
        return [e for e in dom
                if self.formula(restriction, env.bind(var.name, e))]

    def _quant(self, f, env):
        if f.kind in (sx.FORALL, sx.EXISTS):
            elems = self._restriction_elems(f.var, f.restriction, env)
            if f.kind == sx.FORALL:
                return all(self.formula(f.body, env.bind(f.var.name, e))
                           for e in elems)
            return any(self.formula(f.body, env.bind(f.var.name, e))
                       for e in elems)
        if f.kind == sx.MOST:
            return self._most(f.var, f.restriction, f.body, env, mode=f.mode)
        if f.kind in (sx.FORALL_STAR, sx.EXISTS_STAR):
            return self._star(f, env)
        raise EvalError("unknown quantifier kind %s" % f.kind)

    def _counts(self, var, restriction, body, env):
        """(hits, total): how many of the restriction's elements satisfy
        the body, and how many elements the restriction has."""
        elems = self._restriction_elems(var, restriction, env)
        hits = sum(1 for e in elems
                   if self.formula(body, env.bind(var.name, e)))
        return hits, len(elems)

    def _most(self, var, restriction, body, env, mode=None, kind=sx.MOST):
        hits, total = self._counts(var, restriction, body, env)
        if total:
            self.flag("most-ratio %s" % Fraction(hits, total))
        else:
            self.flag(FLAG_EMPTY_RESTRICTION)
        theta = self.m.many_threshold if kind == "many" else self.m.most_threshold
        return COUNT_TESTS[sx.MOST](hits, total, as_rational(theta),
                                    mode or self.m.majority_mode)

    def _star(self, f, env):
        if self.m.star_regime == "A":
            # regime A: the starred quantifiers coincide with the classical
            # ones on finite models, keeping forall* stronger-or-equal
            plain = Quant(sx.FORALL if f.kind == sx.FORALL_STAR else sx.EXISTS,
                          f.var, f.restriction, f.body)
            return self._quant(plain, env)
        hits, total = self._counts(f.var, f.restriction, f.body, env)
        if not total:
            self.flag(FLAG_EMPTY_RESTRICTION)
        theta = as_rational(self.m.most_threshold)
        return COUNT_TESTS[f.kind](hits, total, theta, None)


def _all_subsets(dom):
    out = []
    for r in range(len(dom) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(dom, r))
    return out


def eval_term(model, env, t):
    """Evaluate a term; returns EvalResult with the chosen element."""
    ev = _Evaluator(model)
    return _result(ev, ev.term(t, env or Environment()))


def eval_formula(model, env, f):
    """Evaluate a formula; returns EvalResult with a boolean value."""
    ev = _Evaluator(model)
    return _result(ev, ev.formula(f, env or Environment()))


def _result(ev, value):
    # a copied or cached choice term is witnessed many times; print it once
    text = {id(w): w for w, _ in ev.witnesses}
    text = {k: print_term(w) for k, w in text.items()}
    return EvalResult(value, ev.flags, [(text[id(w)], e) for w, e in ev.witnesses])


def truth(model, f, env=None):
    """Truth value only, flags discarded.  Runs f's compiled code (see
    the module docstring for when it falls back to the tree walk)."""
    if env is None or not (env.vars or env.predvars or env.eta_excluded):
        try:
            return compiled.run(model, f)
        except compiled.Fallback:
            pass
    return _Evaluator(model, record=False).formula(f, env or Environment())


# ---------------------------------------------------------------------------
# square of oppositions


@dataclass(frozen=True)
class SquareReport:
    corners: dict            # name -> bool; All/Some/No/NotAll
    relations: dict          # relation name -> bool (holds in this model)
    existential_import: bool


def check_square(model, a, b, existential_import=False):
    """Evaluate the four Aristotelian corners for unary predicates a, b
    (same sort) and report which square relations hold in this model."""
    sig = model.signature
    sa, sb = sig.predicates.get(a), sig.predicates.get(b)
    if sa is None or sb is None or len(sa) != 1 or len(sb) != 1 or sa != sb:
        raise EvalError("square needs two unary predicates of one sort")
    sort = sa[0]
    x = Var("x", sort)
    ax, bx = Atom(a, (x,)), Atom(b, (x,))
    all_f = Quant(sx.FORALL, x, ax, bx)
    some_f = Quant(sx.EXISTS, x, ax, bx)
    if existential_import:
        all_f = And(all_f, Quant(sx.EXISTS, x, None, ax))
    some = truth(model, some_f)
    every = truth(model, all_f)
    corners = {"All": every, "Some": some, "No": not some, "NotAll": not every}
    relations = {
        "contradictory-A-O": corners["All"] != corners["NotAll"],
        "contradictory-E-I": corners["No"] != corners["Some"],
        "contrary-A-E": not (corners["All"] and corners["No"]),
        "subcontrary-I-O": corners["Some"] or corners["NotAll"],
        "subalternation-A-I": (not corners["All"]) or corners["Some"],
        "subalternation-E-O": (not corners["No"]) or corners["NotAll"],
    }
    return SquareReport(corners, relations, existential_import)


# ---------------------------------------------------------------------------
# quantifier classification


@dataclass(frozen=True)
class QuantifierProfile:
    name: str
    conservative: bool
    left_monotone: str       # "upward" | "downward" | "none"
    right_monotone: str
    symmetric: bool
    intersective: bool
    size_bound: int


# the named determiners as count predicates of (hits = |A∩B|, total = |A|,
# theta, mode); compiled.COUNT_TESTS holds the ones that read theta
DETERMINERS = {
    sx.FORALL: lambda hits, total, theta, mode: hits == total,
    sx.EXISTS: lambda hits, total, theta, mode: hits > 0,
    "no": lambda hits, total, theta, mode: hits == 0,
    **COUNT_TESTS,
}


def classify_quantifier(q, size_bound, theta=Fraction(1, 2), mode="strict"):
    """Classify a determiner over all (domain, A, B) with |domain| <= size_bound.

    `q` is a name in DETERMINERS, swept over van Benthem's number triangle
    at a cost quadratic in size_bound (see _classify_on_triangle), or a
    callable (dom, A, B) -> bool, swept over every pair of subsets of
    every domain."""
    if size_bound < 1:
        raise ValueError("size bound must be at least 1")
    if not callable(q):
        if q not in DETERMINERS:
            raise ValueError("unknown quantifier %r" % q)
        return _classify_on_triangle(q, size_bound, as_rational(theta), mode)
    fn, name = q, getattr(q, "__name__", "custom")

    conservative = symmetric = intersective = True
    left_up = left_down = right_up = right_down = True
    for n in range(1, size_bound + 1):
        dom = frozenset(range(n))
        subsets = _all_subsets(sorted(dom))
        for a in subsets:
            for b in subsets:
                v = fn(dom, a, b)
                if v != fn(dom, a, a & b):
                    conservative = False
                if v != fn(dom, b, a):
                    symmetric = False
                if v != fn(dom, a & b, a & b):
                    intersective = False
                if v:
                    for b2 in subsets:
                        if b <= b2 and not fn(dom, a, b2):
                            right_up = False
                        if b2 <= b and not fn(dom, a, b2):
                            right_down = False
                    for a2 in subsets:
                        if a <= a2 and not fn(dom, a2, b):
                            left_up = False
                        if a2 <= a and not fn(dom, a2, b):
                            left_down = False

    return QuantifierProfile(name, conservative,
                             _mono(left_up, left_down), _mono(right_up, right_down),
                             symmetric, intersective, size_bound)


def _classify_on_triangle(name, n, theta, mode):
    """The subset sweep's profile of a named determiner Q, read off its
    number triangle t[a][k], Q's value when a = |A| <= n and k = |A∩B|.

    Every cell is the type of a pair (A, B) at size n, and the value of Q
    on a pair depends on its cell alone.  So Q is conservative, since (A, B)
    and (A, A∩B) share a cell; symmetric iff intersective, since a pair with
    B inside A has Q(A, B) = t[a][k] and Q(B, A) = t[k][k]; and monotone in a
    direction iff every one-element move in that direction from a true cell
    to a cell reaches a true cell, since the subset sweep makes each such
    move at size n and each move it makes is a chain of them inside the
    triangle:
      right up    B gains an element of A-B        (a, k) -> (a, k+1)
      right down  B loses an element of A∩B        (a, k) -> (a, k-1)
      left up     A gains an element of B-A        (a, k) -> (a+1, k+1)
                  or one outside A∪B               (a, k) -> (a+1, k)
      left down   A loses an element of A∩B        (a, k) -> (a-1, k-1)
                  or one of A-B                    (a, k) -> (a-1, k)
    """
    test = DETERMINERS[name]
    t = [[test(k, a, theta, mode) for k in range(a + 1)] for a in range(n + 1)]
    cells = [(a, k) for a in range(n + 1) for k in range(a + 1)]
    true = [(a, k) for a, k in cells if t[a][k]]
    intersective = all(t[a][k] == t[k][k] for a, k in cells)
    right_up = all(k == a or t[a][k + 1] for a, k in true)
    right_down = all(k == 0 or t[a][k - 1] for a, k in true)
    left_up = all(a == n or (t[a + 1][k + 1] and t[a + 1][k]) for a, k in true)
    left_down = all((k == 0 or t[a - 1][k - 1]) and (k == a or t[a - 1][k])
                    for a, k in true)
    return QuantifierProfile(name, True,
                             _mono(left_up, left_down), _mono(right_up, right_down),
                             intersective, intersective, n)


def _mono(up, down):
    if up and down:
        return "both"
    if up:
        return "upward"
    if down:
        return "downward"
    return "none"


# ---------------------------------------------------------------------------
# brute-force model enumeration


def count_models(sig, max_size):
    """Estimated number of models enumerate_models would yield."""
    total = 0
    sorts = sorted(sig.sorts)
    for sizes in itertools.product(range(1, max_size + 1), repeat=len(sorts)):
        by_sort = dict(zip(sorts, sizes))
        n = 1
        for p, args in sig.predicates.items():
            cells = 1
            for s in args:
                cells *= by_sort[s]
            n *= 2 ** cells
        for c, s in sig.constants.items():
            n *= by_sort[s]
        for fname, (args, res) in sig.functions.items():
            cells = 1
            for s in args:
                cells *= by_sort[s]
            n *= by_sort[res] ** cells
        total += n
    return total


def enumerate_models(sig, max_size, budget=2_000_000, **config):
    """Yield every model of `sig` with per-sort domains of size 1..max_size,
    in a fixed deterministic order.  Raises EnumerationBound when the
    estimated count exceeds `budget`.  Extra keyword arguments become
    model configuration (thresholds, majority mode, star regime)."""
    if sig.integer_sort is not None:
        raise EvalError("cannot enumerate models of a density signature")
    estimate = count_models(sig, max_size)
    if estimate > budget:
        raise EnumerationBound(estimate, budget)

    sorts = sorted(sig.sorts)
    preds = sorted(sig.predicates)
    consts = sorted(sig.constants)
    funcs = sorted(sig.functions)
    for sizes in itertools.product(range(1, max_size + 1), repeat=len(sorts)):
        domains = {s: ["%s%d" % (s.lower(), i + 1) for i in range(k)]
                   for s, k in zip(sorts, sizes)}
        pred_spaces = []
        for p in preds:
            cells = list(itertools.product(*(domains[s] for s in sig.predicates[p])))
            pred_spaces.append([frozenset(c) for c in _all_subsets(cells)])
        const_spaces = [domains[sig.constants[c]] for c in consts]
        func_spaces = []
        for fname in funcs:
            args, res = sig.functions[fname]
            cells = list(itertools.product(*(domains[s] for s in args)))
            tables = [dict(zip(cells, vals))
                      for vals in itertools.product(domains[res], repeat=len(cells))]
            func_spaces.append(tables)
        for choice in itertools.product(*pred_spaces, *const_spaces, *func_spaces):
            pext = dict(zip(preds, choice[:len(preds)]))
            cext = dict(zip(consts, choice[len(preds):len(preds) + len(consts)]))
            fext = dict(zip(funcs, choice[len(preds) + len(consts):]))
            yield Model(signature=sig, domains=domains, preds=pext,
                        consts=cext, funcs=fext, **config)
