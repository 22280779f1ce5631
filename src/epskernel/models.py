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
evaluator and classify_quantifier share.

One evaluator (compiled.py) runs every formula and term from code compiled
once per node.  truth runs its mask form, for the value only.  eval_formula
and eval_term run its ordered form: elements in domain order, connectives
left to right with short-circuit, a restriction over its whole domain
before the body, a count's body on every restriction element.  It records
flags and witnesses in that order, and raises EvalError (a function's gap,
a missing symbol, an empty domain, an unbound variable) where that order
meets it.  An integer sort's domain is a range, never materialised per
element.  tests/eval_oracle.py keeps the tree walk both are checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import compiled
from . import syntax as sx
from .compiled import (BUILTIN_PREDS, COUNT_TESTS, FLAG_EMPTY_RESTRICTION,
                       FLAG_IOTA, FLAG_PRESUPPOSITION, EvalError, as_rational,
                       truth)
from .parser import print_term
from .syntax import Atom, And, Quant, Signature, Var


class EnumerationBound(Exception):
    """Raised when a model enumeration would exceed its combinatorial budget."""

    def __init__(self, estimate, budget):
        self.estimate = estimate
        self.budget = budget
        super().__init__("enumeration would produce about %d models (budget %d)"
                         % (estimate, budget))


@dataclass(frozen=True)
class Model:
    signature: Signature
    domains: dict                  # sort -> sequence of elements, in order
    preds: dict = field(default_factory=dict)      # name -> frozenset of tuples
    builtins: dict = field(default_factory=dict)   # name -> builtin name
    consts: dict = field(default_factory=dict)     # name -> element
    funcs: dict = field(default_factory=dict)      # name -> {arg tuple: element}
    measure: dict = field(default_factory=dict)    # sort -> ("count",)|("density", N)
    most_threshold: Fraction = Fraction(1, 2)
    many_threshold: Fraction = Fraction(2, 5)
    majority_mode: str = "strict"
    star_regime: str = "B"
    # masks and lookups derived for the evaluator; replace() starts afresh
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def domain(self, sort):
        try:
            return self.domains[sort]
        except KeyError:
            raise EvalError("model has no sort %s" % sort)

    def pred_holds(self, name, args):
        return tuple(args) in compiled.extension(self, name)


class Environment:
    """Immutable evaluation environment; binding builds a new one."""

    __slots__ = ("vars", "predvars", "eta_excluded")

    def __init__(self, vars=(), predvars=(), eta_excluded=frozenset()):
        self.vars = vars                # ((name, element), ...)
        self.predvars = predvars        # ((name, frozenset of elements), ...)
        self.eta_excluded = eta_excluded

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


def _all_subsets(dom):
    out = []
    for r in range(len(dom) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(dom, r))
    return out


def eval_term(model, env, t):
    """Evaluate a term; returns EvalResult with the chosen element."""
    return _result(*compiled.record(model, t, env))


def eval_formula(model, env, f):
    """Evaluate a formula; returns EvalResult with a boolean value."""
    return _result(*compiled.record(model, f, env))


def _result(value, rec):
    # a copied or cached choice term is witnessed many times; print it once
    text = {id(w): w for w, _ in rec.witnesses}
    text = {k: print_term(w) for k, w in text.items()}
    return EvalResult(value, rec.flags, [(text[id(w)], e) for w, e in rec.witnesses])


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
