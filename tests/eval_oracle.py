"""The tree walk that evaluated formulas and terms before the compiled
evaluator ran them all, kept as the differential oracle for
tests/test_compiled.py and tests/test_evaluator.py.

_Evaluator walks the syntax tree with an Environment, element by element,
and records flags and witnesses as it goes.  Its values, flags, witnesses
and errors are the reference; its speed is not.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from epskernel import syntax as sx
from epskernel.compiled import COUNT_TESTS, as_rational
from epskernel.models import (FLAG_EMPTY_RESTRICTION, FLAG_IOTA,
                              FLAG_PRESUPPOSITION, Environment, EvalError,
                              EvalResult)
from epskernel.parser import print_term
from epskernel.syntax import (Atom, App, And, Binder, Const, Generic,
                              GenericRestricted, Implies, Not, Or, PredApp,
                              Quant, Quant2, Var)


def _lookup(bindings, name, message):
    for n, v in bindings:
        if n == name:
            return v
    raise EvalError(message % name)


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
            return _lookup(env.vars, t.name, "unbound variable %s")
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
            return self.term(f.arg, env) in _lookup(
                env.predvars, f.predvar, "unbound predicate variable %s")
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


def truth(model, f, env=None):
    """Truth value only, flags discarded."""
    return _Evaluator(model, record=False).formula(f, env or Environment())


def _result(ev, value):
    # a copied or cached choice term is witnessed many times; print it once
    text = {id(w): w for w, _ in ev.witnesses}
    text = {k: print_term(w) for k, w in text.items()}
    return EvalResult(value, ev.flags, [(text[id(w)], e) for w, e in ev.witnesses])
