"""The sort checker that well_sorted and term_sort ran before one walk
decided the sorts of terms and formulas, kept as the differential oracle
for tests/test_sorts.py.

_check_term and _check are parallel walks over terms and formulas;
term_sort reads a term's sort without walking it.  Their diagnostics, in
their order, and term_sort's sorts and SortError messages are the
reference.
"""

from __future__ import annotations

from epskernel.syntax import (EQ, MOST, QUANT_KINDS, App, Atom, And, Binder,
                              Const, Generic, GenericRestricted, Implies, Not,
                              Or, PredApp, Quant, Quant2, SortError, Var,
                              free_vars, is_term)


def term_sort(t, sig):
    """Sort of a term under `sig`; raises SortError for unknown symbols."""
    if isinstance(t, Var):
        return t.sort
    if isinstance(t, Const):
        try:
            return sig.constants[t.name]
        except KeyError:
            raise SortError("unknown constant %s" % t.name)
    if isinstance(t, App):
        try:
            return sig.functions[t.func][1]
        except KeyError:
            raise SortError("unknown function %s" % t.func)
    if isinstance(t, Binder):
        return t.var.sort
    if isinstance(t, (Generic, GenericRestricted)):
        return t.sort
    raise SortError("not a term: %r" % (t,))



def well_sorted(e, sig, env=None, predvars=None):
    """Check sorts; returns a list of error strings (empty means ok).

    Never raises on malformed input: every problem becomes a diagnostic.
    `env` maps in-scope variable names to sorts, `predvars` maps in-scope
    predicate-variable names to their argument sort.
    """
    errs = []
    if is_term(e):
        _check_term(e, sig, dict(env or {}), dict(predvars or {}), errs)
    else:
        _check(e, sig, dict(env or {}), dict(predvars or {}), errs)
    return errs


def _check_term(t, sig, env, predvars, errs):
    """Returns the term's sort, or None when it cannot be determined."""
    if isinstance(t, Var):
        s = env.get(t.name)
        if s is None:
            if t.sort not in sig.sorts:
                errs.append("variable %s has undeclared sort %s" % (t.name, t.sort))
            return t.sort
        if s != t.sort:
            errs.append("variable %s used at sort %s but bound at %s"
                        % (t.name, t.sort, s))
        return s
    if isinstance(t, Const):
        s = sig.constants.get(t.name)
        if s is None:
            errs.append("unknown constant %s" % t.name)
        return s
    if isinstance(t, App):
        decl = sig.functions.get(t.func)
        if decl is None:
            errs.append("unknown function %s" % t.func)
            for a in t.args:
                _check_term(a, sig, env, predvars, errs)
            return None
        args, res = decl
        if len(args) != len(t.args):
            errs.append("function %s expects %d arguments, got %d"
                        % (t.func, len(args), len(t.args)))
        for i, (a, want) in enumerate(zip(t.args, args)):
            got = _check_term(a, sig, env, predvars, errs)
            if got is not None and got != want:
                errs.append("argument %d of %s has sort %s, expected %s"
                            % (i + 1, t.func, got, want))
        return res
    if isinstance(t, Binder):
        if t.var.sort not in sig.sorts:
            errs.append("binder variable %s has undeclared sort %s"
                        % (t.var.name, t.var.sort))
        inner = dict(env)
        inner[t.var.name] = t.var.sort
        _check(t.body, sig, inner, predvars, errs)
        return t.var.sort
    if isinstance(t, Generic):
        if t.sort not in sig.sorts:
            errs.append("generic term has undeclared sort %s" % t.sort)
        return t.sort
    if isinstance(t, GenericRestricted):
        if t.sort not in sig.sorts:
            errs.append("generic term has undeclared sort %s" % t.sort)
        if t.var.sort != t.sort:
            errs.append("restriction variable %s of generic term must have sort %s"
                        % (t.var.name, t.sort))
        inner = dict(env)
        inner[t.var.name] = t.var.sort
        _check(t.restriction, sig, inner, predvars, errs)
        extra = {x for x in free_vars(t.restriction) if x != t.var}
        # restriction must have exactly the designated free variable
        for x in extra:
            if x.name not in env:
                errs.append("restriction of generic term has stray free variable %s"
                            % x.name)
        return t.sort
    errs.append("not a term: %r" % (t,))
    return None


def _check(f, sig, env, predvars, errs):
    if isinstance(f, Atom):
        if f.pred == EQ:
            if len(f.args) != 2:
                errs.append("equality takes two arguments")
                return
            s1 = _check_term(f.args[0], sig, env, predvars, errs)
            s2 = _check_term(f.args[1], sig, env, predvars, errs)
            if s1 is not None and s2 is not None and s1 != s2:
                errs.append("equality between distinct sorts %s and %s" % (s1, s2))
            return
        decl = sig.predicates.get(f.pred)
        if decl is None:
            errs.append("unknown predicate %s" % f.pred)
            for a in f.args:
                _check_term(a, sig, env, predvars, errs)
            return
        if len(decl) != len(f.args):
            errs.append("predicate %s expects %d arguments, got %d"
                        % (f.pred, len(decl), len(f.args)))
        for i, (a, want) in enumerate(zip(f.args, decl)):
            got = _check_term(a, sig, env, predvars, errs)
            if got is not None and got != want:
                errs.append("argument %d of %s has sort %s, expected %s"
                            % (i + 1, f.pred, got, want))
    elif isinstance(f, PredApp):
        want = predvars.get(f.predvar)
        if want is None:
            errs.append("unbound predicate variable %s" % f.predvar)
        got = _check_term(f.arg, sig, env, predvars, errs)
        if want is not None and got is not None and got != want:
            errs.append("predicate variable %s applied at sort %s, expected %s"
                        % (f.predvar, got, want))
    elif isinstance(f, Not):
        _check(f.body, sig, env, predvars, errs)
    elif isinstance(f, (And, Or, Implies)):
        _check(f.left, sig, env, predvars, errs)
        _check(f.right, sig, env, predvars, errs)
    elif isinstance(f, Quant):
        if f.kind not in QUANT_KINDS:
            errs.append("unknown quantifier kind %s" % f.kind)
        if f.var.sort not in sig.sorts:
            errs.append("quantified variable %s has undeclared sort %s"
                        % (f.var.name, f.var.sort))
        if f.mode not in (None, "strict", "weak"):
            errs.append("bad majority mode %r" % (f.mode,))
        if f.mode is not None and f.kind != MOST:
            errs.append("majority mode on non-most quantifier")
        inner = dict(env)
        inner[f.var.name] = f.var.sort
        if f.restriction is not None:
            _check(f.restriction, sig, inner, predvars, errs)
        _check(f.body, sig, inner, predvars, errs)
    elif isinstance(f, Quant2):
        if f.sort not in sig.sorts:
            errs.append("second-order quantifier over undeclared sort %s" % f.sort)
        inner = dict(predvars)
        inner[f.predvar] = f.sort
        _check(f.body, sig, env, inner, errs)
    else:
        errs.append("not a formula: %r" % (f,))

