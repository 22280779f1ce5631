"""Properties of the structural operations on the syntax tree: alpha_eq,
free_vars, substitute, subterms and free_predvars.

The helpers here walk nodes through their dataclass fields, not through
syntax.children/rebuild, so they do not share the code they test.
"""

import dataclasses
import itertools

from hypothesis import assume, given, settings, strategies as st

from epskernel import syntax as sx
from epskernel.syntax import (Atom, And, App, Binder, Const, Generic,
                              GenericRestricted, PredApp, Quant, Quant2,
                              Var, alpha_eq, free_predvars, free_vars,
                              subterms, substitute)

from test_compiled import formulas, terms


def rename_bound(e, fresh, env=None, penv=None):
    """`e` with every bound individual and predicate variable renamed to
    the next name of `fresh`, consistently within its scope."""
    env, penv = env or {}, penv or {}
    if isinstance(e, tuple):
        return tuple(rename_bound(x, fresh, env, penv) for x in e)
    if not dataclasses.is_dataclass(e):
        return e
    if type(e) is Var:
        return Var(env.get(e.name, e.name), e.sort)
    changes = {}
    if type(e) in (Binder, GenericRestricted, Quant):
        new = next(fresh)
        env = {**env, e.var.name: new}
        changes["var"] = Var(new, e.var.sort)
    elif type(e) is Quant2:
        new = next(fresh).upper()
        penv = {**penv, e.predvar: new}
        changes["predvar"] = new
    elif type(e) is PredApp:
        changes["predvar"] = penv.get(e.predvar, e.predvar)
    for f in dataclasses.fields(e):
        if f.name not in changes:
            changes[f.name] = rename_bound(getattr(e, f.name), fresh, env, penv)
    return dataclasses.replace(e, **changes)


# the fields alpha_eq treats as labels, by class; a Var's sort is one too
LABELS = {Const: ("name",), Generic: ("kind", "sort"), App: ("func",),
          Binder: ("kind",), GenericRestricted: ("kind", "sort"),
          Atom: ("pred",), Quant: ("kind", "mode"), Quant2: ("kind", "sort"),
          Var: ("sort",)}


def label_sites(e):
    """Number of (node, label field) pairs in `e`, in a fixed order."""
    if isinstance(e, tuple):
        return sum(label_sites(x) for x in e)
    if not dataclasses.is_dataclass(e):
        return 0
    return len(LABELS.get(type(e), ())) + sum(
        label_sites(getattr(e, f.name)) for f in dataclasses.fields(e))


def change_label(e, site):
    """`e` with the label at position `site` (as counted by label_sites)
    given a value it did not have; returns (new node, sites left)."""
    if isinstance(e, tuple):
        out = []
        for x in e:
            x, site = change_label(x, site)
            out.append(x)
        return tuple(out), site
    if not dataclasses.is_dataclass(e):
        return e, site
    changes = {}
    for name in LABELS.get(type(e), ()):
        if site == 0:
            old = getattr(e, name)
            changes[name] = ("weak" if old is None else None) if name == "mode" \
                else old + "'"
        site -= 1
    for f in dataclasses.fields(e):
        if f.name not in changes:
            changes[f.name], site = change_label(getattr(e, f.name), site)
    return dataclasses.replace(e, **changes), site


def free_one_bound_name(e, site, bound=frozenset()):
    """`e` with the bound variable occurrence at position `site` (Var or
    PredApp, counted in field order) renamed to a name nothing binds;
    returns (new node, sites left)."""
    if isinstance(e, tuple):
        out = []
        for x in e:
            x, site = free_one_bound_name(x, site, bound)
            out.append(x)
        return tuple(out), site
    if not dataclasses.is_dataclass(e):
        return e, site
    if type(e) is Var:
        if e.name in bound:
            site -= 1
            if site == -1:
                return Var("unbound", e.sort), site
        return e, site
    changes = {}
    if type(e) in (Binder, GenericRestricted, Quant):
        bound = bound | {e.var.name}
        changes["var"] = e.var
    elif type(e) is Quant2:
        bound = bound | {"pred " + e.predvar}
    elif type(e) is PredApp and "pred " + e.predvar in bound:
        site -= 1
        if site == -1:
            changes["predvar"] = "Unbound"
    for f in dataclasses.fields(e):
        if f.name not in changes:
            changes[f.name], site = free_one_bound_name(getattr(e, f.name),
                                                        site, bound)
    return dataclasses.replace(e, **changes), site


def names(stem="v"):
    return ("%s%d" % (stem, i) for i in itertools.count())


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_alpha_eq_holds_under_consistent_renaming(f):
    g = rename_bound(f, names())
    assert alpha_eq(f, g) and alpha_eq(g, f)
    assert alpha_eq(rename_bound(f, names("w")), g)


@given(formulas(), st.data())
@settings(max_examples=200, deadline=None)
def test_alpha_eq_fails_after_one_label_changes(f, data):
    n = label_sites(f)
    assume(n > 0)
    g, left = change_label(f, data.draw(st.integers(0, n - 1)))
    assert left < 0 and g != f
    assert not alpha_eq(f, g) and not alpha_eq(g, f)
    assert not alpha_eq(rename_bound(f, names()), g)


@given(formulas(), st.data())
@settings(max_examples=200, deadline=None)
def test_alpha_eq_fails_when_one_bound_occurrence_is_renamed(f, data):
    # at site -1 nothing is renamed and -1 - (number of sites) comes back
    n = -free_one_bound_name(f, -1)[1] - 1
    assume(n > 0)
    g, _ = free_one_bound_name(f, data.draw(st.integers(0, n - 1)))
    assert not alpha_eq(f, g) and not alpha_eq(g, f)


SCOPE = (("x", "s"), ("y", "s"), ("z", "t"))
X = Var("x", "s")


@given(formulas(scope=SCOPE), terms("s", (("y", "s"), ("z", "s")), 2))
@settings(max_examples=100, deadline=None)
def test_free_vars_after_substitution(f, t):
    assume(X in free_vars(f))
    got = free_vars(substitute(f, X, t))
    assert got == (free_vars(f) - {X}) | free_vars(t)


def test_subterms_and_free_predvars_of_hand_built_nodes():
    x, y = Var("x", "s"), Var("y", "s")
    c = Const("c")
    app = App("f", (x,))
    eps = Binder(sx.EPS, y, PredApp("X", y))
    body = And(PredApp("X", app), Atom("P", (eps,)))
    q2 = Quant2(sx.FORALL2, "X", "s", body)
    assert subterms(q2) == [app, x, eps, y]
    assert free_predvars(q2) == set()
    assert free_predvars(body) == {"X"}
    assert free_vars(q2) == {x}

    pa = PredApp("Y", eps)
    assert subterms(pa) == [eps, y]
    assert free_predvars(pa) == {"Y", "X"}

    g = GenericRestricted(sx.MOST, "s", y, Quant2(
        sx.EXISTS2, "Z", "s", And(PredApp("Z", y), PredApp("W", c))))
    atom = Atom("P", (g,))
    assert subterms(atom) == [g, y, c]
    assert free_predvars(atom) == {"W"}
    assert free_vars(atom) == set()
    # a quantifier's restriction comes before its body
    q = Quant(sx.MOST, x, Atom("Q", (c,)), Atom("P", (Generic(sx.MOST, "s"),)))
    assert subterms(q) == [c, Generic(sx.MOST, "s")]


def test_alpha_eq_on_free_names_and_child_counts():
    x, y = Var("x", "s"), Var("y", "s")
    assert alpha_eq(Atom("P", (x,)), Atom("P", (x,)))
    assert not alpha_eq(Atom("P", (x,)), Atom("P", (y,)))
    assert not alpha_eq(Atom("R", (x,)), Atom("R", (x, x)))
    assert not alpha_eq(PredApp("X", x), PredApp("Y", x))
    qx = Atom("Q", (x,))
    assert not alpha_eq(Quant(sx.FORALL, x, qx, qx), Quant(sx.FORALL, x, None, qx))
    assert not alpha_eq(Quant(sx.FORALL, x, None, qx), Quant(sx.FORALL, x, qx, qx))
