"""Controlled-English fragment: noun phrases become individual terms
(eta for indefinites, eps for definites, tau for universals, typed
"most"/"many" generics), with discourse referents kept on a salience stack.

Fragment shape, per clause:

    Det Noun (that Verb (Det Noun)?)? (Verb | Verb Det Noun | Verb Pronoun)
    Pronoun Verb ...

Clauses are separated by '.'; referents persist across clause boundaries.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from . import parser
from . import syntax as sx
from .syntax import (Atom, And, Binder, Generic, GenericRestricted, Implies,
                     Not, Quant, Signature, Var, substitute)

DETERMINERS = {"a", "some", "the", "every", "all", "each", "no", "most",
               "many", "not-every"}
UNIVERSAL_DETS = {"every", "all", "each"}
INDEFINITE_DETS = {"a", "some"}


class LexiconError(parser.ParseError):
    """A lexicon file that does not read, with located diagnostics."""


class SemanticsError(Exception):
    pass


@dataclass(frozen=True)
class Lexicon:
    nouns: dict                  # word -> sort
    iverbs: dict                 # word -> unary predicate name
    tverbs: dict                 # word -> binary predicate name
    pronouns: dict               # word -> sort (sort constraint)
    signature: Signature

    def sort_of_noun(self, word):
        try:
            return self.nouns[word]
        except KeyError:
            raise SemanticsError("unknown noun %r" % word)


def parse_lexicon(text):
    """Lexicon file, one entry per line (grammar in parser's docstring):

        noun dog : dog
        verb bite : bite(dog)
        tverb know : know(person, person)
        adj grumpy : grumpy(dog)
        pron he : man
    """
    try:
        entries = parser.lexicon_entries(text)
    except parser.ParseError as e:
        raise LexiconError(e.diagnostics) from None
    words = defaultdict(dict)           # entry kind -> word -> name
    sorts, preds = set(), {}
    for kind, word, name, args in entries:
        words[kind][word] = name
        if args is None:
            sorts.add(name)
        else:
            sorts.update(args)
            preds[name] = args
    # every noun doubles as a unary predicate over its sort, so that
    # referent terms can mention the noun (man(eta x:man. man(x)))
    for word, sort in words["noun"].items():
        preds.setdefault(word, (sort,))
    sig = Signature(frozenset(sorts), {}, {}, preds, None)
    return Lexicon(words["noun"], words["verb"], words["tverb"], words["pron"],
                   sig)


# ---------------------------------------------------------------------------
# fragment parsing


@dataclass(frozen=True)
class NounPhrase:
    det: str
    noun: str
    rel: object = None           # (verb word, object NounPhrase or None)


@dataclass(frozen=True)
class PronounPhrase:
    word: str


@dataclass(frozen=True)
class Clause:
    subject: object
    verb: str
    obj: object = None


def parse_fragment(sentence, lex):
    """Parse a sentence (clauses separated by '.', words by blanks) into
    Clause trees."""
    clauses = []
    current = []
    for tok in sentence.split():
        if tok == ".":
            if current:
                clauses.append(_parse_clause(current, lex))
                current = []
        else:
            current.append(tok)
    if current:
        clauses.append(_parse_clause(current, lex))
    if not clauses:
        raise SemanticsError("empty input")
    return clauses


class _Toks:
    def __init__(self, toks):
        self.toks = list(toks)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise SemanticsError("unexpected end of sentence")
        self.i += 1
        return t


def _parse_clause(words, lex):
    ts = _Toks(words)
    subject = _parse_np(ts, lex)
    word = ts.next()
    verb = _verb_word(word, lex)
    if verb is None:
        raise SemanticsError("unknown verb %r" % word)
    obj = None
    if ts.peek() is not None:
        obj = _parse_np(ts, lex)
    if ts.peek() is not None:
        raise SemanticsError("trailing words after clause: %r" % ts.peek())
    return Clause(subject, verb, obj)


def _verb_word(word, lex):
    for w in (word, word.rstrip("s")):
        if w in lex.iverbs or w in lex.tverbs:
            return w
    return None


def _noun_word(word, lex):
    for w in (word, word.rstrip("s")):
        if w in lex.nouns:
            return w
    return None


def _parse_np(ts, lex):
    w = ts.next()
    if w in lex.pronouns:
        return PronounPhrase(w)
    if w not in DETERMINERS:
        raise SemanticsError("expected a determiner or pronoun, found %r" % w)
    noun = _noun_word(ts.next(), lex)
    if noun is None:
        raise SemanticsError("unknown noun after determiner %r" % w)
    rel = None
    if ts.peek() == "that":
        ts.next()
        word = ts.next()
        rv = _verb_word(word, lex)
        if rv is None:
            raise SemanticsError("unknown verb %r in relative clause" % word)
        robj = None
        if rv in lex.tverbs:
            robj = _parse_np(ts, lex)
        rel = (rv, robj)
    return NounPhrase(w, noun, rel)


# ---------------------------------------------------------------------------
# discourse state


@dataclass(frozen=True)
class DiscourseState:
    referents: tuple = ()        # (term, sort, noun), most salient first
    presuppositions: tuple = ()

    def push(self, term, sort, noun):
        return replace(self, referents=((term, sort, noun),) + self.referents)

    def promote(self, index):
        refs = list(self.referents)
        refs.insert(0, refs.pop(index))
        return replace(self, referents=tuple(refs))

    def presuppose(self, f):
        return replace(self, presuppositions=self.presuppositions + (f,))


def resolve_pronoun(state, sort_constraint):
    """Topmost referent of sort `sort_constraint`, promoted to the top of
    the stack."""
    for i, (term, sort, _) in enumerate(state.referents):
        if sort == sort_constraint:
            return term, state.promote(i)
    if not state.referents:
        raise SemanticsError("pronoun with no discourse referent")
    raise SemanticsError("no referent of sort %s on the salience stack"
                         % sort_constraint)


# ---------------------------------------------------------------------------
# logical-form construction


def build_logical_form(clauses, lex, presuppose=False):
    """Build one conjoined formula for a clause sequence; returns the
    formula together with the final discourse state.  With `presuppose`,
    each indefinite's description is asserted of its choice term."""
    state = DiscourseState()
    formula = None
    for clause in clauses:
        cf, state = _build_clause(clause, lex, state, presuppose)
        formula = cf if formula is None else And(formula, cf)
    return formula, state


def _restriction_formula(np, lex, var):
    """Noun (plus adjectival/relative material) as a formula over `var`."""
    f = None
    if np.rel is not None:
        rv, robj = np.rel
        if robj is None:
            f = Atom(lex.iverbs[rv], (var,))
        else:
            raise SemanticsError("relative clauses with objects are not "
                                 "supported in restrictions")
    return f


def _build_clause(clause, lex, state, presuppose):
    # the verb phrase as a function of the subject term
    if clause.verb in lex.tverbs:
        if clause.obj is None:
            raise SemanticsError("transitive verb %r needs an object" % clause.verb)
        pred = lex.tverbs[clause.verb]
        obj_term, state, extra = _np_term(clause.obj, lex, state, presuppose,
                                          position="object")
        def vp(t):
            return Atom(pred, (t, obj_term))
    else:
        if clause.obj is not None:
            raise SemanticsError("verb %r does not take an object" % clause.verb)
        pred = lex.iverbs[clause.verb]
        extra = []
        def vp(t):
            return Atom(pred, (t,))

    subj = clause.subject
    if isinstance(subj, PronounPhrase):
        term, state = resolve_pronoun(state, lex.pronouns[subj.word])
        f = vp(term)
    else:
        f, state, subj_extra = _quantified_subject(subj, lex, state, presuppose, vp)
        extra = extra + subj_extra
    for conj in extra:
        f = And(f, conj)
    return f, state


def _noun_body(np, lex, var):
    body = Atom(np.noun, (var,))
    rel = _restriction_formula(np, lex, var)
    if rel is not None:
        body = And(body, rel)
    return body


def _np_term(np, lex, state, presuppose, position):
    """Referential noun phrase (a/some/the/most/many) as an individual term.
    Returns (term, new state, extra assertable conjuncts)."""
    if isinstance(np, PronounPhrase):
        term, state = resolve_pronoun(state, lex.pronouns[np.word])
        return term, state, []
    sort = lex.sort_of_noun(np.noun)
    x = Var("x", sort)
    if np.det in INDEFINITE_DETS:
        term = Binder(sx.ETA, x, _noun_body(np, lex, x))
        state = state.push(term, sort, np.noun)
        extra = [Atom(np.noun, (term,))] if presuppose else []
        return term, state, extra
    if np.det == "the":
        for i, (term, s, _) in enumerate(state.referents):
            if s == sort:
                return term, state.promote(i), []
        term = Binder(sx.EPS, x, _noun_body(np, lex, x))
        state = state.push(term, sort, np.noun)
        return term, state, []
    if np.det in ("most", "many"):
        rel = _restriction_formula(np, lex, x)
        if rel is None:
            term = Generic(np.det, sort)
        else:
            term = GenericRestricted(np.det, sort, x, rel)
            state = state.presuppose(substitute(rel, x, term))
        return term, state, []
    raise SemanticsError("determiner %r is not supported in %s position"
                         % (np.det, position))


def _quantified_subject(np, lex, state, presuppose, vp):
    """Subject noun phrase applied to the verb phrase."""
    sort = lex.sort_of_noun(np.noun)
    x = Var("x", sort)
    if np.det in UNIVERSAL_DETS or np.det in ("no", "not-every"):
        body = vp(x)
        rel = _restriction_formula(np, lex, x)
        if rel is not None:
            body = Implies(rel, body)
        if np.det == "no":
            return Not(Quant(sx.EXISTS, x, None,
                             body if rel is None else And(rel, vp(x)))), state, []
        tau_form = substitute(body, x, Binder(sx.TAU, x, body))
        if np.det == "not-every":
            return Not(tau_form), state, []
        return tau_form, state, []
    term, state, extra = _np_term(np, lex, state, presuppose, position="subject")
    return vp(term), state, extra
