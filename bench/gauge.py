"""Host-speed gauge.

On a shared virtual machine the speed of identical work swings by up to
1.5x, in phases that last from seconds to minutes, and each virtual CPU
swings on its own.  The benchmark therefore times this fixed computation
between its ops and scales every op latency by the gauge's speed during
the second in which the op ran (see run.py).  The computation resembles
the program's own work, so that both slow down alike: a small monadic
evaluator, written here and independent of epskernel, over 4096 small
models visited in a fixed scattered order.  It allocates no containers
that the garbage collector tracks, so the program's heap does not change
its cost.
"""

from __future__ import annotations

import random
import time

N_MODELS = 4096
MODELS_PER_READING = 24
PREDS = ("p", "q", "r")
# a reading's duration at the nominal host speed; timings are reported as
# they would read at this speed
NOMINAL_S = 0.6e-3


def _models(rng):
    out = []
    for _ in range(N_MODELS):
        dom = tuple("e%d" % i for i in range(rng.randint(1, 4)))
        out.append((dom, {p: frozenset(e for e in dom if rng.random() < 0.5)
                          for p in PREDS}))
    rng.shuffle(out)
    return out


def _formula(rng, depth, nvars):
    if depth == 0 or rng.random() < 0.2:
        if nvars == 0:
            return ("top",)
        return ("atom", rng.choice(PREDS), rng.randrange(nvars))
    k = rng.randrange(4)
    if k == 0:
        return ("not", _formula(rng, depth - 1, nvars))
    if k in (1, 2):
        return ("and" if k == 1 else "or", _formula(rng, depth - 1, nvars),
                _formula(rng, depth - 1, nvars))
    return ("all" if rng.random() < 0.5 else "ex", nvars,
            _formula(rng, depth - 1, nvars + 1))


class Gauge:
    def __init__(self):
        self.models = _models(random.Random(11))
        self.formulas = [_formula(random.Random(k), 5, 0) for k in range(16)]
        self.env = [None] * 8
        self.k = 0

    def _ev(self, f, m):
        tag = f[0]
        if tag == "atom":
            return self.env[f[2]] in m[1][f[1]]
        if tag == "not":
            return not self._ev(f[1], m)
        if tag == "and":
            return self._ev(f[1], m) and self._ev(f[2], m)
        if tag == "or":
            return self._ev(f[1], m) or self._ev(f[2], m)
        if tag == "top":
            return True
        v, want = f[1], tag == "ex"
        for e in m[0]:
            self.env[v] = e
            if self._ev(f[2], m) == want:
                return want
        return not want

    def reading(self):
        """Seconds taken by every formula on the next MODELS_PER_READING
        models."""
        self.k += 1
        base = self.k * 97
        t0 = time.perf_counter()
        for j in range(base, base + MODELS_PER_READING):
            m = self.models[j % N_MODELS]
            for f in self.formulas:
                self._ev(f, m)
        return time.perf_counter() - t0
