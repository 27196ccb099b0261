"""Exact laws of the particle engine's state counts, for the law tests.

Both kernels move a particle by a row that depends only on its own state
and on the empirical measure m/N, so the state counts m_p form a Markov
chain, and log gamma^N_n = sum_{p<n} log(m_p . G_p / N) is a function of
its path.  The kit gives the chain's exact laws, at any d:

- ``next_count_law``: the next count vector given counts m.  With
  phi = (m G) M / (m . G), it is Multinomial(N, phi) for the multinomial
  kernel.  For the transport kernel, whose row at s is
  K(s, .) = G(s) M(s, .) + (1 - G(s)) phi, it is the convolution over
  source states s of Multinomial(m_s, K(s, .));
- ``marginal``: the count of one state, by projection;
- ``log_gamma_law``: log gamma^N_n, by enumerating the count paths from
  m_0 ~ Multinomial(N, eta_0);
- ``p_value``: one pooled chi-square of drawn outcomes against a law.

phi and K come from ``refkit.rows``, built by hand from G and M, not by
the package's row builders: a fault in those changes what the engine
draws, not the law its draws are tested against.  ``next_counts`` and
``log_gammas`` draw through the engine, after asserting that no step they
use keeps a sampling table: a table built before a fault was patched in
would hide the fault.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import scipy.stats

import fkclt as fk
import refkit
from fkclt.engine import derive_seed

MULTI = fk.KernelChoice.MULTINOMIAL
TRANS = fk.KernelChoice.TRANSPORT


def compositions(N: int, d: int):
    """Every vector of d nonnegative ints that add up to N: the gaps
    between d - 1 bars placed among N + d - 1 slots."""
    for bars in itertools.combinations(range(N + d - 1), d - 1):
        edges = (-1, *bars, N + d - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _multinomial(N: int, p) -> dict:
    return {
        c: math.factorial(N) / math.prod(map(math.factorial, c))
        * math.prod(q**k for q, k in zip(p, c))
        for c in compositions(N, len(p))
    }


def next_count_law(G, M, choice, m) -> dict:
    """The exact law of the next count vector given counts m, as
    {count vector: probability} over all C(N + d - 1, d - 1) vectors."""
    K = refkit.rows(*map(np.asarray, (m, G, M)), choice is TRANS)
    N, d = sum(m), len(m)
    if choice is MULTI:
        return _multinomial(N, K[0])
    # The convolution runs on an array over the first d - 1 counts, since
    # the last one is N minus their sum: each outcome b of a source shifts
    # the law so far by b and adds it, weighted by b's probability.
    law = np.zeros((N + 1,) * (d - 1))
    law[(0,) * (d - 1)] = 1.0
    for s, m_s in enumerate(m):
        joined = np.zeros_like(law)
        for b, q in _multinomial(m_s, K[s]).items():
            to = tuple(slice(k, None) for k in b[:-1])
            joined[to] += q * law[tuple(slice(None, N + 1 - k) for k in b[:-1])]
        law = joined
    return {c: float(law[c[:-1]]) for c in compositions(N, d)}


def marginal(law: dict, x: int) -> dict:
    """The law of the count of state x, {count: probability}."""
    return {k: sum(q for c, q in law.items() if c[x] == k) for k in {c[x] for c in law}}


def log_gamma_law(model: fk.FKModel, choice, N: int, n: int) -> tuple:
    """The exact law of log gamma^N_n as (support, pmf) over every count
    path, sorted; values that agree to 1e-12 share one support point."""
    paths = {(m, 0.0): q for m, q in _multinomial(N, model.eta0.weights).items()}
    for p in range(n):
        G, M = model.step(p).G.values, model.step(p).M.rows
        nxt = {}
        for (m, value), q in paths.items():
            value += math.log(float(np.dot(m, G)) / N)
            moves = next_count_law(G, M, choice, m) if p < n - 1 else {m: 1.0}
            for m_next, r in moves.items():
                nxt[m_next, value] = nxt.get((m_next, value), 0.0) + q * r
        paths = nxt
    support, pmf = [], []
    for value, q in sorted((value, q) for (_, value), q in paths.items()):
        if support and value - support[-1] <= 1e-12 * max(1.0, abs(value)):
            pmf[-1] += q
        else:
            support.append(value)
            pmf.append(q)
    return np.array(support), np.array(pmf)


def p_value(seen: Counter, law: dict) -> float:
    """Chi-square p-value of ``seen`` (outcome: times) against ``law``, each
    seen outcome of positive probability.  The outcomes go by decreasing
    probability, adjacent ones pooled until each bin expects at least 5; a
    short last bin joins the one before it."""
    reps = sum(seen.values())
    off = [c for c in seen if not law.get(c, 0.0) > 0.0]
    assert not off, f"drawn outside the law's support: {off[:5]}"
    bins, o, e = [], 0.0, 0.0
    for c in sorted(law, key=law.get, reverse=True):
        o, e = o + seen.get(c, 0), e + reps * law[c]
        if e >= 5.0:
            bins.append([o, e])
            o, e = 0.0, 0.0
    bins[-1][0] += o
    bins[-1][1] += e
    assert len(bins) >= 2, "the law has one bin: nothing to test"
    O, E = np.array(bins).T
    return float(scipy.stats.chi2.sf(((O - E) ** 2 / E).sum(), len(bins) - 1))


def _assert_fresh(model: fk.FKModel, n: int) -> None:
    for p in range(n):
        assert not model.step(p)._tables, f"step {p} of the model keeps sampling tables"


def next_counts(model: fk.FKModel, choice, m, reps: int, seed: int) -> np.ndarray:
    """(reps, d) next count vectors that ``fk.step`` draws from counts m,
    replicate r on the stream of ``derive_seed(seed, r)``."""
    _assert_fresh(model, 1)
    d, N = len(m), sum(m)
    system = fk.ParticleSystem(np.repeat(np.arange(d), m), 0, None, d)
    counts = np.empty((reps, d), dtype=np.int64)
    for r in range(reps):
        # A first block of N draws only the uniforms the step uses.
        system.stream = fk.RngStream(derive_seed(seed, r), N)
        counts[r] = np.bincount(fk.step(system, model, choice).states, minlength=d)
    return counts


def log_gammas(model: fk.FKModel, choice, N: int, n: int, reps: int, master: int) -> np.ndarray:
    """log gamma^N_n of ``reps`` runs, run r seeded ``derive_seed(master, r)``."""
    _assert_fresh(model, n)
    return np.array(
        [fk.run(model, N, n, choice, derive_seed(master, r)).log_gamma_N for r in range(reps)]
    )
