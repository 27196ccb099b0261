"""Plain reference computations for the tests of the exact layer.

Each function takes arrays -- an initial law eta0 (d,), per-step potentials
G (n, d) and kernels M (n, d, d), uniforms in [0, 1), a bool ``transport``
-- and runs the direct form, one step at a time.  The module imports only
numpy and the standard library, never fkclt (``tests/test_dependencies.py``
holds the rule), so no fault in the package can reach the values its
results are checked against.  ``rows``, ``cov``, ``flow``, ``v_n`` and
``log_gamma_N`` keep the package's arithmetic and order: bit-for-bit tests
compare them with values that pinned artifacts hold.
"""

from __future__ import annotations

import math

import numpy as np


def phi(eta, g, m):
    """Phi(eta) = (eta G) M / eta(G): reweight, normalize, then move."""
    w = eta * g
    return (w / w.sum()) @ m


def rows(eta, g, m, transport):
    """The (d, d) kernel rows at the measure eta: every row is Phi(eta) for
    the multinomial kernel, and row x is G(x) M(x, .) + (1 - G(x)) Phi(eta)
    for the transport kernel."""
    law = phi(eta, g, m)
    if not transport:
        return np.tile(law, (g.size, 1))
    return g[:, None] * m + (1.0 - g)[:, None] * law


def cov(eta, g, m, transport, f1, f2):
    """eta[K(f1 f2) - K(f1) K(f2)] for the kernel rows K at eta."""
    K = rows(eta, g, m, transport)
    k1, k2, k12 = K @ f1, K @ f2, K @ (f1 * f2)
    return float(eta @ (k12 - k1 * k2))


def flow(eta0, G, M):
    """The flow eta_0 .. eta_n as (n + 1, d): each step is Phi, a clip at 0
    and a division by the sum."""
    etas = [np.asarray(eta0, dtype=float)]
    for g, m in zip(G, M):
        w = np.clip(phi(etas[-1], g, m), 0.0, None)
        etas.append(w / w.sum())
    return np.array(etas)


def factors(G, M):
    """The weighted factors Q_q = diag(G_q) M_q, as (n, d, d)."""
    return G[:, :, None] * M


def columns(Q, f, etas=None):
    """Q_0 ... Q_{k-1} f one factor at a time from the right, as the
    (k + 1, d) columns u_k = f, u_q = Q_q u_{q+1}.  With ``etas`` (k, d),
    each u_q is divided by its etas[q]-mean, so from f = 1 the column u_q is
    Qbar_{q,k}(1)."""
    us = [np.asarray(f, dtype=float)]
    for q in range(len(Q) - 1, -1, -1):
        u = Q[q] @ us[-1]
        us.append(u if etas is None else u / float(etas[q] @ u))
    return np.array(us[::-1])


def products(Q):
    """The products Q_0 ... Q_{j-1} for j = 0..k, as (k + 1, d, d), each the
    one before times one factor on the right, scaled to max entry 1."""
    out = [np.eye(Q.shape[-1])]
    for factor in Q:
        P = out[-1] @ factor
        out.append(P / P.max())
    return np.array(out)


def v_n(eta0, G, M, transport):
    """v_n over the steps of G and M: eta_0((u_0 - 1)^2) plus, for q >= 1,
    the covariance of u_q under step q-1 at eta_{q-1}, u_q = Qbar_{q,n}(1);
    a Kahan sum in index order, clamped at 0."""
    n = len(G)
    if n == 0:
        return 0.0
    etas = flow(eta0, G, M)
    u = columns(factors(G, M), np.ones(etas.shape[1]), etas[:n])
    terms = [float(etas[0] @ ((u[0] - 1.0) * (u[0] - 1.0)))]
    terms += [cov(etas[q - 1], G[q - 1], M[q - 1], transport, u[q], u[q]) for q in range(1, n)]
    total = c = 0.0
    for x in terms:
        y = x - c
        t = total + y
        c = (t - total) - y
        total = t
    return max(total, 0.0)


def log_series(eta, G, M):
    """exp of the log series over the potentials G (k, d): term q is the log
    ratio of the lag-q potential means of the flows started at each point
    mass and at eta; M[q] moves the flows from lag q to lag q + 1."""
    flows = np.vstack([np.eye(eta.size), eta])
    logs = np.zeros(eta.size)
    for q, g in enumerate(G):
        weighted = flows * g
        means = weighted.sum(axis=1)
        logs += np.log(means[:-1]) - math.log(means[-1])
        if q < len(M):
            flows = (weighted / means[:, None]) @ M[q]
    return np.exp(logs)


def dobrushin(P):
    """Half the largest L1 distance between two rows of P."""
    return 0.5 * max(float(np.abs(a - b).sum()) for a in P for b in P)


def searched(cdf, u):
    """min{x : cdf[x] >= u} by binary search on one CDF, clipped to d-1."""
    return np.minimum(np.searchsorted(cdf, u, side="left"), cdf.size - 1)


def compared(cdfs, u):
    """Draw i by compare-and-sum on the CDF row cdfs[i] (one row (1, d)
    serves every draw): the CDF values below u[i], clipped to d-1."""
    return np.minimum((cdfs < u[:, None]).sum(axis=1), cdfs.shape[1] - 1)


def chain_path(law0, moves, u):
    """Markov states, one per uniform, by binary search: the first from
    law0, each later one from the row of moves at its predecessor."""
    states = np.empty(u.size, dtype=np.int64)
    law = law0
    for i, v in enumerate(u):
        states[i] = searched(np.cumsum(law), v)
        law = moves[states[i]]
    return states


def survival_table(eta0, g, m, u):
    """Surviving fractions at horizons 0..n of chains killed by g and moved
    by m, from the uniforms u (2n + 1, T): chain i starts from u[0, i], and
    at horizon h survives if u[2h - 1, i] < g(x), then moves by u[2h, i].
    Dead chains move too."""
    states = compared(np.cumsum(eta0)[None], u[0])
    alive = np.ones(u.shape[1], dtype=bool)
    fractions = np.ones((len(u) + 1) // 2)
    for h in range(1, fractions.size):
        alive &= u[2 * h - 1] < g[states]
        states = compared(np.cumsum(m, axis=1)[states], u[2 * h])
        fractions[h] = alive.mean()
    return fractions


def log_gamma_N(eta0, G, M, transport, u):
    """log gamma^N_n of one particle run on the uniforms u (n + 1, N): row 0
    draws the initial states; step p adds the log of the potential's
    ``np.mean`` over the particles, then row p + 1 moves each particle by
    its kernel row at the empirical measure."""
    N, d = u.shape[1], eta0.size
    states = compared(np.cumsum(eta0)[None], u[0])
    log_gamma = 0.0
    for g, m, v in zip(G, M, u[1:]):
        log_gamma += math.log(float(np.mean(g[states])))
        K = rows(np.bincount(states, minlength=d) / N, g, m, transport)
        states = compared(np.cumsum(K, axis=1)[states], v)
    return log_gamma
