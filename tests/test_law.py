"""The engine against the exact laws of its state counts, from ``lawkit``.
Every law test builds its model fresh from its row."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkclt as fk
import lawkit
import refkit
from lawkit import MULTI, TRANS, log_gamma_law, next_count_law

from conftest import random_explicit_model

M2 = ((0.9, 0.1), (0.2, 0.8))
M3 = ((0.8, 0.15, 0.05), (0.1, 0.8, 0.1), (0.05, 0.15, 0.8))
M4 = ((0.7, 0.15, 0.1, 0.05), (0.1, 0.7, 0.1, 0.1), (0.05, 0.1, 0.75, 0.1),
      (0.05, 0.05, 0.15, 0.75))
M5 = ((0.6, 0.1, 0.1, 0.1, 0.1), (0.05, 0.7, 0.1, 0.1, 0.05), (0.1, 0.1, 0.5, 0.2, 0.1),
      (0.05, 0.05, 0.1, 0.7, 0.1), (0.1, 0.2, 0.1, 0.1, 0.5))
G5_LOW = (0.2, 0.5, 0.1, 0.4, 0.3)


@dataclass(frozen=True)
class Row:
    """One next-count case: potentials G, kernel M, the counts m the
    generation starts from, the master seed and the draws per kernel.
    ``marginals`` tests each state's count, not the vector.  ``other`` asks
    the draws to reject the other kernel's law at p < 1e-6 too; it is off
    where the laws are equal (N = 1, or one state holds every particle) or
    too close for ``reps`` draws (low potentials: transport rows near phi)."""

    G: tuple
    M: tuple
    m: tuple
    seed: int
    reps: int = 4000
    marginals: bool = False
    other: bool = False

    def next_counts(self, choice) -> np.ndarray:
        kernel, potential = fk.StochasticKernel(self.M), fk.Potential(self.G)
        model = fk.homogeneous_model(kernel, potential, fk.ProbMeasure.uniform(len(self.m)))
        return lawkit.next_counts(model, choice, self.m, self.reps, self.seed)

    def p_value(self, counts: np.ndarray, choice) -> float:
        """p-value of ``counts`` against ``choice``'s law (marginals: the least)."""
        law = next_count_law(self.G, self.M, choice, self.m)
        if self.marginals:
            return min(
                lawkit.p_value(Counter(counts[:, x].tolist()), lawkit.marginal(law, x))
                for x in range(len(self.m))
            )
        return lawkit.p_value(Counter(map(tuple, counts.tolist())), law)


ROWS = {
    "d2": Row((0.95, 0.99), M2, (32, 32), seed=71, other=True),
    "d3-marginals": Row((0.9, 0.97, 0.85), M3, (20, 20, 24), seed=83, marginals=True),
    "d3": Row((0.9, 0.97, 0.85), M3, (3, 4, 5), seed=101, other=True),
    "d4": Row((0.9, 0.8, 0.95, 0.85), M4, (1, 2, 2, 3), seed=103, other=True),
    "d4-low": Row((0.3, 0.1, 0.5, 0.2), M4, (1, 2, 2, 3), seed=107, reps=1000),
    "d3-low-empty-state": Row((0.4, 0.1, 0.25), M3, (0, 5, 7), seed=109, reps=2000),
    "d5": Row((0.9, 0.85, 0.95, 0.8, 0.97), M5, (3, 2, 0, 4, 3), seed=113, other=True),
    "d5-low-one-state": Row(G5_LOW, M5, (0, 0, 8, 0, 0), seed=127, reps=2000),
    "d5-low-N1": Row(G5_LOW, M5, (0, 0, 0, 1, 0), seed=131, reps=2000),
    "d5-low-N2": Row(G5_LOW, M5, (1, 0, 0, 0, 1), seed=137, reps=2000),
}


@pytest.mark.parametrize("name", ROWS)
def test_exact_laws(name):
    # Every count vector is listed, with mean sum_s m_s K_s = N phi and
    # covariance sum_s m_s (diag K_s - K_s K_s^T).  The transport rows
    # average to phi, so the multinomial covariance exceeds the transport
    # one by the positive semidefinite sum_s m_s (K_s - phi)(K_s - phi)^T.
    row = ROWS[name]
    d, N = len(row.m), sum(row.m)
    covs = {}
    for choice in (MULTI, TRANS):
        law = next_count_law(row.G, row.M, choice, row.m)
        assert len(law) == math.comb(N + d - 1, d - 1)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-14)
        K = refkit.rows(*map(np.asarray, (row.m, row.G, row.M)), choice is TRANS)
        c, q = np.array(list(law), dtype=float), np.array(list(law.values()))
        np.testing.assert_allclose(q @ c, np.asarray(row.m) @ K, rtol=1e-12)
        covs[choice] = (c - q @ c).T @ ((c - q @ c) * q[:, None])
        want = sum(m_s * (np.diag(k) - np.outer(k, k)) for m_s, k in zip(row.m, K))
        np.testing.assert_allclose(covs[choice], want, rtol=0, atol=1e-12 * N)
    gap = np.linalg.eigvalsh(covs[MULTI] - covs[TRANS])
    assert gap.min() >= -1e-12 * N
    if max(row.m) < N:
        assert gap.max() > 0.0


@pytest.mark.parametrize("choice", [MULTI, TRANS])
@pytest.mark.parametrize("name", ROWS)
def test_next_counts_follow_their_kernel_law(name, choice):
    row = ROWS[name]
    counts = row.next_counts(choice)
    assert row.p_value(counts, choice) > 1e-3
    if row.other:
        # The same counts reject the other kernel's law, so the test sees
        # which kernel moved the particles.
        assert row.p_value(counts, TRANS if choice is MULTI else MULTI) < 1e-6


def tiny_model() -> fk.FKModel:
    """Three different steps at d = 2, so a potential or kernel read at the
    wrong generation changes the law of log gamma^N_n."""
    steps = [([0.3, 0.9], [[0.8, 0.2], [0.3, 0.7]]), ([0.95, 0.2], [[0.4, 0.6], [0.5, 0.5]]),
             ([0.6, 0.1], [[0.9, 0.1], [0.2, 0.8]])]
    return fk.explicit_model([fk.FKStep(fk.Potential(G), fk.StochasticKernel(M)) for G, M in steps],
                             fk.ProbMeasure([0.35, 0.65]))


# (N, n, replicates, master seed); the transport kernel's master is one more.
# The last row takes ten times the samples, to resolve a law a little off.
LOG_GAMMA_ROWS = [
    (N, n, 2000, 1000 * N + 10 * n) for N, n in [(1, 3), (2, 1), (2, 3), (3, 2), (4, 3)]
] + [(2, 3, 20_000, 2_000_000)]


@pytest.mark.parametrize("N, n, reps, master", LOG_GAMMA_ROWS)
@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_log_gamma_follows_its_law(choice, N, n, reps, master):
    # Each sample must sit on the law's support, and their frequencies pass
    # a chi-square against it; the law's mean of gamma_bar is exactly 1.
    model = tiny_model()
    support, pmf = log_gamma_law(model, choice, N, n)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
    samples = lawkit.log_gammas(model, choice, N, n, reps, master + (choice is TRANS))
    log_gamma_n = fk.propagate(model, n).log_gammas[-1]
    assert abs(pmf @ np.exp(support - log_gamma_n) - 1.0) <= 1e-12
    nearest = np.abs(samples[:, None] - support[None, :]).argmin(axis=1)
    assert np.abs(samples - support[nearest]).max() <= 1e-12
    assert lawkit.p_value(Counter(nearest.tolist()), dict(enumerate(pmf))) > 1e-4


@pytest.mark.parametrize("d", [1, 3, 5])
def test_log_gamma_law_is_unbiased_at_any_d(d):
    model = random_explicit_model(np.random.default_rng(40 + d), d, 3)
    log_gammas = fk.propagate(model, 3).log_gammas
    for choice in (MULTI, TRANS):
        for N, n in [(1, 3), (2, 2), (3, 1), (2, 0)]:
            support, pmf = log_gamma_law(model, choice, N, n)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
            assert abs(pmf @ np.exp(support - log_gammas[n]) - 1.0) <= 1e-12


def test_the_kit_refuses_a_warm_model():
    model = tiny_model()
    fk.run(model, 2, 1, MULTI, seed=1)
    with pytest.raises(AssertionError, match="keeps sampling tables"):
        lawkit.log_gammas(model, MULTI, 2, 1, 1, master=0)
    with pytest.raises(AssertionError, match="keeps sampling tables"):
        lawkit.next_counts(model, TRANS, (1, 1), 1, seed=0)


@st.composite
def _edge_cases(draw):
    """d <= 5, N <= 12, counts with empty states, potentials in [0.1, 1]
    and kernel rows with zeros."""
    d = draw(st.integers(1, 5))
    N = draw(st.integers(1, 12))
    states = draw(st.lists(st.integers(0, d - 1), min_size=N, max_size=N))
    m = tuple(np.bincount(states, minlength=d).tolist())
    G = tuple(draw(st.lists(st.floats(0.1, 1.0), min_size=d, max_size=d)))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d * d, max_size=d * d)))
    weights = weights.reshape(d, d)
    weights[weights.sum(axis=1) == 0.0] = 1.0
    M = weights / weights.sum(axis=1, keepdims=True)
    return G, M, m, draw(st.sampled_from([MULTI, TRANS])), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_edge_cases())
def test_drawn_count_vectors_have_positive_probability(case):
    G, M, m, choice, seed = case
    d, N = len(m), sum(m)
    model = fk.homogeneous_model(fk.StochasticKernel(M), fk.Potential(G), fk.ProbMeasure.uniform(d))
    law = next_count_law(G, M, choice, m)
    for c in lawkit.next_counts(model, choice, m, 20, seed).tolist():
        assert law[tuple(c)] > 0.0, (c, law)
    if d == 1:
        assert law == pytest.approx({(N,): 1.0})
    if N == 1:
        # Both kernels move a lone particle in state s by M(s, .).
        s = m.index(1)
        exact = {tuple(np.eye(d, dtype=int)[y].tolist()): M[s, y] for y in range(d)}
        assert law == pytest.approx(exact, rel=1e-12, abs=1e-16)
