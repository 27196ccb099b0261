"""Standing mutants: the suite's power as a tracked fact.

Each mutant replaces one function in-process (``monkeypatch``, no file
edits) and names the law or exact test that must reject it: a test against
an exact law, a closed form or an independent recomputation, never a test
that only freezes today's bits.  The named test is run under the mutant
and must fail.  A mutant that survives is a gap in the suite; it is kept
here, marked, not dropped.

Equivalent mutants, which no test can reject since they keep the laws or
the bits, are named here and left out:
- ``oracle._measure_flow`` without its clip at 0: ``phi = w M`` of a
  nonnegative ``w`` summing to 1 and a nonnegative ``M`` is already at or
  above +0.0;
- the transport rows handed out to the particles by sorted state: the
  count law and the law of the estimator stay the same.

The engine mutants run the law tests of ``test_law`` on its rows, whose
laws ``lawkit`` builds by hand and whose models are built fresh, so the
patched code builds every sampling table the engine reads.  The
exact-layer mutants run tests whose expected values come from ``refkit``,
which imports nothing from fkclt, so no patch reaches them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import fkclt as fk
import fkclt.core
import fkclt.engine
import fkclt.oracle
import fkclt.randenv
from fkclt import models
from fkclt.core import _categorical_thresholds, _cov_raw
from fkclt.oracle import _kahan_sum, _kept_flow, _stack
from numpy.lib.stride_tricks import sliding_window_view

import test_engine
import test_law
import test_models
import test_oracle
import test_randenv

MULTI = fk.KernelChoice.MULTINOMIAL
TRANS = fk.KernelChoice.TRANSPORT


def late_mean_run(model, N, n, choice, seed, oracle_log_gamma=None, replicate_id=-1):
    """M1: ``engine.run`` with the mean of G_p taken over the states after
    step p, one generation late."""
    system = fk.init_particles(model, N, seed)
    log_gamma = 0.0
    for p in range(n):
        system = fk.step(system, model, choice)
        log_gamma += math.log(float(np.mean(model.step(p).G.values[system.states])))
    log_gamma_bar = None if oracle_log_gamma is None else log_gamma - oracle_log_gamma
    return fk.RunRecord(seed, replicate_id, log_gamma, log_gamma_bar)


def tail_count_one_short(thresholds, u, rows=None):
    """``_categorical_thresholds`` whose tail count of the top state is one
    short (held at 0), so the next generation's table reads wrong counts."""
    states, counted = _categorical_thresholds(thresholds, u, rows)
    return states, counted[:-1] + (max(counted[-1] - 1, 0),)


def skip_comparison_row_1(thresholds, u, rows=None):
    """``_categorical_thresholds`` with comparison row 1 left out of the
    states (the tail counts stay right)."""
    states, counted = _categorical_thresholds(thresholds, u, rows)
    row1 = thresholds[1] if rows is None else thresholds[1].take(rows)
    return states - (row1 < u), counted


def thresholds_one_state_late(laws):
    """``core._thresholds`` that reads each CDF one state late: values
    1..d-1 in place of 0..d-2."""
    table = np.ascontiguousarray(laws.cumsum(axis=1)[:, 1:].T)
    table.flags.writeable = False
    return table


def eta_for_phi_rows(transport, mu_w, g_v, m_r):
    """``core._kernel_rows_raw`` with the empirical measure eta in place of
    Phi(eta): no selection and no mutation in what a particle resamples."""
    rows = np.repeat(mu_w[None, :], mu_w.size, axis=0)
    if transport:
        rows = g_v[:, None] * m_r + (1.0 - g_v)[:, None] * rows
    return rows


def v_n_column_one_early(model, choice, n):
    """``oracle.v_n`` whose covariance term q reads the column at q-1 in
    place of the column at q."""
    if n == 0:
        return 0.0
    etas = _kept_flow(model, n)[0]
    G, M = _stack(model, 0, n)
    ubars = np.empty((n, model.d))
    u = np.ones(model.d)
    for q in range(n - 1, -1, -1):
        u = (G[q][:, None] * M[q]) @ u
        ubars[q] = u = u / float(etas[q] @ u)
    terms = [float(etas[0] @ (ubars[0] - 1.0) ** 2)]
    if n > 1:
        cols = ubars[:-1]
        transport = choice is TRANS
        terms += _cov_raw(transport, etas[: n - 1], G[: n - 1], M[: n - 1], cols, cols).tolist()
    return max(_kahan_sum(terms), 0.0)


def kernel_swap(step):
    """``engine.step`` run under the other kernel."""

    def swapped(system, model, choice):
        return step(system, model, TRANS if choice is MULTI else MULTI)

    return swapped


def cov_kernel_swap(transport, mu_w, g_v, m_r, v1, v2):
    """``core._cov_raw`` evaluated under the other kernel."""
    return _cov_raw(not transport, mu_w, g_v, m_r, v1, v2)


def approximate_hmm_env_chain(params):
    """The observation process as a first-order Markov chain on symbols:
    the one-step law of consecutive observations under the stationary hidden
    chain.  HMM observations are not Markov, so words of length 3 and more
    get the wrong probability."""
    e = params.emission
    pi = fk.stationary_distribution(params.transition).weights
    joint = (e * pi[:, None]).T @ params.transition.rows @ e
    env_transition = fk.StochasticKernel(joint / joint.sum(axis=1)[:, None])
    return fk.EnvironmentChain(
        transition=env_transition,
        stationary=fk.stationary_distribution(env_transition),
        family=tuple(
            (params.transition, fk.Potential(e[:, s])) for s in range(params.symbol_count)
        ),
    )


def row_sum_flow(product):
    """``randenv._flow`` carrying the uniform law by the row sums Q 1 in
    place of 1^T Q."""
    w = product.sum(axis=-1)
    return w / w.sum(axis=-1, keepdims=True)


def uniform_mean_limit(product, g_last, eta):
    """``oracle._limit_function`` scaled to mean one under the uniform
    weights in place of eta."""
    u = (product @ g_last[..., None])[..., 0]
    return u / u.mean(axis=-1, keepdims=True)


def reversed_pair_products(stack):
    """``oracle._ordered_products`` multiplying each neighbouring pair in
    reverse order, A_1 A_0 in place of A_0 A_1."""
    b, k, d, _ = stack.shape
    if k == 0:
        return np.broadcast_to(np.eye(d), (b, d, d))
    while k > 1:
        paired = stack[:, 1::2] @ stack[:, 0 : k - 1 : 2]
        paired /= paired.reshape(b, -1, d * d).max(axis=2)[..., None, None]
        if k % 2:
            paired = np.concatenate([paired, stack[:, k - 1 :]], axis=1)
        stack = paired
        k = stack.shape[1]
    return stack[:, 0]


def late_measure_contributions(chain, transport, y, first, last, depth):
    """``randenv._contributions`` taking the backward limit at p as the
    covariance measure, where the one at p - 1 belongs."""
    b = last - first + 1
    states = y.window(first - 1 - depth, last + depth - 1)
    factors = chain.factors(states)
    windows = np.moveaxis(sliding_window_view(factors[1:], depth - 1, axis=0), -1, 1)
    if b < depth:
        windows = np.concatenate([windows[:b], windows[depth:]])
    products = fkclt.oracle._ordered_products(windows)
    shared, tail = products[:b], products[-b:]
    eta = fkclt.randenv._flow(shared @ factors[depth : depth + b])
    h = fkclt.oracle._limit_function(tail, chain._G[states[2 * depth :]], eta)
    G = chain._G[states[depth : depth + b]]
    M = chain._M[states[depth + 1 : depth + 1 + b]]
    return _cov_raw(transport, eta, G, M, h, h)


def next_count_p(name, choice):
    """p-value of the engine's next counts on ``test_law.ROWS[name]``,
    drawn under ``choice`` on a fresh model, against that kernel's law."""
    row = test_law.ROWS[name]
    return row.p_value(row.next_counts(choice), choice)


@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_m1_late_potential_mean(monkeypatch, choice):
    # Rejected by the tiny-size law at N = 2, n = 3 (p = 0 under both
    # kernels).
    monkeypatch.setattr(fk, "run", late_mean_run)
    with pytest.raises(AssertionError):
        test_law.test_log_gamma_follows_its_law(choice, 2, 3, 2000, 2030)


def test_tail_count_off_by_one_breaks_the_carried_counts(monkeypatch):
    # Rejected exactly, under both kernels, by the carried-count invariant.
    monkeypatch.setattr(fkclt.engine, "_categorical_thresholds", tail_count_one_short)
    with pytest.raises(AssertionError):
        test_engine.TestCarriedCounts().test_counts_after_every_step(2)


@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_tail_count_off_by_one_in_law(monkeypatch, choice):
    # Every generation after the first draws from a table built on wrong
    # counts.  The law test builds its model fresh, so no table the real
    # code built hides that: the tiny-size law at N = 2, n = 3 rejects it
    # with 2000 samples under both kernels.
    monkeypatch.setattr(fkclt.engine, "_categorical_thresholds", tail_count_one_short)
    with pytest.raises(AssertionError):
        test_law.test_log_gamma_follows_its_law(choice, 2, 3, 2000, 2030)


@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_skip_comparison_row_1(monkeypatch, choice):
    # Rejected by the d = 3 marginal laws and the d = 4 joint law.
    monkeypatch.setattr(fkclt.engine, "_categorical_thresholds", skip_comparison_row_1)
    assert next_count_p("d3-marginals", choice) < 1e-6
    assert next_count_p("d4", choice) < 1e-6


@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_kernel_swap_in_the_engine(monkeypatch, choice):
    # Rejected by the d = 3 marginal laws and the d = 4 joint law.
    swapped = kernel_swap(fk.step)
    monkeypatch.setattr(fk, "step", swapped)
    monkeypatch.setattr(fkclt.engine, "step", swapped)
    assert next_count_p("d3-marginals", choice) < 1e-6
    assert next_count_p("d4", choice) < 1e-6


def test_cov_kernel_swap(monkeypatch, two_state):
    # Rejected by the independent plain-numpy v_n at d = 2 (a tolerance
    # check, not a bit pin), and by the sigma^2 closed-form values.
    for module in (fkclt.core, fkclt.oracle, fkclt.randenv):
        monkeypatch.setattr(module, "_cov_raw", cov_kernel_swap)
    with pytest.raises(AssertionError):
        test_oracle.TestVnReference().test_random_models(2)
    with pytest.raises(AssertionError):
        test_oracle.TestSpectral().test_sigma2_reference_values(two_state)


def test_approximate_hmm_environment(monkeypatch, hmm_params):
    # Rejected by the exact law of the observation words.
    monkeypatch.setattr(models, "hmm_env_chain", approximate_hmm_env_chain)
    assert test_models.word_law_gap(hmm_params, 2) <= 1e-14  # exact up to pairs
    with pytest.raises(AssertionError):
        test_models.TestHmmEnvironment().test_words_have_the_observation_law(hmm_params)


@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_thresholds_one_state_late(monkeypatch, choice):
    # Rejected by the d = 3 marginal laws and the d = 4 joint law.
    for module in (fkclt.core, fkclt.engine):
        monkeypatch.setattr(module, "_thresholds", thresholds_one_state_late)
    assert next_count_p("d3-marginals", choice) < 1e-6
    assert next_count_p("d4", choice) < 1e-6


def test_eta_for_phi_in_the_multinomial_rows(monkeypatch):
    # Rejected by the d = 3 marginal laws and the d = 4 joint law; the kit
    # builds its rows by hand, not with the patched ``_kernel_rows_raw``.
    monkeypatch.setattr(fkclt.core, "_kernel_rows_raw", eta_for_phi_rows)
    assert next_count_p("d3-marginals", MULTI) < 1e-6
    assert next_count_p("d4", MULTI) < 1e-6


def test_eta_for_phi_in_the_transport_rows(monkeypatch):
    # A transport row takes phi only with weight 1 - G(x), so at the d = 4
    # row's potentials (0.8-0.95) the mutant moves the law little.  The
    # same counts and kernel with potentials 0.1-0.5 reject it with 1000
    # draws.
    monkeypatch.setattr(fkclt.core, "_kernel_rows_raw", eta_for_phi_rows)
    assert next_count_p("d4-low", TRANS) < 1e-6


def test_v_n_covariance_index_off_by_one(monkeypatch):
    # Rejected by the independent plain-numpy v_n on random models.
    monkeypatch.setattr(fk, "v_n", v_n_column_one_early)
    with pytest.raises(AssertionError):
        test_oracle.TestVnReference().test_random_models(3)


def test_flow_by_row_sums(monkeypatch):
    # Rejected by the kit's flows from the uniform law.
    monkeypatch.setattr(fkclt.randenv, "_flow", row_sum_flow)
    with pytest.raises(AssertionError):
        test_randenv.TestReferenceLoops().test_backward_limits_match_loops(3, 2, 7)


def test_limit_function_under_uniform_weights(monkeypatch):
    # Rejected by the kit's backward columns, each of mean one under its
    # own flow measure.
    monkeypatch.setattr(fkclt.oracle, "_limit_function", uniform_mean_limit)
    with pytest.raises(AssertionError):
        test_oracle.TestSemigroupReference().test_qbar_pn_one(3)


def test_ordered_products_in_reverse_pairs(monkeypatch):
    # Rejected by the kit's ordered products, formed one factor at a time.
    monkeypatch.setattr(fkclt.oracle, "_ordered_products", reversed_pair_products)
    with pytest.raises(AssertionError):
        test_oracle.TestSemigroupReference().test_markov_pn(3)


def test_covariance_under_the_late_measure(monkeypatch):
    # Rejected by the kit's covariance under eta_inf(p - 1).
    monkeypatch.setattr(fkclt.randenv, "_contributions", late_measure_contributions)
    with pytest.raises(AssertionError):
        test_randenv.TestReferenceLoops().test_backward_limits_match_loops(3, 2, 7)
