"""Standing mutants: the suite's power as a tracked fact.

Each mutant replaces one function in-process (``monkeypatch``, no file
edits) and names the law or exact test that must reject it: a test against
an exact law, a closed form or an independent recomputation, never a test
that only freezes today's bits.  The named test is run under the mutant
and must fail.  A mutant that survives is a gap in the suite; it is kept
here, marked, not dropped.
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

import test_engine
import test_models
import test_oracle

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


def tail_count_one_short(thresholds, u, rows=None, tails=False):
    """``_categorical_thresholds`` whose tail count of the top state is one
    short (held at 0), so the next generation's table reads wrong counts."""
    states, counted = _categorical_thresholds(thresholds, u, rows, tails=True)
    counted = counted[:-1] + (max(counted[-1] - 1, 0),)
    return (states, counted) if tails else states


def skip_comparison_row_1(thresholds, u, rows=None, tails=False):
    """``_categorical_thresholds`` with comparison row 1 left out of the
    states (the tail counts stay right)."""
    states, counted = _categorical_thresholds(thresholds, u, rows, tails=True)
    row1 = thresholds[1] if rows is None else thresholds[1].take(rows)
    states = states - (row1 < u)
    return (states, counted) if tails else states


def kernel_swap(step):
    """``engine.step`` run under the other kernel."""

    def swapped(system, model, choice):
        return step(system, model, TRANS if choice is MULTI else MULTI)

    return swapped


def cov_kernel_swap(choice, mu_w, g_v, m_r, v1, v2):
    """``core._cov_raw`` evaluated under the other kernel."""
    other = TRANS if choice is MULTI else MULTI
    return _cov_raw(other, mu_w, g_v, m_r, v1, v2)


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


@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_m1_late_potential_mean(monkeypatch, choice):
    # Rejected by the tiny-size law: the late mean leaves the enumerated
    # support of log gamma^N_n.
    monkeypatch.setattr(fk, "run", late_mean_run)
    with pytest.raises(AssertionError):
        test_engine.TestTinySizeLaw().test_law_and_unbiasedness(choice, 2, 3)


def test_tail_count_off_by_one_breaks_the_carried_counts(monkeypatch):
    # Rejected exactly, under both kernels, by the carried-count invariant.
    monkeypatch.setattr(fkclt.engine, "_categorical_thresholds", tail_count_one_short)
    with pytest.raises(AssertionError):
        test_engine.TestCarriedCounts().test_counts_after_every_step(2)


@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_tail_count_off_by_one_in_law(monkeypatch, choice):
    # Every generation draws from a table built on wrong counts.  The
    # tiny-size law at N = 2, n = 3 sees that under the multinomial kernel
    # with 2000 samples; under the transport kernel only phi's share of
    # each row moves, so it takes the law test with 20000 samples.
    monkeypatch.setattr(fkclt.engine, "_categorical_thresholds", tail_count_one_short)
    law = test_engine.TestTinySizeLaw()
    with pytest.raises(AssertionError):
        if choice is MULTI:
            law.test_law_and_unbiasedness(choice, 2, 3)
        else:
            law.test_law_with_many_samples(choice)


@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_skip_comparison_row_1(monkeypatch, choice):
    # Rejected by the d = 3 marginal laws and the d = 4 joint law.
    monkeypatch.setattr(fkclt.engine, "_categorical_thresholds", skip_comparison_row_1)
    assert min(test_engine.TestNextCountLawThreeStates().p_values(choice)) < 1e-6
    joint = test_engine.TestJointNextCountLawFourStates()
    assert joint.p_value(joint.next_counts(choice), joint.exact_law(choice)) < 1e-6


@pytest.mark.parametrize("choice", [MULTI, TRANS])
def test_kernel_swap_in_the_engine(monkeypatch, choice):
    # Rejected by the d = 3 marginal laws and the d = 4 joint law.
    swapped = kernel_swap(fk.step)
    monkeypatch.setattr(fk, "step", swapped)
    monkeypatch.setattr(fkclt.engine, "step", swapped)
    assert min(test_engine.TestNextCountLawThreeStates().p_values(choice)) < 1e-6
    joint = test_engine.TestJointNextCountLawFourStates()
    assert joint.p_value(joint.next_counts(choice), joint.exact_law(choice)) < 1e-6


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
