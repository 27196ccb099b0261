from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import fkclt as fk
import refkit
from fkclt import models
from fkclt.core import InvalidModel
from fkclt.models import SURVIVAL_CHUNK, hmm_env_chain, hmm_filter
from fkclt.randenv import EnvPath, eta_inf_env

from conftest import uniforms
from test_oracle import solution_bits

MULTI = fk.KernelChoice.MULTINOMIAL


class TestAbsorption:
    def test_rejects_boundary_potentials(self, two_state):
        M = two_state.step(0).M
        eta0 = fk.ProbMeasure([0.5, 0.5])
        with pytest.raises(InvalidModel):
            fk.AbsorptionModel(M, fk.Potential([0.5, 1.0]), eta0)
        with pytest.raises(InvalidModel):
            fk.absorption_build(M, fk.Potential([1.2, 0.5]), eta0)

    def test_build_is_homogeneous(self, two_state):
        step = two_state.step(0)
        model = fk.absorption_build(step.M, step.G, two_state.eta0)
        assert model.homogeneous

    def test_coin_killing_closed_form(self):
        # Constant survival probability: P(T >= n) = 0.5^n regardless of M.
        M = fk.StochasticKernel([[0.1, 0.9], [0.8, 0.2]])
        am = fk.AbsorptionModel(M, fk.Potential([0.5, 0.5]), fk.ProbMeasure([0.3, 0.7]))
        sol = fk.propagate(am.to_fk(), 3)
        assert abs(math.exp(sol.log_gammas[3]) - 0.125) <= 1e-14
        est, se = fk.survival_mc_oracle(am, 3, trials=200_000, seed=12)
        assert abs(est - 0.125) <= 3 * se

    def test_zero_horizon_is_certain(self, two_state):
        step = two_state.step(0)
        am = fk.AbsorptionModel(step.M, step.G, two_state.eta0)
        est, se = fk.survival_mc_oracle(am, 0, trials=1000, seed=1)
        assert est == 1.0 and se == 0.0

    def test_cross_oracle_agreement(self, two_state):
        step = two_state.step(0)
        am = fk.AbsorptionModel(step.M, step.G, two_state.eta0)
        sol = fk.propagate(two_state, 5)
        for n in (1, 2, 5):
            est, se = fk.survival_mc_oracle(am, n, trials=300_000, seed=500 + n)
            assert abs(est - math.exp(sol.log_gammas[n])) <= 3 * se

    def test_trial_floor(self, two_state):
        step = two_state.step(0)
        am = fk.AbsorptionModel(step.M, step.G, two_state.eta0)
        with pytest.raises(ValueError):
            fk.survival_mc_oracle(am, 1, trials=99, seed=1)


def kit_survival_table(model, n, trials, seed):
    """The kit's whole-array killed-chain table on the seed's uniforms."""
    u = uniforms(seed, (2 * n + 1, trials))
    return refkit.survival_table(model.eta0.weights, model.G.values, model.M.rows, u)


def random_absorption(rng, d, low=0.05, high=0.95):
    M = rng.random((d, d)) + 0.05
    eta0 = rng.random(d) + 0.1
    return fk.AbsorptionModel(
        fk.StochasticKernel(M / M.sum(axis=1, keepdims=True)),
        fk.Potential(rng.uniform(low, high, d)),
        fk.ProbMeasure(eta0 / eta0.sum()),
    )


class TestSurvivalChunks:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chunks_match_the_whole_array_loop(self, monkeypatch, d):
        # 64-trial chunks: 128 trials fill two whole chunks, the others end
        # on a part chunk.
        monkeypatch.setattr(models, "SURVIVAL_CHUNK", 64)
        rng = np.random.default_rng(d)
        for trials in (100, 127, 128, 129, 1000):
            for n in (0, 1, 7, 40):
                am = random_absorption(rng, d)
                seed = int(rng.integers(1 << 62))
                got = models.survival_mc_table(am, n, trials, seed)
                assert np.array_equal(got, kit_survival_table(am, n, trials, seed))

    def test_early_stop_when_every_chain_dies(self, monkeypatch):
        monkeypatch.setattr(models, "SURVIVAL_CHUNK", 64)
        am = random_absorption(np.random.default_rng(7), 3, low=0.01, high=0.05)
        for trials in (100, 1000):
            want = kit_survival_table(am, 40, trials, 11)
            assert want[-1] == 0.0  # every chain dies well before n
            assert np.array_equal(models.survival_mc_table(am, 40, trials, 11), want)

    def test_memory_does_not_grow_with_trials(self, two_state):
        step = two_state.step(0)
        am = fk.AbsorptionModel(step.M, step.G, two_state.eta0)
        for trials in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                models.survival_mc_table(am, 5, trials, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * SURVIVAL_CHUNK


class TestYaglom:
    def test_stationary_start_stays_put(self, two_state):
        step = two_state.step(0)
        eta_inf = fk.fixed_point_eta_inf(two_state)
        am = fk.AbsorptionModel(step.M, step.G, eta_inf)
        for n in (1, 5, 9):
            assert fk.yaglom_check(am, n) <= 1e-12

    def test_rank_one_converges_immediately(self):
        r = [0.25, 0.75]
        M = fk.StochasticKernel([r, r])
        am = fk.AbsorptionModel(M, fk.Potential([0.5, 0.9]), fk.ProbMeasure([0.9, 0.1]))
        assert fk.yaglom_check(am, 1) <= 1e-12

    def test_monotone_decay(self, two_state):
        step = two_state.step(0)
        am = fk.AbsorptionModel(step.M, step.G, two_state.eta0)
        d5, d10, d20 = (fk.yaglom_check(am, n) for n in (5, 10, 20))
        assert d20 < d10 < d5

    def test_spectral_absorption_link(self, two_state):
        pair = fk.eigen_h_zeta(two_state)
        step = two_state.step(0)
        assert abs(pair.zeta - pair.eta_inf.mean(step.G.values)) <= 1e-10


class TestHmmGenerate:
    def test_single_hidden_state_emissions(self):
        params = fk.HmmParams(
            transition=fk.StochasticKernel([[1.0]]),
            emission=np.array([[0.2, 0.5, 0.3]]),
            initial=fk.ProbMeasure([1.0]),
        )
        _, obs = fk.hmm_generate(params, 30_000, seed=5)
        freq = np.bincount(obs, minlength=3) / obs.size
        for s, p in enumerate((0.2, 0.5, 0.3)):
            assert abs(freq[s] - p) <= 3 * math.sqrt(p * (1 - p) / obs.size)

    def test_identity_emission_reveals_hidden_states(self, hmm_params):
        params = fk.HmmParams(
            transition=hmm_params.transition,
            emission=np.eye(2),
            initial=hmm_params.initial,
        )
        hidden, obs = fk.hmm_generate(params, 500, seed=6)
        np.testing.assert_array_equal(hidden, obs)

    def test_matches_scalar_draw_loop(self, hmm_params):
        # Reference: uniforms in the order initial, then per position emission
        # and move: the states are a Markov path on the even uniforms, each
        # symbol a draw from its state's emission CDF on the next odd one.
        u = uniforms(7, 201)
        law0, moves = hmm_params.initial.weights, hmm_params.transition.rows
        hidden = refkit.chain_path(law0, moves, u[::2])[:100]
        observed = refkit.compared(np.cumsum(hmm_params.emission, axis=1)[hidden], u[1::2])
        h, o = fk.hmm_generate(hmm_params, 100, seed=7)
        assert (h.tolist(), o.tolist()) == (hidden.tolist(), observed.tolist())

    def test_deterministic(self, hmm_params):
        a = fk.hmm_generate(hmm_params, 100, seed=7)
        b = fk.hmm_generate(hmm_params, 100, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_symbol_frequencies_match_stationary_mixture(self, hmm_params):
        n = 10**5
        _, obs = fk.hmm_generate(hmm_params, n, seed=8)
        pi = fk.stationary_distribution(hmm_params.transition).weights
        mix = pi @ hmm_params.emission
        freq = np.bincount(obs, minlength=2) / n
        for s in range(2):
            se = math.sqrt(mix[s] * (1 - mix[s]) / n)
            assert abs(freq[s] - mix[s]) <= 3 * se * 3  # slack for serial correlation


class TestHmmBuild:
    def test_rejects_zero_likelihood_symbol(self, hmm_params):
        params = fk.HmmParams(
            transition=hmm_params.transition,
            emission=np.array([[1.0, 0.0], [0.3, 0.7]]),
            initial=hmm_params.initial,
        )
        with pytest.raises(InvalidModel, match="symbol 1 at position 1 vanishes"):
            fk.hmm_build(params, [0, 1, 0])

    def test_names_the_first_position_of_a_vanishing_symbol(self, hmm_params):
        params = fk.HmmParams(
            transition=hmm_params.transition,
            emission=np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]),
            initial=hmm_params.initial,
        )
        with pytest.raises(InvalidModel, match="symbol 2 at position 3 vanishes"):
            fk.hmm_build(params, [0, 1, 0, 2, 1, 2])

    def test_one_step_per_symbol(self, hmm_params):
        _, obs = fk.hmm_generate(hmm_params, 40, seed=31)
        model = fk.hmm_build(hmm_params, obs)
        by_symbol = {int(y): model.step(t) for t, y in enumerate(obs)}
        assert len(by_symbol) == 2
        for t, y in enumerate(obs):
            assert model.step(t) is by_symbol[int(y)]

    def test_shared_steps_keep_every_bit(self, hmm_params):
        # The shared steps give the bits of a model built with one step per
        # position: the exact flow, and 50 replicates under each kernel.
        _, obs = fk.hmm_generate(hmm_params, 40, seed=31)
        shared = fk.hmm_build(hmm_params, obs)
        per_position = fk.explicit_model(
            [fk.FKStep(fk.Potential(hmm_params.emission[:, y]), hmm_params.transition)
             for y in obs],
            hmm_params.initial,
        )
        flows = [fk.propagate(model, 40) for model in (shared, per_position)]
        assert solution_bits(flows[0]) == solution_bits(flows[1])
        for choice in fk.KernelChoice:
            runs = []
            for model in (shared, per_position):
                config = fk.ExperimentConfig(model, choice, 40, 64, replicates=50, master_seed=9)
                runs.append([
                    (r.seed, r.replicate_id, r.log_gamma_N.hex(), r.log_gamma_bar.hex())
                    for r in fk.replicate_experiment(config)
                ])
            assert runs[0] == runs[1]

    def test_rejects_out_of_range_symbol(self, hmm_params):
        with pytest.raises(InvalidModel):
            fk.hmm_build(hmm_params, [0, 2])

    def test_single_state_likelihood_is_product(self):
        params = fk.HmmParams(
            transition=fk.StochasticKernel([[1.0]]),
            emission=np.array([[0.2, 0.5, 0.3]]),
            initial=fk.ProbMeasure([1.0]),
        )
        obs = [0, 2, 1, 1]
        expected = math.log(0.2) + math.log(0.3) + 2 * math.log(0.5)
        assert abs(fk.forward_likelihood(params, obs) - expected) <= 1e-14
        sol = fk.propagate(fk.hmm_build(params, obs), 4)
        assert abs(sol.log_gammas[-1] - expected) <= 1e-14

    def test_uninformative_emissions_ignore_transition(self, hmm_params):
        emission = np.array([[0.6, 0.4], [0.6, 0.4]])
        obs = [0, 1, 1, 0, 0]
        lls = []
        for rows in ([[0.7, 0.3], [0.4, 0.6]], [[0.1, 0.9], [0.9, 0.1]]):
            params = fk.HmmParams(
                transition=fk.StochasticKernel(rows),
                emission=emission,
                initial=fk.ProbMeasure([0.5, 0.5]),
            )
            lls.append(fk.forward_likelihood(params, obs))
        assert abs(lls[0] - lls[1]) <= 1e-14

    def test_dual_route_agreement(self, hmm_params):
        _, obs = fk.hmm_generate(hmm_params, 200, seed=271828)
        forward = fk.forward_likelihood(hmm_params, obs)
        recursion = fk.propagate(fk.hmm_build(hmm_params, obs), 200).log_gammas[-1]
        assert abs(forward - recursion) <= 1e-12 * abs(forward)

    def test_filtering_identity(self, hmm_params):
        # The measure flow equals the predictive filter law at every step.
        _, obs = fk.hmm_generate(hmm_params, 40, seed=31)
        fkm = fk.hmm_build(hmm_params, obs)
        sol = fk.propagate(fkm, 40)
        for n in (1, 7, 25, 40):
            filt = hmm_filter(hmm_params, obs[:n])
            assert fk.total_variation(sol.etas[n], filt) <= 1e-12


class TestForwardLikelihood:
    def test_empty_sequence(self, hmm_params):
        assert fk.forward_likelihood(hmm_params, []) == 0.0

    def test_zero_probability_sequence(self):
        params = fk.HmmParams(
            transition=fk.StochasticKernel([[1.0, 0.0], [0.0, 1.0]]),
            emission=np.array([[1.0, 0.0], [0.0, 1.0]]),
            initial=fk.ProbMeasure([1.0, 0.0]),
        )
        with pytest.raises(InvalidModel):
            fk.forward_likelihood(params, [0, 1])


def word_law_gap(params: fk.HmmParams, longest: int = 4) -> float:
    """Largest gap, over every symbol word of length 1..``longest``, between
    the word's probability under ``hmm_env_chain`` started from its
    stationary law and the HMM's own probability of it, by the forward
    recursion started from the hidden chain's stationary law.  Each
    environment state emits the symbol whose emission column is its
    potential."""
    chain = models.hmm_env_chain(params)
    e = params.emission
    symbol = np.array([
        np.flatnonzero((e.T == chain.potential(s).values).all(axis=1))[0]
        for s in range(chain.env_size)
    ])
    stationary = fk.HmmParams(
        params.transition, e, fk.stationary_distribution(params.transition)
    )
    gap = 0.0
    for length in range(1, longest + 1):
        for word in itertools.product(range(params.symbol_count), repeat=length):
            weights = chain.stationary.weights * (symbol == word[0])
            for y in word[1:]:
                weights = (weights @ chain.transition.rows) * (symbol == y)
            exact = math.exp(fk.forward_likelihood(stationary, word))
            gap = max(gap, abs(float(weights.sum()) - exact))
    return gap


class TestHmmEnvironment:
    def test_words_have_the_observation_law(self, hmm_params):
        rng = np.random.default_rng(2027)
        three = fk.HmmParams(
            transition=fk.StochasticKernel(rng.dirichlet(np.ones(3), size=3)),
            emission=rng.dirichlet(np.ones(3), size=3),
            initial=fk.ProbMeasure.uniform(3),
        )
        for params in (hmm_params, three):
            assert word_law_gap(params) <= 1e-14

    def test_env_chain_shape(self, hmm_params):
        chain = hmm_env_chain(hmm_params)
        assert chain.env_size == hmm_params.hidden_count * hmm_params.symbol_count
        assert chain.state_dim == hmm_params.hidden_count

    def test_rejects_zero_emission_entries(self, hmm_params):
        params = fk.HmmParams(
            transition=hmm_params.transition,
            emission=np.array([[1.0, 0.0], [0.3, 0.7]]),
            initial=hmm_params.initial,
        )
        with pytest.raises(InvalidModel):
            hmm_env_chain(params)

    def test_entropy_rate_estimates_agree(self, hmm_params):
        # Two estimates of the per-observation log-likelihood rate: the
        # truncated-window filter along the realized observation path, and
        # the exact forward recursion.  They agree up to window truncation
        # and boundary effects.
        chain = hmm_env_chain(hmm_params)
        n, depth = 3000, 40
        hidden, obs = fk.hmm_generate(hmm_params, n, seed=314159)
        path = EnvPath(hidden * hmm_params.symbol_count + obs, 0)
        logs = []
        for p in range(depth, n):
            eta = eta_inf_env(chain, path, p, depth)
            logs.append(math.log(eta.mean(chain.potential(path.state(p)).values)))
        windowed = float(np.mean(logs))
        exact_rate = fk.forward_likelihood(hmm_params, obs) / n
        assert windowed < 0.0
        assert abs(windowed - exact_rate) <= 0.01
