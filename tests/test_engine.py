from __future__ import annotations

import math

import numpy as np
import pytest

import fkclt as fk
from fkclt.core import InvalidModel, _categorical
from fkclt.engine import derive_seed

from conftest import random_chain, random_explicit_model, random_model

MULTI = fk.KernelChoice.MULTINOMIAL
TRANS = fk.KernelChoice.TRANSPORT


def empirical(system: fk.ParticleSystem) -> fk.ProbMeasure:
    return fk.ProbMeasure(np.bincount(system.states, minlength=system.d) / system.N)


class TestSeeds:
    def test_derived_seeds_are_distinct(self):
        seeds = {derive_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    def test_stream_determinism_and_position(self):
        a = fk.RngStream(123)
        b = fk.RngStream(123)
        np.testing.assert_array_equal(a.uniforms(100), b.uniforms(100))
        assert a.position == 100
        assert a.uniforms(3).shape == (3,)
        assert a.position == 103


class TestInit:
    def test_point_mass_initial_law(self, two_state):
        model = fk.FKModel(fk.ProbMeasure.point(2, 0), two_state.schedule)
        system = fk.init_particles(model, 500, seed=5)
        assert (system.states == 0).all()

    def test_same_seed_same_system(self, two_state):
        a = fk.init_particles(two_state, 256, seed=99)
        b = fk.init_particles(two_state, 256, seed=99)
        np.testing.assert_array_equal(a.states, b.states)

    def test_zero_particles_rejected(self, two_state):
        with pytest.raises(ValueError):
            fk.init_particles(two_state, 0, seed=1)

    def test_initial_frequencies(self, two_state):
        N = 10**5
        system = fk.init_particles(two_state, N, seed=7)
        freq = (system.states == 0).mean()
        assert abs(freq - 0.5) <= 3.0 / (2.0 * math.sqrt(N))


class TestStep:
    def test_single_particle_multinomial_moves_by_M(self, two_state):
        # With N = 1 the empirical measure is the point mass, so the
        # reweighted and mutated law collapses to the corresponding row of M.
        counts = np.zeros(2)
        reps = 4000
        model = fk.FKModel(fk.ProbMeasure.point(2, 0), two_state.schedule)
        for r in range(reps):
            system = fk.init_particles(model, 1, seed=derive_seed(1001, r))
            moved = fk.step(system, model, MULTI)
            counts[moved.states[0]] += 1
        freq = counts[0] / reps
        se = math.sqrt(0.7 * 0.3 / reps)
        assert abs(freq - 0.7) <= 3 * se

    def test_transport_pure_mutation_when_potential_one(self, two_state):
        M = two_state.step(0).M
        model = fk.homogeneous_model(M, fk.Potential([1.0, 1.0]), fk.ProbMeasure.point(2, 0))
        N = 20_000
        system = fk.init_particles(model, N, seed=3)
        moved = fk.step(system, model, TRANS)
        freq = (moved.states == 0).mean()
        se = math.sqrt(0.7 * 0.3 / N)
        assert abs(freq - 0.7) <= 3 * se

    def test_conditional_mean_matches_measure_flow(self, two_state):
        # Repeated one-step transitions from one frozen system: the mean of
        # the empirical integral must match the exact one-step measure flow.
        N = 256
        frozen = fk.init_particles(two_state, N, seed=17)
        frozen_states = frozen.states.copy()
        step0 = two_state.step(0)
        mu = empirical(frozen)
        f = np.array([0.0, 1.0])
        target = fk.phi_step(mu, step0.G, step0.M).mean(f)
        reps = 10_000
        vals = np.empty(reps)
        for r in range(reps):
            system = fk.ParticleSystem(frozen_states, 0, fk.RngStream(derive_seed(29, r)), 2)
            moved = fk.step(system, two_state, MULTI)
            vals[r] = f[moved.states].mean()
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) <= 3 * se

    def test_multinomial_one_step_law_chi_square(self, two_state):
        # Given the past, all N particles are iid from the reweighted,
        # mutated empirical measure; chi-square on pooled counts, 1 dof.
        N = 128
        frozen = fk.init_particles(two_state, N, seed=41)
        frozen_states = frozen.states.copy()
        step0 = two_state.step(0)
        expected_law = fk.phi_step(empirical(frozen), step0.G, step0.M).weights
        reps = 2000
        counts = np.zeros(2)
        for r in range(reps):
            system = fk.ParticleSystem(frozen_states, 0, fk.RngStream(derive_seed(43, r)), 2)
            counts += np.bincount(fk.step(system, two_state, MULTI).states, minlength=2)
        total = reps * N
        expected = expected_law * total
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= 10.83  # 99.9% quantile at 1 dof

    def test_transport_keep_rate_lower_bound(self, two_state):
        # P(stay at x) >= G(x) M(x, x); check per state with 3 binomial SEs.
        N = 256
        frozen = fk.init_particles(two_state, N, seed=59)
        frozen_states = frozen.states.copy()
        step0 = two_state.step(0)
        reps = 3000
        stays = np.zeros(2)
        totals = np.zeros(2)
        for r in range(reps):
            system = fk.ParticleSystem(frozen_states, 0, fk.RngStream(derive_seed(61, r)), 2)
            moved = fk.step(system, two_state, TRANS)
            for x in (0, 1):
                mask = frozen_states == x
                stays[x] += (moved.states[mask] == x).sum()
                totals[x] += mask.sum()
        for x in (0, 1):
            rate = stays[x] / totals[x]
            bound = step0.G.values[x] * step0.M.rows[x, x]
            se = math.sqrt(rate * (1 - rate) / totals[x])
            assert rate >= bound - 3 * se


def reference_run(model, N, n, choice, seed):
    """log gamma_N by the plain loop: np.mean of the potential, a validated
    ParticleSystem per generation, np.cumsum, and every kernel row built
    from scratch each generation."""
    stream = fk.RngStream(seed)
    states = _categorical(np.cumsum(model.eta0.weights), stream.uniforms(N))
    system = fk.ParticleSystem(states, 0, stream, model.d)
    log_gamma = 0.0
    for p in range(n):
        step = model.step(p)
        g, m = step.G.values, step.M.rows
        log_gamma += math.log(float(np.mean(g[system.states])))
        mu_w = np.bincount(system.states, minlength=model.d) / N
        w = mu_w * g
        phi = (w / w.sum()) @ m
        if choice is MULTI:
            cumulative, rows = np.cumsum(phi), None
        else:
            if g.max() > 1.0:
                raise InvalidModel("transport kernel needs potential values <= 1")
            kernel = g[:, None] * m + (1.0 - g)[:, None] * phi[None, :]
            cumulative, rows = np.cumsum(kernel, axis=1), system.states
        states = _categorical(cumulative, stream.uniforms(N), rows)
        system = fk.ParticleSystem(states, p + 1, stream, model.d)
    return log_gamma


class TestRunReference:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_bit_for_bit(self, d):
        rng = np.random.default_rng(500 + d)
        chain = random_chain(rng, 3, d, floor=1e-3)
        models = {
            "homogeneous": random_model(rng, d, transport_safe=True),
            "explicit": random_explicit_model(rng, d, 17),
            "environment": fk.env_model(chain, fk.sample_env_path(chain, 0, 18, seed=d)),
        }
        for kind, model in models.items():
            for choice in fk.KernelChoice:
                for N in (1, 7, 64):
                    for n in (0, 1, 17):
                        for seed in (3, 2**40 + 1):
                            got = fk.run(model, N, n, choice, seed).log_gamma_N
                            assert got == reference_run(model, N, n, choice, seed), (
                                kind, choice, N, n, seed
                            )


class TestEdges:
    @pytest.mark.parametrize(
        "states, message",
        [
            ([0, -1, 1], "out of range"),
            ([0, 3, 1], "out of range"),
            ([], "at least one particle"),
            ([[0, 1], [1, 0]], "at least one particle"),
        ],
    )
    def test_particle_system_rejects_bad_states(self, states, message):
        with pytest.raises(InvalidModel, match=message):
            fk.ParticleSystem(states, 0, fk.RngStream(1), 3)

    @pytest.mark.parametrize("choice", [MULTI, TRANS])
    def test_successor_invariants(self, two_state, choice):
        system = fk.init_particles(two_state, 50, seed=8)
        for p in range(1, 4):
            position = system.stream.position
            moved = fk.step(system, two_state, choice)
            assert moved.states.dtype == np.int64
            assert not moved.states.flags.writeable
            assert moved.states.shape == (50,)
            assert 0 <= moved.states.min() and moved.states.max() < 2
            assert moved.step == p and moved.d == 2
            assert moved.stream is system.stream
            assert moved.stream.position == position + 50
            system = moved

    def test_transport_parts_are_the_step_split(self):
        step = fk.FKStep(fk.Potential([0.2, 1.0]), fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]]))
        gm, rest = step.transport_parts
        assert step.transport_parts[0] is gm
        assert not gm.flags.writeable and not rest.flags.writeable
        np.testing.assert_array_equal(gm, step.G.values[:, None] * step.M.rows)
        np.testing.assert_array_equal(rest, 1.0 - step.G.values)

    def test_late_potential_above_one_raises_at_its_step(self):
        M = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]])
        low, high = fk.Potential([0.5, 0.9]), fk.Potential([0.5, 1.5])
        model = fk.explicit_model(
            [fk.FKStep(low, M), fk.FKStep(low, M), fk.FKStep(high, M)],
            fk.ProbMeasure([0.5, 0.5]),
        )
        system = fk.init_particles(model, 16, seed=2)
        for _ in range(2):
            system = fk.step(system, model, TRANS)
        for _ in range(2):  # a failed check is not cached away
            with pytest.raises(InvalidModel, match="<= 1"):
                fk.step(system, model, TRANS)
        assert system.stream.position == 3 * 16
        with pytest.raises(InvalidModel, match="<= 1"):
            fk.run(model, 16, 3, TRANS, seed=2)
        fk.run(model, 16, 2, TRANS, seed=2)
        fk.run(model, 16, 3, MULTI, seed=2)


class TestRun:
    def test_constant_potential_is_exact(self, two_state):
        # gamma_bar = 1 for every seed: the per-step factors cancel exactly,
        # up to float rounding of the log accumulation.
        M = two_state.step(0).M
        model = fk.homogeneous_model(M, fk.Potential([0.4, 0.4]), fk.ProbMeasure([0.5, 0.5]))
        exact = fk.propagate(model, 50).log_gammas[-1]
        for seed in (1, 2, 3):
            for choice in fk.KernelChoice:
                record = fk.run(model, 32, 50, choice, seed, oracle_log_gamma=exact)
                assert abs(record.log_gamma_bar) <= 1e-12

    def test_zero_steps(self, two_state):
        record = fk.run(two_state, 16, 0, MULTI, seed=4, oracle_log_gamma=0.0)
        assert record.log_gamma_N == 0.0
        assert record.log_gamma_bar == 0.0

    def test_log_domain_handles_long_horizons(self):
        # The plain product underflows after ~750 steps at G = 0.01; the log
        # accumulation must not.
        M = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]])
        model = fk.homogeneous_model(M, fk.Potential([0.01, 0.01]), fk.ProbMeasure([0.5, 0.5]))
        record = fk.run(model, 8, 2000, MULTI, seed=10)
        assert math.isfinite(record.log_gamma_N)
        assert abs(record.log_gamma_N - 2000 * math.log(0.01)) <= 1e-9 * abs(record.log_gamma_N)

    def test_determinism_bit_exact(self, two_state):
        a = fk.run(two_state, 64, 32, TRANS, seed=77, oracle_log_gamma=0.0)
        b = fk.run(two_state, 64, 32, TRANS, seed=77, oracle_log_gamma=0.0)
        assert a.log_gamma_N == b.log_gamma_N
        assert a.log_gamma_bar == b.log_gamma_bar
        c = fk.run(two_state, 64, 32, TRANS, seed=78, oracle_log_gamma=0.0)
        assert c.log_gamma_N != a.log_gamma_N

    def test_unbiasedness_at_small_scale(self, two_state):
        exact = fk.propagate(two_state, 16).log_gammas[-1]
        bars = []
        for r in range(600):
            record = fk.run(
                two_state, 32, 16, MULTI, derive_seed(83, r), oracle_log_gamma=exact
            )
            bars.append(record.gamma_bar)
        bars = np.array(bars)
        z = (bars.mean() - 1.0) / (bars.std(ddof=1) / math.sqrt(bars.size))
        assert abs(z) <= 3.0


class TestErrorFields:
    def test_local_field_zero_for_constants(self, two_state):
        before = fk.init_particles(two_state, 64, seed=5)
        after = fk.step(before, two_state, MULTI)
        assert fk.local_error_field(before, after, two_state, [2.0, 2.0]) == 0.0

    def test_local_field_requires_successor(self, two_state):
        a = fk.init_particles(two_state, 64, seed=5)
        b = fk.init_particles(two_state, 64, seed=6)
        with pytest.raises(InvalidModel):
            fk.local_error_field(a, b, two_state, [0.0, 1.0])

    @pytest.mark.parametrize("choice", [MULTI, TRANS])
    def test_local_field_is_centered_with_kernel_variance(self, two_state, choice):
        # Martingale increment: mean 0; variance equal to the one-step
        # conditional covariance of the chosen kernel.
        N = 256
        frozen = fk.init_particles(two_state, N, seed=67)
        frozen_states = frozen.states.copy()
        step0 = two_state.step(0)
        f = fk.FunctionVector([0.0, 1.0])
        reps = 10_000
        vals = np.empty(reps)
        for r in range(reps):
            system = fk.ParticleSystem(frozen_states, 0, fk.RngStream(derive_seed(71, r)), 2)
            after = fk.step(system, two_state, choice)
            vals[r] = fk.local_error_field(system, after, two_state, f)
        target_var = fk.cov_operator(choice, empirical(frozen), step0.G, step0.M, f, f)
        se_mean = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) <= 3 * se_mean
        sample_var = vals.var(ddof=1)
        se_var = sample_var * math.sqrt(2.0 / (reps - 1))
        assert abs(sample_var - target_var) <= 3 * se_var

    def test_global_field_zero_for_constants(self, two_state):
        sol = fk.propagate(two_state, 0)
        system = fk.init_particles(two_state, 128, seed=3)
        assert fk.global_error_field(system, sol.etas[0], [5.0, 5.0]) == 0.0

    def test_global_field_initial_variance(self, two_state):
        # At step 0 the field is a centered iid sum with variance Var(f).
        f = np.array([0.0, 1.0])
        reps = 4000
        vals = np.empty(reps)
        eta0 = two_state.eta0
        for r in range(reps):
            system = fk.init_particles(two_state, 200, seed=derive_seed(89, r))
            vals[r] = fk.global_error_field(system, eta0, f)
        target = eta0.mean(f * f) - eta0.mean(f) ** 2
        sample_var = vals.var(ddof=1)
        se_var = sample_var * math.sqrt(2.0 / (reps - 1))
        assert abs(sample_var - target) <= 3 * se_var

    def test_global_field_fourth_moment_bounded(self, two_state):
        # Uniform-in-n moment bound; threshold frozen at 1.0 after measuring
        # a maximum of 0.37 over this configuration.
        FROZEN_FOURTH_MOMENT = 1.0
        sol = fk.propagate(two_state, 20)
        f = fk.FunctionVector([0.0, 1.0])
        reps = 150
        fourth = np.zeros(21)
        for r in range(reps):
            system = fk.init_particles(two_state, 10**4, derive_seed(97, r))
            fourth[0] += fk.global_error_field(system, sol.etas[0], f) ** 4
            for n in range(1, 21):
                system = fk.step(system, two_state, MULTI)
                fourth[n] += fk.global_error_field(system, sol.etas[n], f) ** 4
        assert (fourth / reps).max() <= FROZEN_FOURTH_MOMENT
