from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fkclt as fk
from fkclt.core import SAMPLING_TABLES_MAX, InvalidModel, _categorical
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


def _models(d):
    """A homogeneous, an explicit and an environment model of dimension d,
    built afresh from fixed seeds on every call."""
    rng = np.random.default_rng(700 + d)
    chain = random_chain(rng, 3, d, floor=1e-3)
    return {
        "homogeneous": random_model(rng, d, transport_safe=True),
        "explicit": random_explicit_model(rng, d, 17),
        "environment": fk.env_model(chain, fk.sample_env_path(chain, 0, 18, seed=d)),
    }


class TestSamplingTableMemo:
    """The per-step sampling tables are kept by (kernel, state counts); a run
    on a warm model must give the bits of the uncached loop."""

    # Kernels and particle counts interleaved on one model object, so every
    # run after the first reads tables that earlier runs built.
    SEQUENCE = [(7, MULTI), (64, TRANS), (7, MULTI), (7, TRANS), (64, MULTI), (1, TRANS)]

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_warm_and_cold_runs_match_the_reference(self, d):
        for kind, model in _models(d).items():
            for round_ in range(2):
                for N, choice in self.SEQUENCE:
                    seed = 11 * N + round_
                    want = reference_run(model, N, 17, choice, seed)
                    assert fk.run(model, N, 17, choice, seed).log_gamma_N == want, (
                        kind, round_, N, choice
                    )
                    cold = _models(d)[kind]
                    assert fk.run(cold, N, 17, choice, seed).log_gamma_N == want

    def test_tables_are_kept_per_step_and_kernel(self):
        model = _models(3)["explicit"]
        fk.run(model, 5, 3, MULTI, seed=1)
        fk.run(model, 5, 3, TRANS, seed=1)
        for p in range(3):
            shapes = sorted(t.shape for t in model.step(p)._tables.values())
            assert shapes == [(3,), (3, 3)]
            assert all(not t.flags.writeable for t in model.step(p)._tables.values())
        assert not model.step(3)._tables

    def test_table_count_stays_at_its_cap(self):
        # d = 5 at N = 1000 gives a new count vector nearly every step, so
        # 45 runs of 100 steps ask for more tables than the cap.
        rng = np.random.default_rng(9)
        model = random_model(rng, 5, transport_safe=True)
        for seed in range(45):
            fk.run(model, 1000, 100, TRANS if seed % 2 else MULTI, seed)
        assert len(model.step(0)._tables) == SAMPLING_TABLES_MAX
        for choice in fk.KernelChoice:
            got = fk.run(model, 1000, 20, choice, seed=99).log_gamma_N
            assert got == reference_run(model, 1000, 20, choice, 99)
        assert len(model.step(0)._tables) == SAMPLING_TABLES_MAX

    @pytest.mark.parametrize("kind", ["homogeneous", "explicit", "environment"])
    def test_pickled_bytes_do_not_change_with_use(self, kind):
        model = _models(2)[kind]
        before = pickle.dumps(model)
        for choice in fk.KernelChoice:
            fk.run(model, 16, 17, choice, seed=5)
        assert model.step(0)._tables
        assert pickle.dumps(model) == before
        copy = pickle.loads(before)
        assert not copy.step(0)._tables
        warm = fk.run(model, 16, 17, TRANS, seed=5).log_gamma_N
        assert fk.run(copy, 16, 17, TRANS, seed=5).log_gamma_N == warm


# Steps every property example may schedule: they keep their sampling
# tables from one example to the next, so later examples run on a warm memo.
_SHARED_STEPS = {}


def _shared_steps(d):
    if d not in _SHARED_STEPS:
        rng = np.random.default_rng(900 + d)
        _SHARED_STEPS[d] = [
            fk.FKStep(
                fk.Potential(10.0 ** rng.uniform(-12.0, 0.0, size=d)),
                fk.StochasticKernel(rng.dirichlet(np.ones(d), size=d)),
            )
            for _ in range(3)
        ]
    return _SHARED_STEPS[d]


@st.composite
def _small_runs(draw):
    """A random small model (d <= 4, potentials in [1e-12, 1], up to 20
    steps drawn from the shared steps and one fresh step) and up to three
    runs of it (N <= 40, either kernel)."""
    d = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)
    weights = np.array(draw(st.lists(unit, min_size=d * d, max_size=d * d))).reshape(d, d)
    weights[weights.sum(axis=1) == 0.0] = 1.0
    potential = draw(st.lists(st.floats(1e-12, 1.0), min_size=d, max_size=d))
    rows = weights / weights.sum(axis=1, keepdims=True)
    fresh = fk.FKStep(fk.Potential(potential), fk.StochasticKernel(rows))
    pool = _shared_steps(d) + [fresh]
    n = draw(st.integers(0, 20))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=max(n, 1), max_size=max(n, 1)))
    eta0 = np.array(draw(st.lists(unit, min_size=d, max_size=d))) + 1e-3
    model = fk.explicit_model([pool[i] for i in picks], fk.ProbMeasure(eta0 / eta0.sum()))
    runs = draw(
        st.lists(
            st.tuples(st.integers(1, 40), st.sampled_from(list(fk.KernelChoice)),
                      st.integers(0, 2**64 - 1)),
            min_size=1,
            max_size=3,
        )
    )
    return model, n, runs


class TestRunProperty:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(_small_runs())
    def test_run_equals_the_uncached_loop(self, case):
        model, n, runs = case
        for N, choice, seed in runs:
            assert fk.run(model, N, n, choice, seed).log_gamma_N == reference_run(
                model, N, n, choice, seed
            )


# Potentials down to the smallest subnormal: products and sums of them round
# to 0, which reaches the exact flow's logarithms and the engine's 0/0.
_TINY_POTENTIALS = (5e-324, 1e-323, 1e-310, 1e-300, 1e-12, 0.5, 1.0)


@st.composite
def _tiny_potential_cases(draw):
    """A model of up to three steps (d <= 4, potentials from
    ``_TINY_POTENTIALS``) scheduled over n <= 30 steps, and one run of it
    (N <= 16, either kernel)."""
    d = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        weights = np.array(draw(st.lists(unit, min_size=d * d, max_size=d * d))).reshape(d, d)
        weights[weights.sum(axis=1) == 0.0] = 1.0
        potential = draw(st.lists(st.sampled_from(_TINY_POTENTIALS), min_size=d, max_size=d))
        rows = weights / weights.sum(axis=1, keepdims=True)
        pool.append(fk.FKStep(fk.Potential(potential), fk.StochasticKernel(rows)))
    n = draw(st.integers(0, 30))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=max(n, 1), max_size=max(n, 1)))
    eta0 = np.array(draw(st.lists(unit, min_size=d, max_size=d))) + 1e-3
    model = fk.explicit_model([pool[i] for i in picks], fk.ProbMeasure(eta0 / eta0.sum()))
    N = draw(st.integers(1, 16))
    choice = draw(st.sampled_from(list(fk.KernelChoice)))
    return model, n, N, choice, draw(st.integers(0, 2**64 - 1))


def _finite_or_fk_error(compute):
    """``compute()`` returns finite floats or raises an ``FKError``; after an
    error a second call raises the same type, so a failed build is not kept."""
    try:
        value = compute()
    except fk.FKError as exc:
        with pytest.raises(type(exc)):
            compute()
    else:
        assert np.isfinite(np.asarray(value, dtype=float)).all(), value


def _solution_values(solution):
    weights = [eta.weights for eta in solution.etas]
    return np.concatenate([*weights, solution.log_gammas, solution.potential_means])


# Seed 1 reaches counts (4, 4), where every reweighted count of this model
# rounds to 0.
_ALL_SUBNORMAL = fk.homogeneous_model(
    fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]]),
    fk.Potential([5e-324, 5e-324]),
    fk.ProbMeasure([0.5, 0.5]),
)


class TestTinyPotentialProperty:
    # numpy warns on the subnormal arithmetic (0/0, log of 0) before the
    # package's own checks raise, so this test alone lets RuntimeWarning pass.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @example((_ALL_SUBNORMAL, 3, 8, MULTI, 1))
    @example((_ALL_SUBNORMAL, 3, 8, TRANS, 1))
    @given(_tiny_potential_cases())
    def test_finite_values_or_a_model_error(self, case):
        model, n, N, choice, seed = case
        _finite_or_fk_error(lambda: _solution_values(fk.propagate(model, n)))
        _finite_or_fk_error(lambda: fk.v_n(model, choice, n))
        _finite_or_fk_error(lambda: fk.run(model, N, n, choice, seed).log_gamma_N)
        for p in range(n):
            for table in model.step(p)._tables.values():
                assert np.isfinite(table).all()


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
        # Multinomial tables of the failing step are kept; the transport
        # check must still run, on every run of the same model object.
        assert model.step(2)._tables
        for seed in range(3):
            with pytest.raises(InvalidModel, match="<= 1"):
                fk.run(model, 16, 3, TRANS, seed)

    def test_vanishing_potential_mean_raises_on_every_run(self):
        # A validated Potential is positive, so its empirical mean cannot
        # vanish; build one that skips the checks to reach the engine's own.
        M = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]])
        zero = object.__new__(fk.Potential)
        object.__setattr__(zero, "values", np.zeros(2))
        model = fk.explicit_model(
            [fk.FKStep(fk.Potential([0.5, 0.9]), M), fk.FKStep(zero, M)],
            fk.ProbMeasure([0.5, 0.5]),
        )
        for seed in range(3):
            for choice in fk.KernelChoice:
                fk.run(model, 8, 1, choice, seed)
                with pytest.raises(InvalidModel, match="vanished at step 1"):
                    fk.run(model, 8, 2, choice, seed)


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
