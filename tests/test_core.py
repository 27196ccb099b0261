from __future__ import annotations

import numpy as np
import pytest

import fkclt as fk
from fkclt.core import DimensionMismatch, InvalidModel, _categorical, _chain_path, _cov_raw

from conftest import random_model


M2 = [[0.7, 0.3], [0.4, 0.6]]
G2 = [0.5, 0.9]


def make_pieces():
    return (
        fk.ProbMeasure([0.5, 0.5]),
        fk.Potential(G2),
        fk.StochasticKernel(M2),
    )


class TestConstruction:
    def test_prob_measure_rejects_bad_sum(self):
        with pytest.raises(InvalidModel):
            fk.ProbMeasure([0.5, 0.6])

    def test_prob_measure_rejects_negative(self):
        with pytest.raises(InvalidModel):
            fk.ProbMeasure([1.1, -0.1])

    def test_prob_measure_renormalizes_tiny_drift(self):
        mu = fk.ProbMeasure([0.5 + 1e-10, 0.5])
        assert abs(mu.weights.sum() - 1.0) <= 1e-12

    def test_kernel_rejects_bad_rows(self):
        with pytest.raises(InvalidModel):
            fk.StochasticKernel([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(DimensionMismatch):
            fk.StochasticKernel([[0.5, 0.5]])

    def test_potential_rejects_zero_and_negative(self):
        with pytest.raises(InvalidModel):
            fk.Potential([0.5, 0.0])
        with pytest.raises(InvalidModel):
            fk.Potential([0.5, -0.2])

    def test_function_vector_rejects_nan(self):
        with pytest.raises(InvalidModel):
            fk.FunctionVector([1.0, float("nan")])

    def test_state_space_needs_a_state(self):
        # A model's state space {0, ..., d-1} takes d from its initial law.
        with pytest.raises(DimensionMismatch):
            fk.ProbMeasure([])

    def test_values_are_immutable(self):
        mu, G, M = make_pieces()
        for arr in (mu.weights, G.values, M.rows):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_kernel_choice_parse(self):
        assert fk.KernelChoice.parse("Multinomial") is fk.KernelChoice.MULTINOMIAL
        assert fk.KernelChoice.parse("transport") is fk.KernelChoice.TRANSPORT
        with pytest.raises(InvalidModel):
            fk.KernelChoice.parse("stratified")


class TestModelConstruction:
    def test_explicit_model_checks_every_step_when_built(self):
        mu, G, M = make_pieces()
        two = fk.FKStep(G, M)
        three = fk.FKStep(fk.Potential([0.5, 0.9, 0.7]), fk.StochasticKernel.identity(3))
        with pytest.raises(DimensionMismatch, match="step 2 has dimension 3"):
            fk.explicit_model([two, two, three], mu)
        with pytest.raises(DimensionMismatch):
            fk.explicit_model([three], mu)
        with pytest.raises(InvalidModel):
            fk.explicit_model([], mu)

    def test_model_checks_schedule_against_initial_law(self):
        _, G, M = make_pieces()
        with pytest.raises(DimensionMismatch):
            fk.homogeneous_model(M, G, fk.ProbMeasure([0.2, 0.3, 0.5]))
        with pytest.raises(DimensionMismatch):
            fk.homogeneous_model(M, fk.Potential([0.5, 0.9, 0.7]), fk.ProbMeasure([0.5, 0.5]))

    def test_homogeneous_schedule_stores_one_step(self):
        mu, G, M = make_pieces()
        model = fk.homogeneous_model(M, G, mu)
        assert model.d == 2
        assert model.step(0) is model.step(7)
        np.testing.assert_array_equal(model.step(3).G.values, G.values)
        with pytest.raises(fk.ScheduleExhausted):
            model.step(-1)


class TestBoltzmannGibbs:
    def test_reference_value(self):
        mu, G, _ = make_pieces()
        out = fk.boltzmann_gibbs(mu, G)
        np.testing.assert_allclose(out.weights, [5 / 14, 9 / 14], atol=1e-15)

    def test_constant_potential_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mu = fk.ProbMeasure(rng.dirichlet(np.ones(4)))
            out = fk.boltzmann_gibbs(mu, fk.Potential([0.3] * 4))
            np.testing.assert_allclose(out.weights, mu.weights, atol=1e-14)

    def test_point_mass_is_fixed(self):
        out = fk.boltzmann_gibbs(fk.ProbMeasure.point(2, 0), fk.Potential(G2))
        np.testing.assert_allclose(out.weights, [1.0, 0.0], atol=0)

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            mu = fk.ProbMeasure(rng.dirichlet(np.ones(d)))
            G = fk.Potential(rng.uniform(0.05, 5.0, size=d))
            assert abs(fk.boltzmann_gibbs(mu, G).weights.sum() - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fk.boltzmann_gibbs(fk.ProbMeasure([0.5, 0.5]), fk.Potential([1.0, 1.0, 1.0]))


class TestPhiStep:
    def test_reference_value(self):
        mu, G, M = make_pieces()
        out = fk.phi_step(mu, G, M)
        np.testing.assert_allclose(out.weights, [71 / 140, 69 / 140], atol=1e-15)

    def test_identity_kernel_constant_potential(self):
        mu = fk.ProbMeasure([0.2, 0.3, 0.5])
        out = fk.phi_step(mu, fk.Potential([2.0] * 3), fk.StochasticKernel.identity(3))
        np.testing.assert_allclose(out.weights, mu.weights, atol=1e-15)

    def test_rank_one_kernel_forgets_input(self):
        r = [0.25, 0.75]
        M = fk.StochasticKernel([r, r])
        for w in ([0.5, 0.5], [0.9, 0.1], [0.0, 1.0]):
            out = fk.phi_step(fk.ProbMeasure(w), fk.Potential(G2), M)
            np.testing.assert_allclose(out.weights, r, atol=1e-15)


class TestKernelRow:
    def test_multinomial_matches_phi_step_any_site(self):
        mu, G, M = make_pieces()
        phi = fk.phi_step(mu, G, M)
        for x in (0, 1):
            row = fk.kernel_row(fk.KernelChoice.MULTINOMIAL, mu, G, M, x)
            np.testing.assert_allclose(row.weights, phi.weights, atol=0)

    def test_transport_no_resampling_when_potential_is_one(self):
        mu, _, M = make_pieces()
        G1 = fk.Potential([1.0, 1.0])
        for x in (0, 1):
            row = fk.kernel_row(fk.KernelChoice.TRANSPORT, mu, G1, M, x)
            np.testing.assert_allclose(row.weights, M.rows[x], atol=1e-15)

    def test_transport_reference_row(self):
        mu, G, M = make_pieces()
        row = fk.kernel_row(fk.KernelChoice.TRANSPORT, mu, G, M, 0)
        np.testing.assert_allclose(row.weights, [169 / 280, 111 / 280], atol=1e-15)

    def test_transport_rejects_large_potential(self):
        mu, _, M = make_pieces()
        with pytest.raises(InvalidModel):
            fk.kernel_row(fk.KernelChoice.TRANSPORT, mu, fk.Potential([0.5, 1.5]), M, 0)

    def test_mixture_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            model = random_model(rng, d, transport_safe=True)
            step = model.step(0)
            mu = fk.ProbMeasure(rng.dirichlet(np.ones(d)))
            phi = fk.phi_step(mu, step.G, step.M)
            for choice in fk.KernelChoice:
                mix = sum(
                    mu.weights[x] * fk.kernel_row(choice, mu, step.G, step.M, x).weights
                    for x in range(d)
                )
                np.testing.assert_allclose(mix, phi.weights, atol=1e-12)


class TestCovOperator:
    def test_constant_function_gives_zero(self):
        mu, G, M = make_pieces()
        for choice in fk.KernelChoice:
            cov = fk.cov_operator(choice, mu, G, M, [3.0, 3.0], [1.0, -2.0])
            assert abs(cov) <= 1e-14

    def test_multinomial_reference_value(self):
        mu, G, M = make_pieces()
        f = fk.FunctionVector.indicator(2, 1)
        cov = fk.cov_operator(fk.KernelChoice.MULTINOMIAL, mu, G, M, f, f)
        assert abs(cov - (69 / 140) * (71 / 140)) <= 1e-15

    def test_transport_reference_value(self):
        mu, G, M = make_pieces()
        f = np.array([0.0, 1.0])
        # Independent route: build both rows from the definition and average
        # the per-site Bernoulli variances.
        phi = np.array([71 / 140, 69 / 140])
        rows = np.array(
            [
                0.5 * np.array(M2[0]) + 0.5 * phi,
                0.9 * np.array(M2[1]) + 0.1 * phi,
            ]
        )
        expected = 0.5 * (rows[0] @ f - (rows[0] @ f) ** 2) + 0.5 * (
            rows[1] @ f - (rows[1] @ f) ** 2
        )
        cov = fk.cov_operator(fk.KernelChoice.TRANSPORT, mu, G, M, f, f)
        assert abs(cov - expected) <= 1e-14
        assert abs(cov - 0.240650) <= 1e-6

    def test_nonnegative_symmetric_bilinear(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            model = random_model(rng, d, transport_safe=True)
            step = model.step(0)
            mu = fk.ProbMeasure(rng.dirichlet(np.ones(d)))
            f = rng.normal(size=d)
            g = rng.normal(size=d)
            a, b = rng.normal(size=2)
            for choice in fk.KernelChoice:
                assert fk.cov_operator(choice, mu, step.G, step.M, f, f) >= -1e-14
                c_fg = fk.cov_operator(choice, mu, step.G, step.M, f, g)
                c_gf = fk.cov_operator(choice, mu, step.G, step.M, g, f)
                assert abs(c_fg - c_gf) <= 1e-12
                lhs = fk.cov_operator(choice, mu, step.G, step.M, a * f + b * g, g)
                rhs = a * c_gf + b * fk.cov_operator(choice, mu, step.G, step.M, g, g)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_lipschitz_in_the_measure(self):
        # Constant fitted once over 400 random models (max ratio 0.248) and
        # frozen with margin; oscillation of the test functions is <= 1.
        FROZEN_C = 1.0
        rng = np.random.default_rng(53)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            model = random_model(rng, d, transport_safe=True)
            step = model.step(0)
            mu1 = fk.ProbMeasure(rng.dirichlet(np.ones(d)))
            mu2 = fk.ProbMeasure(rng.dirichlet(np.ones(d)))
            tv = fk.total_variation(mu1, mu2)
            if tv < 1e-9:
                continue
            f1 = rng.uniform(-0.5, 0.5, size=d)
            f2 = rng.uniform(-0.5, 0.5, size=d)
            f1 /= max(1.0, fk.oscillation(f1))
            f2 /= max(1.0, fk.oscillation(f2))
            for choice in fk.KernelChoice:
                delta = abs(
                    fk.cov_operator(choice, mu1, step.G, step.M, f1, f2)
                    - fk.cov_operator(choice, mu2, step.G, step.M, f1, f2)
                )
                assert delta <= FROZEN_C * tv


def tile_cov(choice, mu_w, g_v, m_r, v1, v2):
    """The covariance as one row at a time: kernel rows tiled or mixed, then
    one matrix-vector product per function and one dot product."""
    phi = ((mu_w * g_v) / (mu_w * g_v).sum()) @ m_r
    if choice is fk.KernelChoice.MULTINOMIAL:
        rows = np.tile(phi, (m_r.shape[0], 1))
    else:
        rows = g_v[:, None] * m_r + (1.0 - g_v)[:, None] * phi[None, :]
    k1, k2, k12 = rows @ v1, rows @ v2, rows @ (v1 * v2)
    return float(mu_w @ (k12 - k1 * k2))


class TestCovBatch:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("b", [1, 7])
    def test_rows_equal_cov_operator_bit_for_bit(self, d, b):
        rng = np.random.default_rng(1000 * d + b)
        measures = [fk.ProbMeasure(rng.dirichlet(np.ones(d))) for _ in range(b)]
        mus = np.array([mu.weights for mu in measures])
        Gs = [fk.Potential(rng.uniform(1e-3, 1.0, size=d)) for _ in range(b)]
        Ms = [fk.StochasticKernel(rng.dirichlet(np.ones(d), size=d)) for _ in range(b)]
        gs = np.array([G.values for G in Gs])
        ms = np.array([M.rows for M in Ms])
        f1s, f2s = rng.normal(size=(2, b, d))
        for choice in fk.KernelChoice:
            covs = _cov_raw(choice, mus, gs, ms, f1s, f2s)
            variances = _cov_raw(choice, mus, gs, ms, f1s, f1s)
            assert covs.shape == variances.shape == (b,)
            for i in range(b):
                mu = measures[i]
                want = fk.cov_operator(choice, mu, Gs[i], Ms[i], f1s[i], f2s[i])
                assert covs[i] == want
                assert want == tile_cov(choice, mus[i], gs[i], ms[i], f1s[i], f2s[i])
                want = fk.cov_operator(choice, mu, Gs[i], Ms[i], f1s[i], f1s[i])
                assert variances[i] == want
                assert want == tile_cov(choice, mus[i], gs[i], ms[i], f1s[i], f1s[i])

    def test_transport_rejects_large_potential_everywhere(self, env_chain):
        mu, _, M = make_pieces()
        G = fk.Potential([0.5, 1.5])
        with pytest.raises(InvalidModel, match="potential values <= 1"):
            fk.cov_operator(fk.KernelChoice.TRANSPORT, mu, G, M, [1.0, 2.0], [1.0, 2.0])
        model = fk.homogeneous_model(M, G, mu)
        fk.v_n(model, fk.KernelChoice.TRANSPORT, 1)  # no covariance term yet
        for n in (2, 3, 50):
            with pytest.raises(InvalidModel, match="potential values <= 1"):
                fk.v_n(model, fk.KernelChoice.TRANSPORT, n)
        chain = fk.EnvironmentChain(
            transition=env_chain.transition,
            stationary=env_chain.stationary,
            family=((M, fk.Potential([0.5, 0.9])), (M, G)),
        )
        path = fk.EnvPath(np.ones(20, dtype=np.int64), -10)
        with pytest.raises(InvalidModel, match="potential values <= 1"):
            fk.c_of_y(chain, fk.KernelChoice.TRANSPORT, path, 1, 3)


class TestDobrushin:
    def test_identical_rows(self):
        assert fk.dobrushin(fk.StochasticKernel([[0.3, 0.7], [0.3, 0.7]])) == 0.0

    def test_identity(self):
        assert fk.dobrushin(fk.StochasticKernel.identity(2)) == 1.0

    def test_reference_kernel(self):
        assert abs(fk.dobrushin(fk.StochasticKernel(M2)) - 0.3) <= 1e-15

    def test_submultiplicative_under_composition(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            P = fk.StochasticKernel(rng.dirichlet(np.ones(d), size=d))
            Q = fk.StochasticKernel(rng.dirichlet(np.ones(d), size=d))
            PQ = fk.StochasticKernel(P.rows @ Q.rows)
            assert fk.dobrushin(PQ) <= fk.dobrushin(P) * fk.dobrushin(Q) + 1e-12


def test_oscillation():
    assert fk.oscillation([1.0, 4.0, -2.0]) == 6.0
    assert fk.FunctionVector([2.0, 2.0]).oscillation == 0.0


class TestCategorical:
    def test_uniform_on_a_step_takes_that_state(self):
        cum = np.array([0.25, 0.5, 1.0])
        u = np.array([0.25, 0.5, 1.0, 0.0])
        assert _categorical(cum, u).tolist() == [0, 1, 2, 0]
        table = np.vstack([cum, [0.5, 0.75, 1.0]])
        rows = np.array([0, 0, 1, 1])
        assert _categorical(table, np.array([0.25, 0.5, 0.5, 0.75]), rows).tolist() == [0, 1, 0, 1]

    def test_uniform_above_a_short_last_cumulative_is_clipped(self):
        cum = np.cumsum(np.full(10, 0.1))
        assert cum[-1] < 1.0
        u = np.array([np.nextafter(cum[-1], 1.0)])
        assert _categorical(cum, u).tolist() == [9]
        assert _categorical(np.vstack([cum, cum]), u, np.array([1])).tolist() == [9]

    @staticmethod
    def _check_against_references(table, u, rows):
        """The sampler against reference forms: a binary search on one CDF
        and a compare-and-sum along gathered rows, each clipped to d-1; and
        the table form row by row against the single-CDF form."""
        d = table.shape[1]
        single = _categorical(table[0], u)
        expected = np.minimum(np.searchsorted(table[0], u, side="left"), d - 1)
        assert single.dtype == np.int64 and np.array_equal(single, expected)
        drawn = _categorical(table, u, rows)
        expected = np.minimum((table[rows] < u[:, None]).sum(axis=1), d - 1)
        assert drawn.dtype == np.int64 and np.array_equal(drawn, expected)
        per_row = [_categorical(table[r], u[i : i + 1])[0] for i, r in enumerate(rows)]
        assert np.array_equal(drawn, np.array(per_row, dtype=np.int64))

    def test_agrees_with_searchsorted_and_compare_and_sum(self):
        gen = np.random.default_rng(2718)
        for d in (1, 2, 3, 8, 16, 64):
            table = np.cumsum(gen.dirichlet(np.ones(d), size=d), axis=1)
            u = gen.random(5000)
            rows = gen.integers(0, d, size=u.size)
            self._check_against_references(table, u, rows)

    def test_zero_probability_states_and_uniforms_on_the_steps(self):
        weights = np.array(
            [
                [0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0, 0.0],  # leading, interior and tail zeros
                [0.0, 0.0, 0.125, 0.375, 0.0, 0.5, 0.0, 0.0],
                [0.3, 0.3, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0],  # repeated tail below 1.0
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        table = np.cumsum(weights, axis=1)
        assert table[2, -1] < 1.0
        steps = np.unique(np.concatenate([table.ravel(), [0.0, 1.0]]))
        u = np.concatenate([steps, np.nextafter(steps, -1.0), np.nextafter(steps, 2.0)])
        u = u[(u >= 0.0) & (u <= 1.0)]
        rows = np.arange(u.size) % table.shape[0]
        for r in range(table.shape[0]):
            self._check_against_references(np.roll(table, -r, axis=0), u, rows)
        # A uniform on a repeated cumulative takes the first state that
        # reaches it, never a later state of probability zero.
        drawn = _categorical(table[0], np.array([0.25, 0.75, 1.0]))
        assert drawn.tolist() == [1, 4, 5]

    def test_empty_draw(self):
        for d in (1, 2, 5):
            table = np.cumsum(np.full((3, d), 1.0 / d), axis=1)
            u = np.empty(0)
            rows = np.empty(0, dtype=np.int64)
            assert _categorical(table[0], u).shape == (0,)
            assert _categorical(table, u, rows).shape == (0,)
            self._check_against_references(table, u, rows)


def ref_chain_path(cum0, cum_rows, u):
    """One draw per step: the first from cum0, each later one from the CDF
    row of its predecessor."""
    states = np.empty(u.size, dtype=np.int64)
    cdf = cum0
    for i in range(u.size):
        states[i] = _categorical(cdf, u[i : i + 1])[0]
        cdf = cum_rows[states[i]]
    return states


class TestChainPath:
    @pytest.mark.parametrize("length", [0, 1, 1000])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_matches_the_step_loop(self, d, length):
        gen = np.random.default_rng(31 * d + length)
        cum0 = np.cumsum(gen.dirichlet(np.ones(d)))
        cum_rows = np.cumsum(gen.dirichlet(np.ones(d), size=d), axis=1)
        u = gen.random(length)
        states = _chain_path(cum0, cum_rows, u)
        assert states.dtype == np.int64 and states.shape == (length,)
        assert np.array_equal(states, ref_chain_path(cum0, cum_rows, u))

    def test_zero_probability_moves_are_never_taken(self):
        # A deterministic cycle 0 -> 1 -> 2 -> 0 whatever the uniforms.
        cum_rows = np.cumsum(np.roll(np.eye(3), 1, axis=1), axis=1)
        u = np.random.default_rng(4).random(50)
        states = _chain_path(np.array([1.0, 1.0, 1.0]), cum_rows, u)
        assert states.tolist() == [i % 3 for i in range(50)]
