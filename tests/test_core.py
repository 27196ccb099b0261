from __future__ import annotations

import numpy as np
import pytest

import fkclt as fk
import fkclt.oracle
import refkit
from fkclt.core import (
    DimensionMismatch,
    InvalidModel,
    _categorical_thresholds,
    _chain_path,
    _cov_raw,
    _thresholds,
)

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
            transport = choice is fk.KernelChoice.TRANSPORT
            for i in range(b):
                mu = measures[i]
                want = fk.cov_operator(choice, mu, Gs[i], Ms[i], f1s[i], f2s[i])
                assert covs[i] == want
                assert want == refkit.cov(mus[i], gs[i], ms[i], transport, f1s[i], f2s[i])
                want = fk.cov_operator(choice, mu, Gs[i], Ms[i], f1s[i], f1s[i])
                assert variances[i] == want
                assert want == refkit.cov(mus[i], gs[i], ms[i], transport, f1s[i], f1s[i])

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
    assert fk.oscillation(fk.FunctionVector([2.0, 2.0])) == 0.0


def draw(laws, u, rows=None):
    """``(states, tail_counts)`` from the sampler on the ``_thresholds``
    table of ``laws``: one law (d,) shared by all draws, or a table (m, d)
    whose row ``rows[i]`` serves draw i."""
    return _categorical_thresholds(_thresholds(np.atleast_2d(laws)), u, rows)


class TestCategorical:
    def test_uniform_on_a_step_takes_that_state(self):
        law = np.array([0.25, 0.25, 0.5])
        u = np.array([0.25, 0.5, 1.0, 0.0])
        assert draw(law, u)[0].tolist() == [0, 1, 2, 0]
        laws = np.vstack([law, [0.5, 0.25, 0.25]])
        rows = np.array([0, 0, 1, 1])
        assert draw(laws, np.array([0.25, 0.5, 0.5, 0.75]), rows)[0].tolist() == [0, 1, 0, 1]

    def test_uniform_above_a_short_last_cumulative_is_clipped(self):
        law = np.full(10, 0.1)
        total = np.cumsum(law)[-1]
        assert total < 1.0
        u = np.array([np.nextafter(total, 1.0)])
        assert draw(law, u)[0].tolist() == [9]
        assert draw(np.vstack([law, law]), u, np.array([1]))[0].tolist() == [9]

    @staticmethod
    def _check_against_references(laws, u, rows):
        """The sampler against independent inverse CDFs: a binary search on
        one CDF and a compare-and-sum along gathered CDF rows, each clipped
        to d-1; and the table form row by row against the one-law form."""
        cdfs = np.cumsum(laws, axis=1)
        single = draw(laws[0], u)[0]
        assert single.dtype == np.int64 and np.array_equal(single, refkit.searched(cdfs[0], u))
        drawn = draw(laws, u, rows)[0]
        expected = refkit.compared(cdfs[rows], u)
        assert drawn.dtype == np.int64 and np.array_equal(drawn, expected)
        per_row = [draw(laws[r], u[i : i + 1])[0][0] for i, r in enumerate(rows)]
        assert np.array_equal(drawn, np.array(per_row, dtype=np.int64))

    def test_agrees_with_searchsorted_and_compare_and_sum(self):
        gen = np.random.default_rng(2718)
        for d in (1, 2, 3, 8, 16, 64):
            laws = gen.dirichlet(np.ones(d), size=d)
            u = gen.random(5000)
            rows = gen.integers(0, d, size=u.size)
            self._check_against_references(laws, u, rows)

    def test_zero_probability_states_and_uniforms_on_the_steps(self):
        laws = np.array(
            [
                [0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0, 0.0],  # leading, interior and tail zeros
                [0.0, 0.0, 0.125, 0.375, 0.0, 0.5, 0.0, 0.0],
                [0.3, 0.3, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0],  # repeated tail below 1.0
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        cdfs = np.cumsum(laws, axis=1)
        assert cdfs[2, -1] < 1.0
        steps = np.unique(np.concatenate([cdfs.ravel(), [0.0, 1.0]]))
        u = np.concatenate([steps, np.nextafter(steps, -1.0), np.nextafter(steps, 2.0)])
        u = u[(u >= 0.0) & (u <= 1.0)]
        rows = np.arange(u.size) % laws.shape[0]
        for r in range(laws.shape[0]):
            self._check_against_references(np.roll(laws, -r, axis=0), u, rows)
        # A uniform on a repeated cumulative takes the first state that
        # reaches it, never a later state of probability zero.
        assert draw(laws[0], np.array([0.25, 0.75, 1.0]))[0].tolist() == [1, 4, 5]

    def test_empty_draw(self):
        for d in (1, 2, 5):
            laws = np.full((3, d), 1.0 / d)
            u = np.empty(0)
            rows = np.empty(0, dtype=np.int64)
            assert draw(laws[0], u)[0].shape == (0,)
            assert draw(laws, u, rows)[0].shape == (0,)
            self._check_against_references(laws, u, rows)

    def test_tail_counts_count_the_draws(self):
        # Zero-probability states and uniforms on the steps, as above: the
        # comparison rows nest only because each CDF is nondecreasing.
        gen = np.random.default_rng(1618)
        laws = np.array([[0.0, 0.25, 0.0, 0.5, 0.25], [0.3, 0.3, 0.3, 0.1, 0.0]])
        cases = [(laws, np.concatenate([[0.0, 0.25, 0.3, 0.75, 1.0], gen.random(200)]))]
        for d in (1, 2, 5):
            cases.append((gen.dirichlet(np.ones(d), size=3), gen.random(300)))
            cases.append((np.full((3, d), 1.0 / d), np.empty(0)))
        for laws, u in cases:
            d = laws.shape[1]
            rows = gen.integers(0, laws.shape[0], size=u.size)
            for args in ((laws[0], u), (laws, u, rows)):
                states, tails = draw(*args)
                counts = np.bincount(states, minlength=d)
                assert tails == tuple(np.cumsum(counts[::-1])[::-1].tolist())
                assert all(type(t) is int for t in tails)

    def test_thresholds_layout(self):
        # The first d-1 CDF values of each law, one law per column, in a
        # contiguous read-only table; d = 1 leaves no threshold.
        gen = np.random.default_rng(577)
        for d in (1, 2, 3, 8):
            for m in (1, d):
                laws = gen.dirichlet(np.ones(d), size=m)
                table = _thresholds(laws)
                assert table.shape == (d - 1, m) and table.flags.c_contiguous
                assert not table.flags.writeable
                assert np.array_equal(table, np.cumsum(laws, axis=1)[:, :-1].T)

    @pytest.mark.parametrize(
        "laws",
        [[[0.5, np.nan]], [[0.5, np.inf]], [[np.nan, 0.5, 0.5]], [[0.5, 0.5], [np.inf, 0.0]]],
    )
    def test_thresholds_reject_a_cdf_that_is_not_finite(self, laws):
        # The last CDF value is checked too, though it is never compared.
        with pytest.raises(InvalidModel, match="not finite"):
            _thresholds(np.array(laws))


class TestChainPath:
    @pytest.mark.parametrize("length", [0, 1, 1000])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_matches_the_step_loop(self, d, length):
        gen = np.random.default_rng(31 * d + length)
        law0 = gen.dirichlet(np.ones(d))
        moves = gen.dirichlet(np.ones(d), size=d)
        u = gen.random(length)
        states = _chain_path(law0, moves, u)
        assert states.dtype == np.int64 and states.shape == (length,)
        assert np.array_equal(states, refkit.chain_path(law0, moves, u))

    def test_zero_probability_moves_are_never_taken(self):
        # A deterministic cycle 0 -> 1 -> 2 -> 0 whatever the uniforms.
        moves = np.roll(np.eye(3), 1, axis=1)
        u = np.random.default_rng(4).random(50)
        states = _chain_path(np.array([1.0, 0.0, 0.0]), moves, u)
        assert states.tolist() == [i % 3 for i in range(50)]


BAD_CHOICES = ["multinomial", "transport", "bogus", None, 0]


class TestKernelChoiceIsChecked:
    """A kernel choice that is neither ``KernelChoice`` member is a
    ``ValueError`` at every public edge that takes one; it used to run the
    transport kernel (or fail on ``.value``)."""

    @pytest.mark.parametrize("bad", BAD_CHOICES)
    def test_every_edge_rejects_it(self, two_state, env_chain, bad):
        mu, step0 = two_state.eta0, two_state.step(0)
        system = fk.init_particles(two_state, 8, seed=1)
        path = fk.sample_env_path(env_chain, past=3, horizon=10, seed=1)
        calls = {
            "run": lambda: fk.run(two_state, 8, 5, bad, 3),
            "run, no steps": lambda: fk.run(two_state, 8, 0, bad, 3),
            "step": lambda: fk.step(system, two_state, bad),
            "v_n": lambda: fk.v_n(two_state, bad, 5),
            "v_n, no steps": lambda: fk.v_n(two_state, bad, 0),
            "spectral_pair": lambda: fk.spectral_pair(two_state, bad),
            "oracle_report": lambda: fkclt.oracle.oracle_report(two_state, 3, bad),
            "cov_operator": lambda: fk.cov_operator(bad, mu, step0.G, step0.M, G2, G2),
            "kernel_row": lambda: fk.kernel_row(bad, mu, step0.G, step0.M, 0),
            "c_of_y": lambda: fk.c_of_y(env_chain, bad, path, 1, 3),
            "sigma2_env": lambda: fk.sigma2_env(env_chain, bad, 100, 3, seed=1),
            "ExperimentConfig": lambda: fk.ExperimentConfig(two_state, bad, 5, 8, 10, 1),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match="MULTINOMIAL or KernelChoice.TRANSPORT"):
                call()
        assert system.stream.position == 8

    def test_a_warm_model_rejects_it(self):
        # Both kernels' tables are kept for every count vector of N = 1, so
        # a lookup that took a bad choice for either kernel would succeed.
        model = fk.homogeneous_model(fk.StochasticKernel(M2), fk.Potential(G2), fk.ProbMeasure([0.5, 0.5]))
        for seed in range(20):
            for choice in fk.KernelChoice:
                fk.run(model, 1, 5, choice, seed)
        assert len(model.step(0)._tables) == 4
        system = fk.init_particles(model, 1, seed=3)
        for bad in BAD_CHOICES:
            with pytest.raises(ValueError):
                fk.run(model, 1, 5, bad, seed=3)
            with pytest.raises(ValueError):
                fk.step(system, model, bad)
        assert system.stream.position == 1
