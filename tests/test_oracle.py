from __future__ import annotations

import math

import numpy as np
import pytest

import fkclt as fk
from fkclt.core import InvalidModel

from conftest import random_explicit_model, random_model


MULTI = fk.KernelChoice.MULTINOMIAL
TRANS = fk.KernelChoice.TRANSPORT


def constant_g_model(c=0.4, d=2):
    M = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]]) if d == 2 else None
    return fk.homogeneous_model(M, fk.Potential([c] * d), fk.ProbMeasure.uniform(d))


class TestPropagate:
    def test_reference_gammas(self, two_state):
        sol = fk.propagate(two_state, 2)
        assert abs(math.exp(sol.log_gammas[1]) - 0.7) <= 1e-14
        assert abs(math.exp(sol.log_gammas[2]) - 0.488) <= 1e-14

    def test_trivial_horizon(self, two_state):
        sol = fk.propagate(two_state, 0)
        assert sol.log_gammas == (0.0,)
        np.testing.assert_allclose(sol.etas[0].weights, [0.5, 0.5])

    def test_constant_potential_power(self):
        model = constant_g_model(0.4)
        sol = fk.propagate(model, 12)
        assert abs(sol.log_gammas[-1] - 12 * math.log(0.4)) <= 1e-12

    def test_increments_are_log_means(self, two_state):
        sol = fk.propagate(two_state, 10)
        assert sol.log_gammas[0] == 0.0
        for p in range(10):
            inc = sol.log_gammas[p + 1] - sol.log_gammas[p]
            assert abs(inc - math.log(sol.potential_means[p])) <= 1e-12

    def test_multiplicative_consistency_random_models(self):
        # gamma_n(1) against the brute-force matrix product, written out here
        # rather than through any package routine.
        rng = np.random.default_rng(101)
        for _ in range(15):
            d = int(rng.integers(2, 7))
            model = random_model(rng, d)
            n = int(rng.integers(1, 31))
            sol = fk.propagate(model, n)
            step = model.step(0)
            vec = model.eta0.weights.copy()
            for _ in range(n):
                vec = (vec * step.G.values) @ step.M.rows
            brute = float(vec.sum())
            assert abs(math.exp(sol.log_gammas[-1]) - brute) <= 1e-12 * abs(brute)


class TestSemigroup:
    def test_empty_product(self, two_state):
        f = [2.0, -1.0]
        out = fk.q_pn_apply(two_state, 3, 3, f)
        np.testing.assert_allclose(out.values, f, atol=0)

    def test_single_factor_on_ones(self, two_state):
        out = fk.q_pn_apply(two_state, 0, 1, [1.0, 1.0])
        np.testing.assert_allclose(out.values, [0.5, 0.9], atol=1e-15)

    def test_two_factors_on_ones(self, two_state):
        out = fk.q_pn_apply(two_state, 0, 2, [1.0, 1.0])
        np.testing.assert_allclose(out.values, [0.31, 0.666], atol=1e-15)

    def test_semigroup_property(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            model = random_model(rng, d)
            f = rng.normal(size=d)
            p, q, n = 1, 3, 6
            direct = fk.q_pn_apply(model, p, n, f)
            nested = fk.q_pn_apply(model, p, q, fk.q_pn_apply(model, q, n, f))
            np.testing.assert_allclose(direct.values, nested.values, atol=1e-12)

    def test_rejects_reversed_indices(self, two_state):
        with pytest.raises(ValueError):
            fk.q_pn_apply(two_state, 3, 2, [1.0, 1.0])


class TestQbar:
    def test_trivial_cases(self, two_state):
        np.testing.assert_allclose(fk.qbar_pn_one(two_state, 4, 4).values, [1.0, 1.0], atol=1e-15)
        model = constant_g_model(0.7)
        np.testing.assert_allclose(fk.qbar_pn_one(model, 1, 9).values, [1.0, 1.0], atol=1e-12)

    def test_reference_value(self, two_state):
        out = fk.qbar_pn_one(two_state, 0, 2)
        np.testing.assert_allclose(out.values, [0.31 / 0.488, 0.666 / 0.488], atol=1e-14)

    def test_mean_one_property(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            model = random_model(rng, d)
            sol = fk.propagate(model, 12)
            for p in (0, 3, 7, 12):
                qb = fk.qbar_pn_one(model, p, 12)
                assert abs(sol.etas[p].mean(qb) - 1.0) <= 1e-12


class TestDpn:
    def test_constant_function_is_zero(self, two_state):
        out = fk.d_pn(two_state, 1, 5, [2.5, 2.5])
        np.testing.assert_allclose(out.values, [0.0, 0.0], atol=1e-13)

    def test_reference_value(self, two_state):
        sol = fk.propagate(two_state, 2)
        gbar1 = fk.FunctionVector(np.array([0.5, 0.9]) / sol.potential_means[1])
        out = fk.d_pn(two_state, 0, 1, gbar1)
        expected0 = 0.31 / 0.488 - 5 / 7
        np.testing.assert_allclose(out.values, [expected0, -expected0], atol=1e-12)

    def test_telescoping(self):
        rng = np.random.default_rng(151)
        for _ in range(8):
            d = int(rng.integers(2, 6))
            model = random_model(rng, d)
            n, p = 9, 2
            sol = fk.propagate(model, n)
            total = np.zeros(d)
            for q in range(p, n):
                gbar = model.step(q).G.values / sol.potential_means[q]
                total += fk.d_pn(model, p, q, gbar).values
            target = fk.qbar_pn_one(model, p, n).values - 1.0
            np.testing.assert_allclose(total, target, atol=1e-11)

    def test_sup_norm_decay(self, two_state):
        sol = fk.propagate(two_state, 2)
        gbar = fk.FunctionVector(np.array([0.5, 0.9]) / sol.potential_means[1])
        norms = [
            np.abs(fk.d_pn(two_state, 0, n, gbar).values).max() for n in range(1, 16)
        ]
        lam = fk.contraction_profile(two_state, 20).lambda_hat
        for a, b in zip(norms, norms[1:]):
            assert b <= a * math.exp(-lam) * 1.5


class TestMarkovPn:
    def test_single_step_cancels_potential(self, two_state):
        P = fk.markov_pn(two_state, 2, 3)
        np.testing.assert_allclose(P.rows, [[0.7, 0.3], [0.4, 0.6]], atol=1e-14)

    def test_identity_at_equal_indices(self, two_state):
        np.testing.assert_allclose(fk.markov_pn(two_state, 4, 4).rows, np.eye(2), atol=0)

    def test_contraction_grows_with_horizon(self, two_state):
        b1 = fk.dobrushin(fk.markov_pn(two_state, 0, 1))
        b2 = fk.dobrushin(fk.markov_pn(two_state, 0, 2))
        assert b2 < b1


class TestContractionProfile:
    def test_two_state_profile(self, two_state):
        bounds = fk.contraction_profile(two_state, 30)
        assert abs(bounds.beta_profile[0] - 0.3) <= 1e-14
        assert bounds.lambda_hat > 0
        assert bounds.g == pytest.approx(1.8)
        assert bounds.g_within_bound
        assert max(bounds.g_profile) <= bounds.b_bound

    def test_rank_one_kernel_degenerates(self):
        M = fk.StochasticKernel([[0.25, 0.75], [0.25, 0.75]])
        model = fk.homogeneous_model(M, fk.Potential([0.5, 0.9]), fk.ProbMeasure([0.5, 0.5]))
        bounds = fk.contraction_profile(model, 10)
        assert all(b <= 1e-14 for b in bounds.beta_profile)
        assert math.isinf(bounds.lambda_hat)
        assert all(g >= 1.0 for g in bounds.g_profile)
        assert bounds.g_within_bound

    def test_constant_potential_flat_ratio(self):
        model = constant_g_model(0.6)
        bounds = fk.contraction_profile(model, 10)
        assert all(abs(g - 1.0) <= 1e-12 for g in bounds.g_profile)

    def test_requires_two_steps(self, two_state):
        with pytest.raises(ValueError):
            fk.contraction_profile(two_state, 1)


class TestVn:
    def test_constant_potential_vanishes(self):
        # Exact zero algebraically; the covariance evaluation leaves ~1e-16
        # of cancellation noise per step.
        model = constant_g_model(0.4)
        for n in (1, 5, 20):
            assert fk.v_n(model, MULTI, n) <= 5e-14

    def test_v1_closed_form(self, two_state):
        assert abs(fk.v_n(two_state, MULTI, 1) - 4 / 49) <= 1e-12

    def test_rate_approach(self, two_state):
        # |v_{2n}/(2n) - sigma2| < |v_n/n - sigma2| + 1e-12
        sigma2 = fk.sigma2_homogeneous(two_state, MULTI)
        for n in (16, 32, 64):
            gap_n = abs(fk.v_n(two_state, MULTI, n) / n - sigma2)
            gap_2n = abs(fk.v_n(two_state, MULTI, 2 * n) / (2 * n) - sigma2)
            assert gap_2n < gap_n + 1e-12

    def test_nonnegative_on_random_models(self):
        rng = np.random.default_rng(171)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(2, 6)), transport_safe=True)
            for choice in fk.KernelChoice:
                assert fk.v_n(model, choice, 7) >= 0.0


def reference_v_n(model, choice, n):
    """v_n one term at a time, on plain numpy: the flow step by step (reweight,
    kernel, clip at 0, divide by the sum), the eta_q-mean-one backward
    columns, each covariance term from its own tiled or mixed kernel rows,
    and a compensated sum in index order."""
    if n == 0:
        return 0.0
    etas = [model.eta0.weights]
    for p in range(n):
        step = model.step(p)
        w = etas[p] * step.G.values
        w = np.clip((w / w.sum()) @ step.M.rows, 0.0, None)
        etas.append(w / w.sum())
    ubars = [None] * n
    u = np.ones(model.d)
    for q in range(n - 1, -1, -1):
        step = model.step(q)
        u = (step.G.values[:, None] * step.M.rows) @ u
        u = u / float(etas[q] @ u)
        ubars[q] = u
    terms = [float(etas[0] @ ((ubars[0] - 1.0) * (ubars[0] - 1.0)))]
    for q in range(1, n):
        step = model.step(q - 1)
        g, m, f = step.G.values, step.M.rows, ubars[q]
        w = etas[q - 1] * g
        phi = (w / w.sum()) @ m
        if choice is MULTI:
            rows = np.tile(phi, (model.d, 1))
        else:
            rows = g[:, None] * m + (1.0 - g)[:, None] * phi[None, :]
        k1, k2, k12 = rows @ f, rows @ f, rows @ (f * f)
        terms.append(float(etas[q - 1] @ (k12 - k1 * k2)))
    total, c = 0.0, 0.0
    for x in terms:
        y = x - c
        t = total + y
        c = (t - total) - y
        total = t
    return max(total, 0.0)


class TestVnReference:
    @pytest.mark.parametrize("choice", list(fk.KernelChoice))
    def test_two_state_bit_for_bit(self, two_state, choice):
        # These bits feed the pinned benchmark reports.
        for n in range(201):
            assert fk.v_n(two_state, choice, n) == reference_v_n(two_state, choice, n)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_random_models(self, d):
        rng = np.random.default_rng(300 + d)
        models = [random_model(rng, d, transport_safe=True) for _ in range(3)]
        models += [random_explicit_model(rng, d, 40) for _ in range(3)]
        for model in models:
            for choice in fk.KernelChoice:
                for n in (0, 1, 2, 3, 7, 40):
                    got, want = fk.v_n(model, choice, n), reference_v_n(model, choice, n)
                    assert abs(got - want) <= 1e-13 * abs(want)


class TestLongHorizon:
    # Potentials near 0 and at 1: the flow, the route check and v_n must
    # stay finite over long horizons.
    @pytest.mark.parametrize("G", [[0.5, 0.9], [1e-12, 1.0], [1e-12, 2e-12]])
    def test_long_horizon_edges(self, G):
        M = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]])
        model = fk.homogeneous_model(M, fk.Potential(G), fk.ProbMeasure([0.5, 0.5]))
        n = 10**4
        sol = fk.propagate(model, n)  # raises ConsistencyError if the routes disagree
        assert sol.n == n
        etas = np.array([eta.weights for eta in sol.etas])
        assert np.all(np.isfinite(etas)) and np.all(etas >= 0.0)
        assert np.allclose(etas.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert all(math.isfinite(x) for x in sol.log_gammas)
        # The log-domain product of potential means against an unnormalized
        # forward recursion, rescaled by hand.
        vec, log_scale = np.array([0.5, 0.5]), 0.0
        for _ in range(n):
            vec = (vec * np.array(G)) @ M.rows
            log_scale += math.log(vec.sum())
            vec = vec / vec.sum()
        assert abs(sol.log_gammas[-1] - log_scale) <= 1e-10 * abs(log_scale)
        for choice in fk.KernelChoice:
            value = fk.v_n(model, choice, 2000)
            assert math.isfinite(value) and value >= 0.0


class TestFixedPoint:
    def test_rank_one_converges_in_one_step(self):
        r = [0.25, 0.75]
        M = fk.StochasticKernel([r, r])
        model = fk.homogeneous_model(M, fk.Potential([0.5, 0.9]), fk.ProbMeasure([0.9, 0.1]))
        np.testing.assert_allclose(fk.fixed_point_eta_inf(model).weights, r, atol=1e-12)

    def test_constant_potential_gives_stationary_law(self):
        model = constant_g_model(0.3)
        eta_inf = fk.fixed_point_eta_inf(model)
        pi = fk.stationary_distribution(model.step(0).M)
        np.testing.assert_allclose(eta_inf.weights, pi.weights, atol=1e-11)

    def test_two_state_against_eig(self, two_state):
        # Independent route: left principal eigenvector of diag(G) M via
        # numpy's full eigendecomposition.
        step = two_state.step(0)
        Q = step.G.values[:, None] * step.M.rows
        vals, vecs = np.linalg.eig(Q.T)
        top = np.argmax(vals.real)
        pi = np.abs(vecs[:, top].real)
        pi /= pi.sum()
        eta_inf = fk.fixed_point_eta_inf(two_state)
        np.testing.assert_allclose(eta_inf.weights, pi, atol=1e-10)
        np.testing.assert_allclose(eta_inf.weights, [0.509881, 0.490119], atol=1e-6)

    def test_is_a_fixed_point(self, two_state):
        step = two_state.step(0)
        eta_inf = fk.fixed_point_eta_inf(two_state)
        moved = fk.phi_step(eta_inf, step.G, step.M)
        assert fk.total_variation(eta_inf, moved) < 1e-12

    def test_eig_agreement_on_random_models(self):
        rng = np.random.default_rng(191)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            model = random_model(rng, d)
            step = model.step(0)
            Q = step.G.values[:, None] * step.M.rows
            vals, vecs = np.linalg.eig(Q.T)
            top = np.argmax(vals.real)
            pi = np.abs(vecs[:, top].real)
            pi /= pi.sum()
            np.testing.assert_allclose(fk.fixed_point_eta_inf(model).weights, pi, atol=1e-10)

    def test_requires_homogeneous(self, two_state):
        step = two_state.step(0)
        model = fk.explicit_model([step, step], two_state.eta0)
        with pytest.raises(InvalidModel):
            fk.fixed_point_eta_inf(model)


class TestSpectral:
    def test_constant_potential(self):
        model = constant_g_model(0.3)
        pair = fk.eigen_h_zeta(model)
        assert abs(pair.zeta - 0.3) <= 1e-12
        np.testing.assert_allclose(pair.h.values, [1.0, 1.0], atol=1e-10)

    def test_two_state_closed_form(self, two_state):
        # zeta is the largest root of x^2 - 0.89 x + 0.135.
        pair = fk.eigen_h_zeta(two_state)
        zeta_exact = (0.89 + math.sqrt(0.89**2 - 4 * 0.135)) / 2
        assert abs(pair.zeta - zeta_exact) <= 1e-12
        assert abs(pair.zeta - 0.696048) <= 1e-5
        np.testing.assert_allclose(pair.h.values, [0.609541, 1.406203], atol=1e-5)

    def test_residual_invariants(self, two_state):
        step = two_state.step(0)
        pair = fk.eigen_h_zeta(two_state)
        Q = step.G.values[:, None] * step.M.rows
        assert np.abs(Q @ pair.h.values - pair.zeta * pair.h.values).max() < 1e-10
        assert abs(pair.eta_inf.mean(pair.h) - 1.0) < 1e-10
        assert abs(pair.zeta - pair.eta_inf.mean(step.G.values)) < 1e-10

    def test_sigma2_reference_values(self, two_state):
        s_multi = fk.sigma2_homogeneous(two_state, MULTI)
        s_trans = fk.sigma2_homogeneous(two_state, TRANS)
        assert abs(s_multi - 0.158610) <= 1e-5
        # Multinomial value equals eta_inf((h-1)^2).
        pair = fk.eigen_h_zeta(two_state)
        direct = pair.eta_inf.mean((pair.h.values - 1.0) ** 2)
        assert abs(s_multi - direct) <= 1e-12
        # Transport covariance is strictly smaller on this model.
        assert s_trans < s_multi
        step = two_state.step(0)
        assert s_trans == pytest.approx(
            fk.cov_operator(TRANS, pair.eta_inf, step.G, step.M, pair.h, pair.h)
        )

    def test_constant_potential_sigma2_zero(self):
        model = constant_g_model(0.5)
        assert abs(fk.sigma2_homogeneous(model, MULTI)) <= 1e-14

    def test_spectral_pair_carries_choice(self, two_state):
        pair = fk.spectral_pair(two_state, TRANS)
        assert pair.kernel_choice is TRANS
        assert pair.sigma2 == pytest.approx(fk.sigma2_homogeneous(two_state, TRANS))


class TestQbarLimit:
    def test_constant_potential_all_ones(self):
        model = constant_g_model(0.8)
        out = fk.qbar_p_inf(model, 0, depth=30)
        np.testing.assert_allclose(out.values, [1.0, 1.0], atol=1e-12)

    def test_stationary_start_recovers_h(self, two_state):
        pair = fk.eigen_h_zeta(two_state)
        step = two_state.step(0)
        stationary = fk.homogeneous_model(step.M, step.G, pair.eta_inf)
        out = fk.qbar_p_inf(stationary, 0, depth=60)
        np.testing.assert_allclose(out.values, pair.h.values, atol=1e-12)

    def test_doubling_depth_is_stable(self, two_state):
        bounds = fk.contraction_profile(two_state, 25)
        T = 12
        a = fk.qbar_p_inf(two_state, 0, depth=T).values
        b = fk.qbar_p_inf(two_state, 0, depth=2 * T).values
        tail = bounds.a_hat * (bounds.g - 1.0) * math.exp(-bounds.lambda_hat * T) / (
            1.0 - math.exp(-bounds.lambda_hat)
        )
        assert np.abs(a - b).max() <= 3.0 * tail

    def test_convergence_rate_matches_profile(self, two_state):
        bounds = fk.contraction_profile(two_state, 30)
        limit = fk.qbar_p_inf(two_state, 0, depth=60).values
        points = []
        for n in range(2, 31):
            gap = np.abs(fk.qbar_pn_one(two_state, 0, n).values - limit).max()
            if gap > 1e-14:
                points.append((n, math.log(gap)))
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        slope = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
        assert abs(-slope - bounds.lambda_hat) <= 0.2 * bounds.lambda_hat

    def test_default_depth_from_profile(self, two_state):
        out_default = fk.qbar_p_inf(two_state, 0)
        out_deep = fk.qbar_p_inf(two_state, 0, depth=80)
        np.testing.assert_allclose(out_default.values, out_deep.values, atol=1e-16 * 100)
