from __future__ import annotations

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkclt as fk
import refkit
from fkclt import oracle
from fkclt.core import DimensionMismatch, InvalidModel, ScheduleExhausted

from conftest import model_kinds, random_chain, random_explicit_model, random_model, stack


MULTI = fk.KernelChoice.MULTINOMIAL
TRANS = fk.KernelChoice.TRANSPORT
EPS = np.finfo(float).eps
# Rounding allowed to break the transport <= multinomial order of v_n and
# sigma^2, in ulps per summed term.
ORDER_ULPS = 4


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
        # gamma_n(1) = eta_0(Q_0 ... Q_{n-1} 1), the unscaled matrix product
        # applied backward by the kit.
        rng = np.random.default_rng(101)
        for _ in range(15):
            d = int(rng.integers(2, 7))
            model = random_model(rng, d)
            n = int(rng.integers(1, 31))
            sol = fk.propagate(model, n)
            Q = refkit.factors(*stack(model, 0, n))
            brute = float(model.eta0.weights @ refkit.columns(Q, np.ones(d))[0])
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

    @pytest.mark.parametrize("p", [3, 1])
    def test_rejects_a_function_of_another_dimension(self, two_state, p):
        # At p == n no factor is applied, so only the check can catch it.
        for f in ([1.0, 2.0, 3.0], [1.0]):
            with pytest.raises(DimensionMismatch):
                fk.q_pn_apply(two_state, p, 3, f)
            with pytest.raises(DimensionMismatch):
                fk.d_pn(two_state, p, 3, f)


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
        assert max(bounds.g_profile) <= bounds.b_bound

    def test_rank_one_kernel_degenerates(self):
        M = fk.StochasticKernel([[0.25, 0.75], [0.25, 0.75]])
        model = fk.homogeneous_model(M, fk.Potential([0.5, 0.9]), fk.ProbMeasure([0.5, 0.5]))
        bounds = fk.contraction_profile(model, 10)
        assert all(b <= 1e-14 for b in bounds.beta_profile)
        assert math.isinf(bounds.lambda_hat)
        assert all(g >= 1.0 for g in bounds.g_profile)
        assert max(bounds.g_profile) <= bounds.b_bound

    def test_constant_potential_flat_ratio(self):
        model = constant_g_model(0.6)
        bounds = fk.contraction_profile(model, 10)
        assert all(abs(g - 1.0) <= 1e-12 for g in bounds.g_profile)

    def test_requires_two_steps(self, two_state):
        with pytest.raises(ValueError):
            fk.contraction_profile(two_state, 1)

    @pytest.mark.parametrize("signs", [(1,), (-1,), (1, -1), (-1, 1)])
    def test_fit_is_stable_under_rounding_noise(self, two_state, monkeypatch, signs):
        # A beta carries about 1e-16 of absolute rounding noise; moving each
        # one by that much must move the fitted a_hat and lambda_hat by less
        # than 1e-6 relative (a floor of 1e-14 moved them by 6.8e-4).
        base = fk.contraction_profile(two_state)
        noise = itertools.cycle(signs)
        dobrushin = oracle.dobrushin
        monkeypatch.setattr(oracle, "dobrushin", lambda K: dobrushin(K) + next(noise) * 1e-16)
        moved = fk.contraction_profile(two_state)
        assert abs(moved.a_hat / base.a_hat - 1.0) < 1e-6
        assert abs(moved.lambda_hat / base.lambda_hat - 1.0) < 1e-6
        assert oracle.default_series_depth(base.lambda_hat) == 29

    @pytest.mark.parametrize("G", [[5e-324, 1.0], [5e-324, 2.0], [1e-320, 1e5]])
    def test_potential_ratio_beyond_the_float_range(self, G):
        # The potential ratio is beyond the float range; row 0 of the first
        # reweighted factor is G(0) M(0, .), whose entries are subnormal or 0.
        M = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]])
        model = fk.homogeneous_model(M, fk.Potential(G), fk.ProbMeasure([0.5, 0.5]))
        bounds = fk.contraction_profile(model, 5)
        assert bounds.beta_profile[0] == pytest.approx(0.3, abs=1e-15)
        assert all(b == 0.0 for b in bounds.beta_profile[1:])
        assert math.isinf(bounds.g)
        assert all(math.isinf(g) for g in bounds.g_profile)

    def test_underflowing_row_names_its_step(self):
        # Each entry of a uniform row times 5e-324 rounds to 0, so the whole
        # reweighted row vanishes at step 1; the flow rejects the model too.
        M = fk.StochasticKernel(np.full((3, 3), 1.0 / 3.0))
        model = fk.homogeneous_model(M, fk.Potential([5e-324] * 3), fk.ProbMeasure([1 / 3] * 3))
        with pytest.raises(InvalidModel, match="underflowed to 0 at step 1"):
            fk.contraction_profile(model, 5)
        with pytest.raises(InvalidModel):
            fk.propagate(model, 1)


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

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 29), st.integers(0, 2**32 - 1))
    def test_transport_never_exceeds_multinomial(self, d, n, seed):
        # Under mu the transport rows average to Phi(mu), so by Jensen's
        # inequality mu[K(f)^2] >= Phi(f)^2: each transport conditional
        # variance is at most the multinomial one.  v_n and sigma^2 add up
        # such terms over the same columns, so they keep the order, up to
        # rounding of at most ORDER_ULPS ulps per summed term.
        rng = np.random.default_rng(seed)
        homogeneous = random_model(rng, d, transport_safe=True)
        for model in (homogeneous, random_explicit_model(rng, d, max(n, 1))):
            bound = fk.v_n(model, MULTI, n) * (1.0 + ORDER_ULPS * (n + 1) * EPS)
            assert fk.v_n(model, TRANS, n) <= bound
        bound = fk.sigma2_homogeneous(homogeneous, MULTI) * (1.0 + ORDER_ULPS * EPS)
        assert fk.sigma2_homogeneous(homogeneous, TRANS) <= bound


class TestVnReference:
    @pytest.mark.parametrize("choice", list(fk.KernelChoice))
    def test_two_state_bit_for_bit(self, two_state, choice):
        # These bits feed the pinned benchmark reports.
        G, M = stack(two_state, 0, 200)
        for n in range(201):
            want = refkit.v_n(two_state.eta0.weights, G[:n], M[:n], choice is TRANS)
            assert fk.v_n(two_state, choice, n) == want

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_random_models(self, d):
        rng = np.random.default_rng(300 + d)
        models = [random_model(rng, d, transport_safe=True) for _ in range(3)]
        models += [random_explicit_model(rng, d, 40) for _ in range(3)]
        for model in models:
            G, M = stack(model, 0, 40)
            for choice in fk.KernelChoice:
                for n in (0, 1, 2, 3, 7, 40):
                    want = refkit.v_n(model.eta0.weights, G[:n], M[:n], choice is TRANS)
                    assert abs(fk.v_n(model, choice, n) - want) <= 1e-13 * abs(want)


def window(model, p, n):
    """The kit's factors Q_p .. Q_{n-1} and flow eta_0 .. eta_n of a model."""
    G, M = stack(model, 0, n)
    return refkit.factors(G[p:], M[p:]), refkit.flow(model.eta0.weights, G, M)


def qbar_one(model, p, n):
    """Qbar_{p,n}(1): the kit's backward columns from 1, each of mean one."""
    Q, etas = window(model, p, n)
    return refkit.columns(Q, np.ones(model.d), etas[p:n])[0]


def assert_within(got, want, scale, rtol=1e-12):
    """Entrywise |got - want| <= rtol * scale, with ``scale`` the same
    operation applied to nonnegative inputs, so that a cancelling entry is
    compared at the size of its terms."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.asarray(scale))


def tiny_potential_model(rng, d):
    """Homogeneous model whose potentials reach down to 1e-12."""
    G = 10.0 ** rng.uniform(-12.0, 0.0, size=d)
    G[rng.integers(d)] = 1e-12
    M = fk.StochasticKernel(rng.dirichlet(np.ones(d), size=d))
    return fk.homogeneous_model(M, fk.Potential(G), fk.ProbMeasure(rng.dirichlet(np.ones(d))))


def family_models(d):
    """Homogeneous, explicit and environment models on d states, each with at
    least 50 steps, potentials down to 1e-12."""
    rng = np.random.default_rng(700 + d)
    chain = random_chain(rng, 3, d, floor=1e-12)
    return {
        "homogeneous": random_model(rng, d),
        "tiny-homogeneous": tiny_potential_model(rng, d),
        "explicit": random_explicit_model(rng, d, 50),
        "environment": fk.env_model(chain, fk.sample_env_path(chain, 0, 50, seed=d)),
    }


FAMILY_DIMS = [1, 2, 3, 5]
FAMILY_LAGS = [0, 1, 2, 7, 40]  # n - p


class TestSemigroupReference:
    @pytest.mark.parametrize("d", FAMILY_DIMS)
    def test_q_pn_apply(self, d):
        rng = np.random.default_rng(d)
        for model in family_models(d).values():
            for p in (0, 3):
                for lag in FAMILY_LAGS:
                    f = rng.normal(size=d)
                    Q = refkit.factors(*stack(model, p, p + lag))
                    want = refkit.columns(Q, f)[0]
                    scale = refkit.columns(Q, np.abs(f))[0]
                    assert_within(fk.q_pn_apply(model, p, p + lag, f).values, want, scale)

    @pytest.mark.parametrize("d", FAMILY_DIMS)
    def test_qbar_pn_one(self, d):
        for model in family_models(d).values():
            for p in (0, 3):
                for lag in FAMILY_LAGS:
                    want = qbar_one(model, p, p + lag)
                    assert_within(fk.qbar_pn_one(model, p, p + lag).values, want, want)

    @pytest.mark.parametrize("d", FAMILY_DIMS)
    def test_d_pn(self, d):
        rng = np.random.default_rng(d)
        for model in family_models(d).values():
            for p in (0, 3):
                for lag in FAMILY_LAGS:
                    n = p + lag
                    f = rng.normal(size=d)
                    Q, etas = window(model, p, n)
                    P = refkit.products(Q)[-1]
                    centered = f - float(etas[n] @ f)
                    mass = float(etas[p] @ P.sum(axis=1))
                    want, scale = P @ centered / mass, P @ np.abs(centered) / mass
                    assert_within(fk.d_pn(model, p, n, f).values, want, scale)

    @pytest.mark.parametrize("d", FAMILY_DIMS)
    def test_markov_pn(self, d):
        for model in family_models(d).values():
            for p in (0, 3):
                for lag in FAMILY_LAGS:
                    P = refkit.products(window(model, p, p + lag)[0])[-1]
                    want = P / P.sum(axis=1, keepdims=True)
                    assert_within(fk.markov_pn(model, p, p + lag).rows, want, want)

    @pytest.mark.parametrize("d", FAMILY_DIMS)
    def test_qbar_p_inf(self, d):
        for model in family_models(d).values():
            for p in (0, 3):
                for depth in FAMILY_LAGS[1:]:
                    want = qbar_one(model, p, p + depth)
                    assert_within(fk.qbar_p_inf(model, p, depth).values, want, want)

    @pytest.mark.parametrize("d", FAMILY_DIMS)
    def test_contraction_profile(self, d):
        for model in family_models(d).values():
            for n_max in (2, 7, 40):
                bounds = fk.contraction_profile(model, n_max)
                G, M = stack(model, 0, n_max)
                P = refkit.products(refkit.factors(G, M))[1:]
                sums = P.sum(axis=2)
                betas = [refkit.dobrushin(Pn / s[:, None]) for Pn, s in zip(P, sums)]
                g_values = sums.max(axis=1) / sums.min(axis=1)
                g_pot = max(1.0, float((G.max(axis=1) / G.min(axis=1)).max()))
                # A coefficient is a difference of probabilities: terms of size <= 1.
                assert_within(bounds.beta_profile, betas, np.ones(n_max))
                assert_within(bounds.g_profile, g_values, g_values)
                assert_within(bounds.g, g_pot, g_pot)


MEMO_STEPS = 30


def solution_bits(sol):
    return np.array([eta.weights for eta in sol.etas]).tobytes(), sol.log_gammas, sol.potential_means


def outcome(call, model):
    """A call's result, or the type and message of the error it raises."""
    try:
        return call(model)
    except fk.FKError as exc:
        return type(exc), str(exc)


class TestFlowMemo:
    """A model keeps its longest exact flow; every read of it must give the
    bits and the errors of the same call on a cold model."""

    @pytest.mark.parametrize("d", FAMILY_DIMS)
    def test_prefix_reads_keep_the_bits(self, d):
        for kind, model in model_kinds(800 + d, d, MEMO_STEPS, MEMO_STEPS).items():
            cold = pickle.dumps(model)
            fk.propagate(model, MEMO_STEPS)
            for k in range(MEMO_STEPS + 1):
                want = solution_bits(fk.propagate(pickle.loads(cold), k))
                assert solution_bits(fk.propagate(model, k)) == want, (kind, k)
                for choice in fk.KernelChoice:
                    want = fk.v_n(pickle.loads(cold), choice, k)
                    assert fk.v_n(model, choice, k) == want, (kind, k, choice)
            assert len(model._flow[1]) == MEMO_STEPS + 1

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_v_n_bits_do_not_depend_on_the_kept_length(self, d):
        # v_n(k) reads its flow and its steps as prefixes of what the model
        # keeps; kept over k or 3k steps, they must give a cold model's bits.
        rng = np.random.default_rng(900 + d)
        chain = random_chain(rng, 3, d, floor=1e-3)
        models = {
            "explicit": random_explicit_model(rng, d, 60),
            "environment": fk.env_model(chain, fk.sample_env_path(chain, 0, 60, seed=d)),
        }
        for kind, model in models.items():
            cold = pickle.dumps(model)
            for k in (1, 2, 7, 20):
                for choice in fk.KernelChoice:
                    want = fk.v_n(pickle.loads(cold), choice, k)
                    for kept in (k, 3 * k):
                        warm = pickle.loads(cold)
                        fk.propagate(warm, kept)
                        assert fk.v_n(warm, choice, k) == want, (kind, k, kept, choice)
                        assert len(warm._flow[1]) == kept + 1

    def test_longer_requests_run_as_on_a_cold_model(self):
        for kind, model in model_kinds(803, 3, MEMO_STEPS, MEMO_STEPS).items():
            cold = pickle.dumps(model)
            fk.propagate(model, 10)
            want = solution_bits(fk.propagate(pickle.loads(cold), 20))
            assert solution_bits(fk.propagate(model, 20)) == want, kind
            assert len(model._flow[1]) == 21
            assert fk.v_n(model, MULTI, 25) == fk.v_n(pickle.loads(cold), MULTI, 25)
            assert len(model._flow[1]) == 26

    def test_past_the_end_of_an_explicit_schedule(self):
        model = model_kinds(803, 3, MEMO_STEPS, MEMO_STEPS)["explicit"]
        cold = pickle.dumps(model)
        fk.propagate(model, MEMO_STEPS)
        calls = [
            lambda m: fk.propagate(m, MEMO_STEPS + 1),
            lambda m: fk.v_n(m, MULTI, MEMO_STEPS + 1),
            lambda m: fk.d_pn(m, 3, MEMO_STEPS + 1, np.ones(3)),
            lambda m: fk.qbar_pn_one(m, MEMO_STEPS + 1, MEMO_STEPS + 1),
        ]
        for call in calls:
            got = outcome(call, model)
            assert got[0] is ScheduleExhausted
            assert got == outcome(call, pickle.loads(cold))
        assert len(model._flow[1]) == MEMO_STEPS + 1

    def test_a_flow_that_raises_keeps_nothing(self):
        M = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]])
        zero = object.__new__(fk.Potential)
        object.__setattr__(zero, "values", np.zeros(2))
        model = fk.explicit_model(
            [fk.FKStep(fk.Potential([0.5, 0.9]), M), fk.FKStep(zero, M)],
            fk.ProbMeasure([0.5, 0.5]),
        )
        for _ in range(2):
            with pytest.raises(InvalidModel, match="vanished at step 1"):
                fk.propagate(model, 2)
            assert model._flow is None
        fk.propagate(model, 1)
        for call in (lambda: fk.propagate(model, 2), lambda: fk.v_n(model, MULTI, 2)):
            with pytest.raises(InvalidModel, match="vanished at step 1"):
                call()
            assert len(model._flow[1]) == 2

    @pytest.mark.parametrize("choice", list(fk.KernelChoice))
    def test_oracle_report_runs_one_flow(self, two_state, choice, monkeypatch):
        model = pickle.loads(pickle.dumps(two_state))  # a cold copy
        flows, horizons = [], []
        measure_flow, v_n = oracle._measure_flow, oracle.v_n
        monkeypatch.setattr(
            oracle, "_measure_flow", lambda *a: flows.append(len(a[1])) or measure_flow(*a)
        )
        monkeypatch.setattr(oracle, "v_n", lambda *a: horizons.append(a[2]) or v_n(*a))
        oracle.oracle_report(model, 200, choice)
        assert flows == [200]
        assert horizons == list(range(1, 201))


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
        # log gamma_n = sum_p log eta_p(G_p) along the kit's flow.
        Gs, Ms = stack(model, 0, n)
        etas = refkit.flow(model.eta0.weights, Gs, Ms)
        log_scale = float(np.log((etas[:-1] * Gs).sum(axis=1)).sum())
        assert abs(sol.log_gammas[-1] - log_scale) <= 1e-10 * abs(log_scale)
        for choice in fk.KernelChoice:
            value = fk.v_n(model, choice, 2000)
            assert math.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize("kind", ["homogeneous", "environment"])
    def test_semigroup_columns_over_ten_thousand_steps(self, kind):
        # Potentials about 1e-3: Q_{p,n} falls by about 10^-30000 over the
        # horizon, so only a rescaled product stays finite.
        rng = np.random.default_rng(17)
        if kind == "homogeneous":
            M = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]])
            model = fk.homogeneous_model(M, fk.Potential([1e-3, 2e-3]), fk.ProbMeasure([0.5, 0.5]))
        else:
            family = tuple(
                (fk.StochasticKernel(rng.dirichlet(np.ones(3), size=3)),
                 fk.Potential(1e-3 * rng.uniform(0.5, 2.0, size=3)))
                for _ in range(2)
            )
            chain = fk.EnvironmentChain(
                transition=fk.StochasticKernel([[0.6, 0.4], [0.4, 0.6]]),
                stationary=fk.ProbMeasure([0.5, 0.5]),
                family=family,
            )
            model = fk.env_model(chain, fk.sample_env_path(chain, 0, 10**4 + 6, seed=3))
        p, n = 5, 5 + 10**4
        qbar = fk.qbar_pn_one(model, p, n).values
        P = fk.markov_pn(model, p, n).rows
        assert np.all(np.isfinite(qbar)) and np.all(np.isfinite(P))
        want = qbar_one(model, p, n)
        assert_within(qbar, want, want)
        product = refkit.products(window(model, p, n)[0])[-1]
        want = product / product.sum(axis=1, keepdims=True)
        assert_within(P, want, want)


def top_left_eigenvector(model):
    """Independent route to eta_inf: the left principal eigenvector of
    diag(G) M by numpy's full eigendecomposition, scaled to sum one."""
    vals, vecs = np.linalg.eig(refkit.factors(*stack(model, 0, 1))[0].T)
    pi = np.abs(vecs[:, np.argmax(vals.real)].real)
    return pi / pi.sum()


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
        pi = top_left_eigenvector(two_state)
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
            pi = top_left_eigenvector(model)
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
        assert pair.sigma2 == fk.sigma2_homogeneous(two_state, TRANS)
        assert pair.sigma2 < fk.spectral_pair(two_state, MULTI).sigma2


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

    def test_report_depth_comes_from_the_profile(self, two_state):
        # oracle_report derives the series depth from the fitted rate; the
        # truncated limit there agrees with a much deeper one.
        depth = oracle.default_series_depth(fk.contraction_profile(two_state).lambda_hat)
        report = oracle.oracle_report(two_state, 3, MULTI)
        assert report["qbar_limit"] == fk.qbar_p_inf(two_state, 0, depth).values.tolist()
        deep = fk.qbar_p_inf(two_state, 0, depth=80).values
        np.testing.assert_allclose(report["qbar_limit"], deep, atol=1e-16 * 100)
