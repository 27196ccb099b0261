from __future__ import annotations

import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import fkclt as fk
from fkclt import randenv
from fkclt.core import FKError, InvalidModel, _cov_raw
from fkclt.oracle import _limit_function, _ordered_products
from fkclt.randenv import BLOCK_FACTOR_ENTRIES, WindowTooShort, EnvironmentSchedule, _flow

from conftest import random_chain

MULTI = fk.KernelChoice.MULTINOMIAL


def single_state_chain(M, G):
    return fk.EnvironmentChain(
        transition=fk.StochasticKernel([[1.0]]),
        stationary=fk.ProbMeasure([1.0]),
        family=((M, G),),
    )


# Reference loops: the step-by-step forms of the backward limits, which the
# product forms must reproduce.


def ref_flow(chain, y, position, depth):
    """Normalized flow from the uniform law at position - depth."""
    mu = np.full(chain.state_dim, 1.0 / chain.state_dim)
    for q in range(position - depth, position):
        w = mu * chain.potential(y.state(q)).values
        mu = (w / w.sum()) @ chain.kernel(y.state(q + 1)).rows
    return mu


def ref_log_series(base_w, potentials, kernels):
    """exp of the log series: term q compares the lag-q potential means of the
    flows started at each point mass and at base_w; kernels[q] moves lag q to
    lag q + 1."""
    d = base_w.size
    stack = np.vstack([np.eye(d), base_w])
    logs = np.zeros(d)
    for q, g in enumerate(potentials):
        if q:
            stack = (weighted / denoms[:, None]) @ kernels[q - 1]
        weighted = stack * g[None, :]
        denoms = weighted.sum(axis=1)
        logs += np.log(denoms[:d]) - math.log(denoms[d])
    return np.exp(logs)


def ref_h(chain, y, position, depth):
    states = [y.state(position + offset) for offset in range(depth)]
    return ref_log_series(
        ref_flow(chain, y, position, depth),
        [chain.potential(s).values for s in states],
        [chain.kernel(s).rows for s in states[1:]],
    )


def ref_c(chain, choice, y, position, depth):
    h = ref_h(chain, y, position, depth)
    return fk.cov_operator(
        choice,
        fk.ProbMeasure(ref_flow(chain, y, position - 1, depth)),
        chain.potential(y.state(position - 1)),
        chain.kernel(y.state(position)),
        h,
        h,
    )


def last_axis_max_products(stack):
    """The pairwise product routine with each level's scale taken as a max
    along the d*d entries of each product, the form the routine's
    column max must reproduce bit for bit."""
    b, k, d, _ = stack.shape
    if k == 0:
        return np.broadcast_to(np.eye(d), (b, d, d))
    while k > 1:
        paired = stack[:, 0 : k - 1 : 2] @ stack[:, 1::2]
        flat = paired.reshape(b, -1, d * d)
        flat /= flat.max(axis=2, keepdims=True)
        if k % 2:
            paired = np.concatenate([paired, stack[:, k - 1 :]], axis=1)
        stack = paired
        k = stack.shape[1]
    return stack[:, 0]


def ref_product(stack):
    """Left-to-right product of a (k, d, d) stack, scaled to max 1 per step."""
    out = np.eye(stack.shape[1])
    for factor in stack:
        out = out @ factor
        out = out / out.max()
    return out


class TestConstruction:
    def test_rejects_non_stationary_law(self, two_state):
        M = two_state.step(0).M
        with pytest.raises(InvalidModel):
            fk.EnvironmentChain(
                transition=fk.StochasticKernel([[0.9, 0.1], [0.2, 0.8]]),
                stationary=fk.ProbMeasure([0.5, 0.5]),
                family=((M, fk.Potential([0.5, 0.9])), (M, fk.Potential([0.7, 0.6]))),
            )

    def test_rejects_mixed_dimensions(self, two_state):
        M = two_state.step(0).M
        M3 = fk.StochasticKernel(np.full((3, 3), 1 / 3))
        with pytest.raises(InvalidModel):
            fk.EnvironmentChain(
                transition=fk.StochasticKernel([[0.5, 0.5], [0.5, 0.5]]),
                stationary=fk.ProbMeasure([0.5, 0.5]),
                family=((M, fk.Potential([0.5, 0.9])), (M3, fk.Potential([1.0] * 3))),
            )

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_factors_are_the_pairwise_products(self, d):
        rng = np.random.default_rng(40 + d)
        chain = random_chain(rng, 3, d, floor=1e-12)
        pairs = [(s, t) for s in range(3) for t in range(3)]
        states = np.array([s for pair in pairs for s in pair], dtype=np.int64)
        factors = chain.factors(states)
        assert factors.shape == (len(states) - 1, d, d)
        for q in range(len(states) - 1):
            G, M = chain.potential(states[q]).values, chain.kernel(states[q + 1]).rows
            assert np.array_equal(factors[q], G[:, None] * M)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_factors_take_leading_axes(self, d):
        rng = np.random.default_rng(50 + d)
        chain = random_chain(rng, 3, d, floor=1e-12)
        states = rng.integers(0, 3, size=(4, 2, 6))
        factors = chain.factors(states)
        assert factors.shape == (4, 2, 5, d, d)
        for i in np.ndindex(4, 2):
            assert np.array_equal(factors[i], chain.factors(states[i]))

    def test_stationary_solver(self, env_chain):
        pi = fk.stationary_distribution(env_chain.transition)
        np.testing.assert_allclose(pi.weights, [0.5, 0.5], atol=1e-12)


class TestPaths:
    def test_single_state_path_is_constant(self, two_state):
        step = two_state.step(0)
        chain = single_state_chain(step.M, step.G)
        path = fk.sample_env_path(chain, past=5, horizon=20, seed=3)
        assert (path.states == 0).all()

    def test_determinism(self, env_chain):
        a = fk.sample_env_path(env_chain, past=10, horizon=50, seed=11)
        b = fk.sample_env_path(env_chain, past=10, horizon=50, seed=11)
        np.testing.assert_array_equal(a.states, b.states)

    def test_matches_scalar_draw_loop(self, env_chain):
        # Reference: one scalar uniform per state, binary search on its CDF.
        gen = np.random.Generator(np.random.PCG64(11))
        cum_rows = np.cumsum(env_chain.transition.rows, axis=1)
        x = int(np.searchsorted(np.cumsum(env_chain.stationary.weights), gen.random()))
        expected = [x]
        for _ in range(60):
            x = min(int(np.searchsorted(cum_rows[x], gen.random())), 1)
            expected.append(x)
        path = fk.sample_env_path(env_chain, past=10, horizon=50, seed=11)
        assert path.states.tolist() == expected

    def test_window_bounds(self, env_chain):
        path = fk.sample_env_path(env_chain, past=4, horizon=6, seed=1)
        assert path.lo == -4 and path.hi == 6
        path.state(-4)
        path.state(6)
        with pytest.raises(WindowTooShort):
            path.state(-5)
        with pytest.raises(WindowTooShort):
            path.state(7)

    def test_shift_reindexes(self, env_chain):
        path = fk.sample_env_path(env_chain, past=3, horizon=8, seed=2)
        shifted = path.shift(4)
        for i in range(-3, 5):
            assert shifted.state(i) == path.state(i + 4)

    def test_stationary_frequencies(self, env_chain):
        n = 10**5
        path = fk.sample_env_path(env_chain, past=0, horizon=n, seed=13)
        freq = (path.states == 0).mean()
        assert abs(freq - 0.5) <= 3 * (0.5 / math.sqrt(n)) * 3  # correlated chain slack

    def test_schedule_reads_the_path(self, env_chain):
        path = fk.sample_env_path(env_chain, past=0, horizon=10, seed=4)
        sched = EnvironmentSchedule(env_chain, path)
        by_pair = {}
        for p in range(10):
            step = sched.step(p)
            np.testing.assert_array_equal(
                step.G.values, env_chain.potential(path.state(p)).values
            )
            np.testing.assert_array_equal(
                step.M.rows, env_chain.kernel(path.state(p + 1)).rows
            )
            # One stored step per (state, next state) pair.
            assert by_pair.setdefault((path.state(p), path.state(p + 1)), step) is step
        assert len(by_pair) > 1
        for p in (-1, 10):
            with pytest.raises(WindowTooShort):
                sched.step(p)


class TestEtaInfEnv:
    def test_constant_environment_reduces_to_fixed_point(self, two_state):
        step = two_state.step(0)
        chain = single_state_chain(step.M, step.G)
        path = fk.sample_env_path(chain, past=60, horizon=5, seed=1)
        out = fk.eta_inf_env(chain, path, 0, depth=50)
        target = fk.fixed_point_eta_inf(two_state)
        assert fk.total_variation(out, target) <= 1e-10

    def test_depth_doubling_within_contraction_bound(self, env_chain):
        path = fk.sample_env_path(env_chain, past=60, horizon=30, seed=2718)
        model = fk.env_model(env_chain, path)
        bounds = fk.contraction_profile(model, 20)
        for T in (10, 20):
            a = fk.eta_inf_env(env_chain, path, 5, T)
            b = fk.eta_inf_env(env_chain, path, 5, 2 * T)
            assert fk.total_variation(a, b) <= bounds.a_hat * math.exp(
                -bounds.lambda_hat * T
            )

    def test_period2_even_positions_solve_composed_flow(self, period2_chain):
        path = fk.sample_env_path(period2_chain, past=80, horizon=10, seed=5)
        parity = path.state(0)
        even = fk.eta_inf_env(period2_chain, path, 0, depth=60)
        # Independent route: iterate the two-step composition to its fixed
        # point, starting anywhere.
        G0 = period2_chain.potential(parity)
        M0 = period2_chain.kernel(1 - parity)
        G1 = period2_chain.potential(1 - parity)
        M1 = period2_chain.kernel(parity)
        mu = fk.ProbMeasure.uniform(2)
        for _ in range(200):
            mu = fk.phi_step(fk.phi_step(mu, G0, M0), G1, M1)
        assert fk.total_variation(even, mu) <= 1e-12

    def test_propagates_one_step(self, env_chain):
        path = fk.sample_env_path(env_chain, past=60, horizon=20, seed=6)
        depth = 45
        for p in (0, 3, 9):
            here = fk.eta_inf_env(env_chain, path, p, depth)
            there = fk.eta_inf_env(env_chain, path, p + 1, depth)
            moved = fk.phi_step(
                here,
                env_chain.potential(path.state(p)),
                env_chain.kernel(path.state(p + 1)),
            )
            assert fk.total_variation(moved, there) <= 1e-11

    def test_window_too_short(self, env_chain):
        path = fk.sample_env_path(env_chain, past=5, horizon=5, seed=7)
        with pytest.raises(WindowTooShort):
            fk.eta_inf_env(env_chain, path, 0, depth=10)


class TestHEnv:
    def test_constant_environment_reduces_to_h(self, two_state):
        step = two_state.step(0)
        chain = single_state_chain(step.M, step.G)
        path = fk.sample_env_path(chain, past=60, horizon=60, seed=1)
        out = fk.h_env(chain, path, 0, depth=50)
        pair = fk.eigen_h_zeta(two_state)
        np.testing.assert_allclose(out.values, pair.h.values, atol=1e-10)

    def test_constant_potentials_give_ones(self, two_state):
        # Different kernels per state, same constant potential.
        M0 = two_state.step(0).M
        M1 = fk.StochasticKernel([[0.2, 0.8], [0.6, 0.4]])
        chain = fk.EnvironmentChain(
            transition=fk.StochasticKernel([[0.5, 0.5], [0.5, 0.5]]),
            stationary=fk.ProbMeasure([0.5, 0.5]),
            family=((M0, fk.Potential([0.7, 0.7])), (M1, fk.Potential([0.7, 0.7]))),
        )
        path = fk.sample_env_path(chain, past=40, horizon=40, seed=9)
        out = fk.h_env(chain, path, 0, depth=30)
        np.testing.assert_allclose(out.values, [1.0, 1.0], atol=1e-12)

    def test_limit_function_approach_rate(self, env_chain):
        # The per-position gap between the limiting column started at the
        # initial law and the one started at the backward fixed point decays
        # log-linearly at about the fitted contraction rate.
        path = fk.sample_env_path(env_chain, past=50, horizon=120, seed=2718)
        model = fk.env_model(env_chain, path)
        bounds = fk.contraction_profile(model, 25)
        gaps = []
        for p in range(0, 26):
            qinf = fk.qbar_p_inf(model, p, depth=45)
            hp = fk.h_env(env_chain, path, p, depth=45)
            gaps.append(float(np.abs(qinf.values - hp.values).max()))
        points = [(p, math.log(g)) for p, g in enumerate(gaps) if g > 1e-13]
        assert len(points) >= 8
        x = np.array([q[0] for q in points])
        y = np.array([q[1] for q in points])
        slope = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
        assert abs(-slope - bounds.lambda_hat) <= 0.25 * bounds.lambda_hat


class TestCofY:
    def test_constant_environment_matches_homogeneous(self, two_state):
        step = two_state.step(0)
        chain = single_state_chain(step.M, step.G)
        path = fk.sample_env_path(chain, past=60, horizon=60, seed=1)
        val = fk.c_of_y(chain, MULTI, path, 1, depth=45)
        assert abs(val - fk.sigma2_homogeneous(two_state, MULTI)) <= 1e-10

    def test_constant_potentials_vanish(self, two_state):
        M0 = two_state.step(0).M
        M1 = fk.StochasticKernel([[0.2, 0.8], [0.6, 0.4]])
        chain = fk.EnvironmentChain(
            transition=fk.StochasticKernel([[0.5, 0.5], [0.5, 0.5]]),
            stationary=fk.ProbMeasure([0.5, 0.5]),
            family=((M0, fk.Potential([0.7, 0.7])), (M1, fk.Potential([0.7, 0.7]))),
        )
        path = fk.sample_env_path(chain, past=40, horizon=40, seed=9)
        assert abs(fk.c_of_y(chain, MULTI, path, 1, depth=30)) <= 1e-13

    def test_period2_alternates_by_parity(self, period2_chain):
        path = fk.sample_env_path(period2_chain, past=50, horizon=50, seed=3)
        v1 = fk.c_of_y(period2_chain, MULTI, path, 1, depth=40)
        v2 = fk.c_of_y(period2_chain, MULTI, path, 2, depth=40)
        v3 = fk.c_of_y(period2_chain, MULTI, path, 3, depth=40)
        v4 = fk.c_of_y(period2_chain, MULTI, path, 4, depth=40)
        assert v1 == v3 and v2 == v4  # identical float computations per parity
        assert v1 != v2

    def test_nonnegative(self, env_chain):
        path = fk.sample_env_path(env_chain, past=30, horizon=50, seed=21)
        for p in range(1, 20):
            for choice in fk.KernelChoice:
                assert fk.c_of_y(env_chain, choice, path, p, depth=25) >= 0.0

    def test_shift_equivariance(self, env_chain):
        path = fk.sample_env_path(env_chain, past=60, horizon=60, seed=23)
        for p in (1, 5, 12):
            direct = fk.c_of_y(env_chain, MULTI, path, p, depth=40)
            shifted = fk.c_of_y(env_chain, MULTI, path.shift(p), 0, depth=40)
            assert direct == shifted  # same absolute inputs, same floats

    @pytest.mark.parametrize("side", ["past", "future"])
    def test_window_one_index_short(self, env_chain, side):
        # c_of_y at position 1 and depth 6 reads the indices [-6, 6].
        path = fk.sample_env_path(env_chain, past=6, horizon=6, seed=8)
        fk.c_of_y(env_chain, MULTI, path, 1, depth=6)
        short = path.shift(-1) if side == "past" else path.shift(1)
        with pytest.raises(WindowTooShort):
            fk.c_of_y(env_chain, MULTI, short, 1, depth=6)

    def test_underflowing_product_is_rejected(self, env_chain):
        # Potentials of 1e-300 make the pairwise products underflow to zero,
        # so the backward limits are 0/0; the contribution must not pass as
        # a number.
        tiny = fk.Potential([1e-300, 1e-300])
        chain = fk.EnvironmentChain(
            transition=env_chain.transition,
            stationary=env_chain.stationary,
            family=(env_chain.family[0], (env_chain.kernel(1), tiny)),
        )
        path = fk.EnvPath(np.ones(20, dtype=np.int64), -10)
        for choice in fk.KernelChoice:
            with np.errstate(all="ignore"), pytest.raises(InvalidModel):
                fk.c_of_y(chain, choice, path, 1, depth=3)


def one_position_c(chain, choice, y, position, depth):
    """c(y) at one position by the one-window arithmetic that c_of_y reduces
    in blocks: one product call over the window, a batch-of-one covariance."""
    states = y.window(position - 1 - depth, position + depth - 1)
    d = chain.state_dim
    factors = chain.factors(states).reshape(2, depth, d, d)
    shared, tail = _ordered_products(factors[:, 1:])
    mu = _flow(factors[0, 0] @ shared)
    h = _limit_function(tail, chain._G[states[-1]], _flow(shared @ factors[1, 0]))
    G = chain._G[states[depth]]
    M = chain._M[states[depth + 1]]
    (value,) = _cov_raw(choice, mu[None], G[None], M[None], h[None], h[None])
    return float(value)


def cold_c(chain, choice, y, position, depth):
    """c_of_y on a fresh copy of the path, which keeps no values."""
    return fk.c_of_y(chain, choice, fk.EnvPath(y.states, y.lo), position, depth)


def read_outcome(read, *args):
    """A read's value, or the type and message of what it raised."""
    try:
        return read(*args)
    except FKError as exc:
        return type(exc), str(exc)


def sigma2_env_path(monkeypatch, chain, choice, horizon, depth, seed=0, path=None):
    """Run sigma2_env and return the path it reduced, which then keeps its
    values; ``path`` stands in for the path it would sample."""
    sampled = []

    def sample(chain, past, horizon, seed):
        sampled.append(fk.sample_env_path(chain, past, horizon, seed) if path is None else path)
        return sampled[-1]

    monkeypatch.setattr(randenv, "sample_env_path", sample)
    fk.sigma2_env(chain, choice, horizon, depth, seed)
    return sampled[0]


def kept_values(chain, choice, y, depth):
    kept = y._kept
    assert kept[0] is chain and kept[1] is choice and kept[2] == depth
    return kept[3]


class TestReadAhead:
    """sigma2_env reduces its horizon in blocks and keeps the values on the
    path it samples; every kept value and every read must give the bits and
    the errors of a read on its own."""

    @pytest.mark.parametrize("budget", [BLOCK_FACTOR_ENTRIES, 2**9])
    @pytest.mark.parametrize("depth", [1, 2, 40])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_any_order_matches_cold_reads(self, monkeypatch, d, depth, budget):
        monkeypatch.setattr(randenv, "BLOCK_FACTOR_ENTRIES", budget)
        rng = np.random.default_rng(10 * d + depth)
        chain = random_chain(rng, 3, d, floor=1e-12)
        positions = np.arange(1, 121)
        orders = {
            "ascending": positions,
            "descending": positions[::-1],
            "random": rng.permutation(positions),
        }
        for choice in fk.KernelChoice:
            y = sigma2_env_path(monkeypatch, chain, choice, 120, depth, seed=d + depth)
            expected = [one_position_c(chain, choice, y, int(p), depth) for p in positions]
            np.testing.assert_array_equal(kept_values(chain, choice, y, depth), expected)
            for p in positions[::17]:
                assert cold_c(chain, choice, y, int(p), depth) == expected[p - 1]
            for order in orders.values():
                for p in order:
                    assert fk.c_of_y(chain, choice, y, int(p), depth) == expected[p - 1]

    def test_benchmark_path_matches_one_position_reads(self, env_chain, monkeypatch):
        for choice in fk.KernelChoice:
            y = sigma2_env_path(monkeypatch, env_chain, choice, 1000, 40, seed=4242)
            expected = [one_position_c(env_chain, choice, y, p, 40) for p in range(1, 1001)]
            np.testing.assert_array_equal(kept_values(env_chain, choice, y, 40), expected)

    def test_interleaved_reads_on_one_path(self, monkeypatch):
        # The path keeps values for one (chain, kernel, depth); reads with
        # the others reduce their positions alone.
        rng = np.random.default_rng(8)
        chains = [random_chain(rng, 2, d, floor=1e-6) for d in (2, 3)]
        path = sigma2_env_path(monkeypatch, chains[0], MULTI, 100, 10, seed=3)
        reads = [
            (chain, choice, depth)
            for chain in chains
            for choice in fk.KernelChoice
            for depth in (3, 10)
        ]
        for p in range(1, 50):
            for chain, choice, depth in reads[p % 3 :] + reads[: p % 3]:
                value = fk.c_of_y(chain, choice, path, p, depth)
                assert value == one_position_c(chain, choice, path, p, depth)

    @pytest.mark.parametrize(
        "states",
        [
            np.arange(116) % 2,  # alternating
            (np.isin(np.arange(116), [9, 30, 31, 55])).astype(np.int64),  # sparse
        ],
        ids=["alternating", "sparse"],
    )
    def test_potential_above_one_raises_where_a_cold_read_does(self, monkeypatch, states):
        # Under transport, a read raises when the state at position - 1 has a
        # potential above 1; no other read may raise with it.  sigma2_env
        # raises from the block that holds such a position.
        M0 = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]])
        M1 = fk.StochasticKernel([[0.2, 0.8], [0.6, 0.4]])
        chain = fk.EnvironmentChain(
            transition=fk.StochasticKernel([[0.5, 0.5], [0.5, 0.5]]),
            stationary=fk.ProbMeasure([0.5, 0.5]),
            family=((M0, fk.Potential([0.5, 0.9])), (M1, fk.Potential([0.7, 1.5]))),
        )
        path = fk.EnvPath(states, -8)  # the window of positions 1..100 at depth 8
        with pytest.raises(InvalidModel, match="transport kernel needs potential values <= 1"):
            sigma2_env_path(monkeypatch, chain, fk.KernelChoice.TRANSPORT, 100, 8, path=path)
        assert path._kept is None
        y = sigma2_env_path(monkeypatch, chain, MULTI, 100, 8, path=fk.EnvPath(states, -8))
        positions = list(range(1, 101))
        order = positions + positions[::-1]
        order += list(np.random.default_rng(2).permutation(positions))
        for choice in fk.KernelChoice:
            raised = 0
            for p in order:
                outcome = read_outcome(fk.c_of_y, chain, choice, y, int(p), 8)
                assert outcome == read_outcome(cold_c, chain, choice, path, int(p), 8)
                if isinstance(outcome, tuple):
                    assert choice is fk.KernelChoice.TRANSPORT and path.state(int(p) - 1) == 1
                    assert outcome[0] is InvalidModel
                    raised += 1
                else:
                    assert outcome == one_position_c(chain, choice, path, int(p), 8)
            if choice is fk.KernelChoice.TRANSPORT:
                assert raised == 3 * sum(path.state(p - 1) == 1 for p in positions)

    def test_non_finite_value_raises_only_at_its_position(self, env_chain, monkeypatch):
        # State 1's potentials underflow the products, so every position whose
        # window meets a run of ten 1s is 0/0; the others must read as usual.
        # sigma2_env reduces every block with warnings off and raises
        # InvalidModel at the first such position, with no RuntimeWarning.
        tiny = fk.Potential([1e-300, 1e-300])
        chain = fk.EnvironmentChain(
            transition=env_chain.transition,
            stationary=env_chain.stationary,
            family=(env_chain.family[0], (env_chain.kernel(1), tiny)),
        )
        states = np.zeros(110, dtype=np.int64)
        states[60:70] = 1
        for choice in fk.KernelChoice:
            y = fk.EnvPath(states, -5)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(InvalidModel) as raised:
                    sigma2_env_path(monkeypatch, chain, choice, 100, 5, path=y)
                # A kept value reads as an index, so no read warns.
                outcomes = [read_outcome(fk.c_of_y, chain, choice, y, p, 5) for p in range(1, 101)]
            with np.errstate(all="ignore"):
                for p, outcome in zip(range(1, 101), outcomes):
                    assert outcome == read_outcome(cold_c, chain, choice, y, p, 5)
            failed = [o for o in outcomes if isinstance(o, tuple)]
            assert failed and len(failed) < len(outcomes)
            assert all(o[0] is InvalidModel for o in failed)
            assert str(raised.value) == failed[0][1]  # the first position that fails

    def test_window_check_comes_first(self, env_chain, monkeypatch):
        path = sigma2_env_path(monkeypatch, env_chain, MULTI, 100, 6, seed=8)
        assert (path.lo, path.hi) == (-6, 105)  # exactly the windows of 1..100
        with pytest.raises(WindowTooShort, match=r"indices \[-6, 6\]"):
            fk.c_of_y(env_chain, MULTI, path.shift(-1), 1, depth=6)
        with pytest.raises(WindowTooShort, match=r"indices \[-7, 5\]"):
            fk.c_of_y(env_chain, MULTI, path, 0, depth=6)
        with pytest.raises(WindowTooShort, match=r"indices \[94, 106\]"):
            fk.c_of_y(env_chain, MULTI, path, 101, depth=6)

    def test_ascending_reads_reduce_each_block_once(self, env_chain, monkeypatch):
        calls, reads = [], []
        inner, read = randenv._contributions, randenv.c_of_y

        def counted(chain, choice, y, first, last, depth):
            calls.append((first, last))
            return inner(chain, choice, y, first, last, depth)

        def counted_read(*args):
            reads.append(args[3])
            return read(*args)

        monkeypatch.setattr(randenv, "_contributions", counted)
        monkeypatch.setattr(randenv, "c_of_y", counted_read)
        fk.sigma2_env(env_chain, MULTI, 500, 40, seed=6)
        size = randenv._block_size(2, 40)
        assert size == 232
        assert calls == [(1, size), (size + 1, 2 * size), (2 * size + 1, 500)]
        assert reads == list(range(1, 501))

    def test_path_pickles_to_the_same_bytes_after_use(self, env_chain, monkeypatch):
        path = sigma2_env_path(monkeypatch, env_chain, MULTI, 100, 40, seed=12)
        assert path._kept is not None
        assert pickle.dumps(path) == pickle.dumps(fk.EnvPath(path.states, path.lo))
        copy = pickle.loads(pickle.dumps(path))
        assert copy._kept is None
        assert np.array_equal(copy.states, path.states) and copy.lo == path.lo
        assert fk.c_of_y(env_chain, MULTI, copy, 5, 40) == fk.c_of_y(env_chain, MULTI, path, 5, 40)

    @pytest.mark.parametrize(
        "d, depth", [(2, 40), (5, 200), (1, 1), (2, 2), (3, 7), (3, 40), (8, 3), (8, 2000)]
    )
    def test_block_stays_within_the_budget(self, monkeypatch, d, depth):
        # The budget bounds what a block holds at once, in float64 entries:
        # the traced peak of reducing one block, for both kernels.  Every
        # value sigma2_env keeps has the bits of a read on its own, over one
        # and a half blocks where that is 100 to 600 positions.
        rng = np.random.default_rng(d)
        chain = random_chain(rng, 2, d, floor=1e-3)
        size = randenv._block_size(d, depth)
        horizon = max(100, min(size + size // 2 + 1, 600))
        path = fk.sample_env_path(chain, past=depth + 1, horizon=depth + size, seed=d)
        for choice in fk.KernelChoice:
            randenv._contributions(chain, choice, path, 1, size, depth)  # warm
            tracemalloc.start()
            try:
                randenv._contributions(chain, choice, path, 1, size, depth)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if (d, depth) == (8, 2000):
                assert size == 1  # one position alone is over the budget
            else:
                assert size > 1 and peak <= 8 * BLOCK_FACTOR_ENTRIES
            y = sigma2_env_path(monkeypatch, chain, choice, horizon, depth, seed=d)
            expected = [one_position_c(chain, choice, y, p, depth) for p in range(1, horizon + 1)]
            np.testing.assert_array_equal(kept_values(chain, choice, y, depth), expected)

    @pytest.mark.parametrize("depth", [1, 2, 7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_sizes_near_the_depth_match_one_position_reads(self, monkeypatch, d, depth):
        # Blocks of b < D positions reduce 2b windows and longer ones b + D;
        # depth 1 reduces windows of no factors.  The budget cannot give
        # every size (a block just short of D costs more than one of D), so
        # the block size is set directly.
        rng = np.random.default_rng(7 * d + depth)
        chain = random_chain(rng, 3, d, floor=1e-9)
        sizes = {b for b in (1, depth - 1, depth, depth + 1, 2 * depth + 1) if b >= 1}
        calls = []
        inner = randenv._contributions

        def counted(chain, choice, y, first, last, depth):
            calls.append(last - first + 1)
            return inner(chain, choice, y, first, last, depth)

        monkeypatch.setattr(randenv, "_contributions", counted)
        for b in sorted(sizes):
            monkeypatch.setattr(randenv, "_block_size", lambda d, depth, b=b: b)
            for choice in fk.KernelChoice:
                calls.clear()
                y = sigma2_env_path(monkeypatch, chain, choice, 100, depth, seed=d * depth)
                assert calls == [b] * (100 // b) + ([100 % b] if 100 % b else [])
                expected = [one_position_c(chain, choice, y, p, depth) for p in range(1, 101)]
                np.testing.assert_array_equal(kept_values(chain, choice, y, depth), expected)


class TestReferenceLoops:
    """The product forms against the step-by-step loops they replaced."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("env_size", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_backward_limits_match_loops(self, d, env_size, depth):
        rng = np.random.default_rng(1000 * d + 100 * env_size + depth)
        chain = random_chain(rng, env_size, d, floor=1e-12)
        path = fk.sample_env_path(chain, past=depth + 2, horizon=depth + 6, seed=depth)
        model = fk.env_model(chain, path.shift(-depth - 2))
        for p in (0, 1, 3):
            np.testing.assert_allclose(
                fk.eta_inf_env(chain, path, p, depth).weights,
                ref_flow(chain, path, p, depth),
                rtol=1e-12, atol=0,
            )
            np.testing.assert_allclose(
                fk.h_env(chain, path, p, depth).values,
                ref_h(chain, path, p, depth),
                rtol=1e-12, atol=0,
            )
            for choice in fk.KernelChoice:
                assert fk.c_of_y(chain, choice, path, p, depth) == pytest.approx(
                    ref_c(chain, choice, path, p, depth), rel=1e-12, abs=0
                )
            q = p + depth + 2  # the same absolute index on the model's clock
            steps = [model.step(q + offset) for offset in range(depth)]
            np.testing.assert_allclose(
                fk.qbar_p_inf(model, q, depth).values,
                ref_log_series(
                    fk.propagate(model, q).etas[q].weights,
                    [s.G.values for s in steps],
                    [s.M.rows for s in steps[:-1]],
                ),
                rtol=1e-12, atol=0,
            )

    def test_long_window_with_small_potentials(self):
        # At depth 1000 every factor is below 1e-3, so an unscaled product
        # would underflow to zero.
        rng = np.random.default_rng(77)
        M = fk.StochasticKernel(rng.dirichlet(np.ones(3), size=3))
        family = tuple((M, fk.Potential(1e-3 * rng.uniform(0.5, 1.0, size=3))) for _ in range(2))
        chain = fk.EnvironmentChain(
            transition=fk.StochasticKernel([[0.6, 0.4], [0.4, 0.6]]),
            stationary=fk.ProbMeasure([0.5, 0.5]),
            family=family,
        )
        path = fk.sample_env_path(chain, past=1001, horizon=1001, seed=2)
        for choice in fk.KernelChoice:
            value = fk.c_of_y(chain, choice, path, 1, depth=1000)
            assert math.isfinite(value)
            assert value == pytest.approx(ref_c(chain, choice, path, 1, 1000), rel=1e-12, abs=0)


class TestOrderedProducts:
    def test_no_factors_give_the_identity(self):
        out = _ordered_products(np.empty((2, 0, 3, 3)))
        np.testing.assert_array_equal(out, np.broadcast_to(np.eye(3), (2, 3, 3)))

    def test_one_factor_is_returned_as_is(self):
        stack = np.random.default_rng(3).random((2, 1, 3, 3))
        np.testing.assert_array_equal(_ordered_products(stack), stack[:, 0])

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 12])
    def test_matches_the_loop_in_order(self, k):
        # Non-commuting random factors, two batch entries.
        stack = np.random.default_rng(k).random((2, k, 3, 3))
        out = _ordered_products(stack)
        for b in range(2):
            ref = ref_product(stack[b])
            np.testing.assert_allclose(out[b] / out[b].max(), ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("b", [1, 7])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_scale_matches_the_last_axis_max(self, d, b):
        rng = np.random.default_rng(10 * d + b)
        for k in range(42):
            stack = rng.random((b, k, d, d)) * 10.0 ** rng.uniform(-30, 30, (b, k, 1, 1))
            np.testing.assert_array_equal(_ordered_products(stack), last_axis_max_products(stack))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_inf_and_nan_entries_match_the_last_axis_max(self, d):
        # Bits, NaN for NaN, and the floating-point warnings of the reference.
        rng = np.random.default_rng(d)
        specials = np.array([0.0, np.inf, np.nan])
        for k in (1, 2, 3, 6, 11):
            for _ in range(20):
                stack = rng.random((7, k, d, d))
                hit = rng.random(stack.shape) < 0.1
                stack[hit] = rng.choice(specials, size=int(hit.sum()))
                outcomes = []
                for routine in (_ordered_products, last_axis_max_products):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = routine(stack)
                    outcomes.append((out, sorted({str(w.message) for w in caught})))
                np.testing.assert_array_equal(outcomes[0][0], outcomes[1][0])
                assert outcomes[0][1] == outcomes[1][1]

    def test_long_product_does_not_underflow(self):
        rng = np.random.default_rng(5)
        stack = 1e-3 * rng.dirichlet(np.ones(3), size=(1, 1000, 3))
        out = _ordered_products(stack)[0]
        assert np.all(np.isfinite(out)) and out.max() == 1.0
        np.testing.assert_allclose(out, ref_product(stack[0]), rtol=1e-12, atol=0)


class TestSigma2Env:
    def test_single_state_reduces_exactly(self, two_state):
        step = two_state.step(0)
        chain = single_state_chain(step.M, step.G)
        est, se = fk.sigma2_env(chain, MULTI, horizon=200, depth=40, seed=1)
        assert abs(est - fk.sigma2_homogeneous(two_state, MULTI)) <= 1e-10
        assert se <= 1e-12

    def test_period2_closed_form(self, period2_chain):
        est, _ = fk.sigma2_env(period2_chain, MULTI, horizon=10_000, depth=40, seed=9)
        path = fk.sample_env_path(period2_chain, past=41, horizon=45, seed=9)
        closed = 0.5 * (
            fk.c_of_y(period2_chain, MULTI, path, 2, depth=40)
            + fk.c_of_y(period2_chain, MULTI, path, 3, depth=40)
        )
        assert abs(est - closed) <= 1e-8

    def test_horizon_doubling_shrinks_error(self, env_chain):
        _, s1 = fk.sigma2_env(env_chain, MULTI, horizon=400, depth=40, seed=5)
        _, s2 = fk.sigma2_env(env_chain, MULTI, horizon=800, depth=40, seed=5)
        ratio = s1 / s2
        assert math.sqrt(2.0) / 1.5 <= ratio <= math.sqrt(2.0) * 1.5

    def test_requires_minimum_horizon(self, env_chain):
        with pytest.raises(ValueError):
            fk.sigma2_env(env_chain, MULTI, horizon=50, depth=10, seed=1)

    def test_estimate_nonnegative(self, env_chain):
        est, _ = fk.sigma2_env(env_chain, MULTI, horizon=150, depth=30, seed=31)
        assert est >= 0.0


class TestErgodicRemainder:
    def test_vn_average_matches_running_c_average(self, env_chain):
        # Finite-horizon remainder constant fitted once on this model
        # (max measured n * diff was 0.022) and frozen with margin.
        FROZEN_C = 0.1
        path = fk.sample_env_path(env_chain, past=45, horizon=110, seed=31337)
        model = fk.env_model(env_chain, path)
        for n in (8, 16, 32, 64):
            v = fk.v_n(model, MULTI, n)
            c_sum = sum(
                fk.c_of_y(env_chain, MULTI, path, p, depth=40) for p in range(1, n)
            )
            assert abs(v / n - c_sum / n) <= FROZEN_C / n
