from __future__ import annotations

import math

import numpy as np
import pytest

import fkclt as fk


@pytest.fixture(scope="session")
def two_state():
    """Reference two-state model used throughout the suite."""
    M = fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]])
    G = fk.Potential([0.5, 0.9])
    eta0 = fk.ProbMeasure([0.5, 0.5])
    return fk.homogeneous_model(M, G, eta0)


@pytest.fixture(scope="session")
def env_chain(two_state):
    """Reference two-state environment: same mutation kernel, two potentials."""
    M = two_state.step(0).M
    return fk.EnvironmentChain(
        transition=fk.StochasticKernel([[0.7, 0.3], [0.3, 0.7]]),
        stationary=fk.ProbMeasure([0.5, 0.5]),
        family=((M, fk.Potential([0.5, 0.9])), (M, fk.Potential([0.7, 0.6]))),
    )


@pytest.fixture(scope="session")
def period2_chain(two_state):
    """Deterministic alternating environment over the same family."""
    M = two_state.step(0).M
    return fk.EnvironmentChain(
        transition=fk.StochasticKernel([[0.0, 1.0], [1.0, 0.0]]),
        stationary=fk.ProbMeasure([0.5, 0.5]),
        family=((M, fk.Potential([0.5, 0.9])), (M, fk.Potential([0.7, 0.6]))),
    )


@pytest.fixture(scope="session")
def hmm_params():
    return fk.HmmParams(
        transition=fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]]),
        emission=np.array([[0.8, 0.2], [0.3, 0.7]]),
        initial=fk.ProbMeasure([0.5, 0.5]),
    )


def stack(model: fk.FKModel, lo: int, hi: int) -> tuple:
    """Potentials (k, d) and kernels (k, d, d) of the model's steps
    lo..hi-1, the arrays ``refkit`` takes."""
    steps = [model.step(q) for q in range(lo, hi)]
    G = np.array([s.G.values for s in steps]).reshape(-1, model.d)
    return G, np.array([s.M.rows for s in steps]).reshape(-1, model.d, model.d)


def uniforms(seed: int, shape) -> np.ndarray:
    """The uniforms of PCG64 seeded with ``seed`` modulo 2**64, in the
    order the package's samplers read them."""
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF)).random(shape)


def random_model(rng: np.random.Generator, d: int, transport_safe: bool = False) -> fk.FKModel:
    """Random homogeneous model; potentials capped at 1 when transport_safe."""
    M = fk.StochasticKernel(rng.dirichlet(np.ones(d), size=d))
    high = 1.0 if transport_safe else 3.0
    G = fk.Potential(rng.uniform(0.1, high, size=d))
    eta0 = fk.ProbMeasure(rng.dirichlet(np.ones(d)))
    return fk.homogeneous_model(M, G, eta0)


def random_explicit_model(rng: np.random.Generator, d: int, steps: int) -> fk.FKModel:
    """Random explicit schedule of ``steps`` steps, potentials in [1e-3, 1]."""
    return fk.explicit_model(
        [
            fk.FKStep(
                fk.Potential(rng.uniform(1e-3, 1.0, size=d)),
                fk.StochasticKernel(rng.dirichlet(np.ones(d), size=d)),
            )
            for _ in range(steps)
        ],
        fk.ProbMeasure(rng.dirichlet(np.ones(d))),
    )


def random_chain(rng: np.random.Generator, env_size: int, d: int, floor: float):
    """Random environment whose potentials reach down to ``floor``."""
    transition = fk.StochasticKernel(rng.dirichlet(np.ones(env_size), size=env_size))
    family = []
    for _ in range(env_size):
        G = 10.0 ** rng.uniform(math.log10(floor), 0.0, size=d)
        G[rng.integers(d)] = floor
        family.append((fk.StochasticKernel(rng.dirichlet(np.ones(d), size=d)), fk.Potential(G)))
    return fk.EnvironmentChain(
        transition=transition,
        stationary=fk.stationary_distribution(transition),
        family=tuple(family),
    )


def model_kinds(seed: int, d: int, steps: int, horizon: int) -> dict:
    """A homogeneous, an explicit (``steps`` steps) and an environment model
    (a path of ``horizon`` positions) on d states, potentials at most 1, all
    drawn afresh from ``seed``: the chain first, then the homogeneous and
    the explicit model, and the path from its own seed d."""
    rng = np.random.default_rng(seed)
    chain = random_chain(rng, 3, d, floor=1e-3)
    return {
        "homogeneous": random_model(rng, d, transport_safe=True),
        "explicit": random_explicit_model(rng, d, steps),
        "environment": fk.env_model(chain, fk.sample_env_path(chain, 0, horizon, seed=d)),
    }
