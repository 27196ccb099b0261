"""Application builders: particle absorption and finite hidden Markov models.

Both come with an independent cross-validation oracle that shares no code
with the semigroup machinery: direct killed-chain simulation for absorption
survival probabilities, and the classical scaled forward recursion for HMM
marginal likelihoods.

The killed chains run ``SURVIVAL_CHUNK`` at a time.  Each chunk jumps one
PCG64 stream ahead to its own uniforms, so every chain reads the same
uniforms for any chunk layout, and memory is O(``SURVIVAL_CHUNK``) whatever
the number of trials.

``hmm_build`` shares one ``FKStep``, and so its sampling tables, among the
positions of each observed symbol.  ``hmm_env_chain`` hands the HMM to the
random-environment layer as the Markov chain of (hidden state, symbol)
pairs, whose symbols have the exact law of the observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    FKModel,
    FKStep,
    InvalidModel,
    Potential,
    ProbMeasure,
    StochasticKernel,
    _categorical_thresholds,
    _chain_path,
    _generator,
    _indices,
    _stochastic,
    _thresholds,
    homogeneous_model,
    explicit_model,
    total_variation,
)
from .oracle import fixed_point_eta_inf, propagate
from .randenv import EnvironmentChain, stationary_distribution

SURVIVAL_CHUNK = 1 << 16  # killed chains one survival_mc_table chunk holds at once


@dataclass(frozen=True)
class AbsorptionModel:
    """Killed Markov chain: at each time the particle survives with
    probability G(x), strictly inside (0, 1)."""

    M: StochasticKernel
    G: Potential
    eta0: ProbMeasure

    def __post_init__(self) -> None:
        if not (self.M.d == self.G.d == self.eta0.d):
            raise InvalidModel("absorption model dimensions differ")
        if self.G.values.min() <= 0.0 or self.G.values.max() >= 1.0:
            raise InvalidModel(
                "survival probabilities must lie strictly inside (0, 1), "
                f"got range [{float(self.G.values.min())!r}, {float(self.G.values.max())!r}]"
            )

    def to_fk(self) -> FKModel:
        return homogeneous_model(self.M, self.G, self.eta0)


def absorption_build(M: StochasticKernel, G: Potential, eta0: ProbMeasure) -> FKModel:
    """Homogeneous model whose normalizing constant at time n is P(T >= n)."""
    return AbsorptionModel(M, G, eta0).to_fk()


def survival_mc_table(model: AbsorptionModel, n: int, trials: int, seed: int) -> np.ndarray:
    """Surviving fraction of ``trials`` killed chains at horizons 0..n, an
    estimate of P(T >= k) at entry k that shares nothing with the semigroup
    code: each chain survives a step with probability G(x), then moves.

    One PCG64 stream from ``seed`` feeds all chains: chain i starts from
    uniform i and at horizon h reads uniform (2h-1)T + i to survive and
    2hT + i to move (T = ``trials``).  The chains run ``SURVIVAL_CHUNK`` at
    a time, each chunk placing the stream at its own uniforms by jump-ahead,
    so memory is O(``SURVIVAL_CHUNK``) whatever T is and the table is the
    same for any chunk layout.  Only live chains are moved, and a chunk
    stops when none is left."""
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    start = _thresholds(model.eta0.weights[None])
    moves = _thresholds(model.M.rows)
    survivors = np.zeros(n + 1, dtype=np.int64)
    survivors[0] = trials
    for first in range(0, trials, SURVIVAL_CHUNK):
        size = min(SURVIVAL_CHUNK, trials - first)
        gen = _generator(seed)
        gen.bit_generator.advance(first)
        states = _categorical_thresholds(start, gen.random(size))[0]
        live = np.arange(size)
        for horizon in range(1, n + 1):
            gen.bit_generator.advance(trials - size)
            kept = gen.random(size)[live] < model.G.values[states]
            live, states = live[kept], states[kept]
            gen.bit_generator.advance(trials - size)
            states = _categorical_thresholds(moves, gen.random(size)[live], states)[0]
            survivors[horizon] += live.size
            if not live.size:
                break
    return survivors / trials


def survival_mc_oracle(model: AbsorptionModel, n: int, trials: int, seed: int) -> tuple:
    """Brute-force P(T >= n), the last entry of ``survival_mc_table``, with
    its binomial standard error."""
    estimate = float(survival_mc_table(model, n, trials, seed)[n])
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, std_error


def yaglom_check(model: AbsorptionModel, n: int) -> float:
    """Total-variation distance between the conditioned law at time n and
    the quasi-stationary (Yaglom) measure."""
    fk = model.to_fk()
    eta_n = propagate(fk, n).etas[n]
    return total_variation(eta_n, fixed_point_eta_inf(fk))


@dataclass(frozen=True)
class HmmParams:
    """Finite HMM: hidden transition kernel, row-stochastic emission matrix
    over a finite symbol alphabet, and the initial hidden law."""

    transition: StochasticKernel
    emission: np.ndarray
    initial: ProbMeasure

    def __post_init__(self) -> None:
        e = _stochastic(self.emission, 2, "emission matrix")
        if e.shape[0] != self.transition.d:
            raise InvalidModel(
                f"emission matrix must have one row per hidden state, got shape {e.shape}"
            )
        if self.initial.d != self.transition.d:
            raise InvalidModel("initial law does not match the hidden state count")
        object.__setattr__(self, "emission", e)

    @property
    def hidden_count(self) -> int:
        return self.transition.d

    @property
    def symbol_count(self) -> int:
        return self.emission.shape[1]


def hmm_generate(params: HmmParams, length: int, seed: int) -> tuple:
    """Sample (hidden states, observations) forward; deterministic given seed.
    Uniforms go to the initial state, then alternate emission and move."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    u = _generator(seed).random(2 * length + 1)
    hidden = _chain_path(params.initial.weights, params.transition.rows, u[0 : 2 * length : 2])
    observed = _categorical_thresholds(_thresholds(params.emission), u[1::2], hidden)[0]
    return hidden, observed


def hmm_build(params: HmmParams, observations: Sequence[int]) -> FKModel:
    """Explicit-schedule model whose normalizing constant after all steps is
    the marginal likelihood of the observation sequence.

    Every emission likelihood along the sequence must be strictly positive;
    a symbol with a zero likelihood under some hidden state breaks the
    positive-potential requirement and is rejected at its first position.
    """
    obs = _indices(observations, "observation symbol", params.symbol_count).tolist()
    steps = {}
    for t, y in enumerate(obs):
        if y not in steps:
            column = params.emission[:, y]
            if column.min() <= 0.0:
                raise InvalidModel(
                    f"emission likelihood of symbol {y} at position {t} vanishes "
                    "for some hidden state"
                )
            steps[y] = FKStep(Potential(column), params.transition)
    return explicit_model([steps[y] for y in obs], params.initial)


def _forward(params: HmmParams, observations: Sequence[int]) -> tuple:
    """(log marginal likelihood, predictive filter weights) by the classical
    scaled forward recursion, independent of the measure-flow code on purpose."""
    obs = _indices(observations, "observation symbol", params.symbol_count, empty=True)
    alpha = params.initial.weights.copy()
    total = 0.0
    for t, y in enumerate(obs):
        alpha = alpha * params.emission[:, y]
        c = float(alpha.sum())
        if c <= 0.0:
            raise InvalidModel(f"observation sequence has zero probability at position {t}")
        total += math.log(c)
        alpha = (alpha / c) @ params.transition.rows
    return total, alpha


def forward_likelihood(params: HmmParams, observations: Sequence[int]) -> float:
    """Log marginal likelihood by the scaled forward recursion."""
    return _forward(params, observations)[0]


def hmm_filter(params: HmmParams, observations: Sequence[int]) -> ProbMeasure:
    """Predictive filter law of the hidden state after the observations,
    by the same forward recursion."""
    return ProbMeasure(_forward(params, observations)[1])


def hmm_env_chain(params: HmmParams) -> EnvironmentChain:
    """Environment chain on the (hidden state x, symbol y) pairs, state
    ``x * S + y`` for S symbols: Markov, where the symbols alone are not.
    It moves by ``M(x, x') e(x', y')`` whatever y is, has the stationary law
    ``pi(x) e(x, y)``, and pair (x, y) selects (M, e(., y)), so its symbols
    have the exact law of the observations.  Emission columns must be
    strictly positive."""
    M, e = params.transition, params.emission
    d, S = e.shape
    pi = stationary_distribution(M).weights
    potentials = [Potential(e[:, y]) for y in range(S)]
    moves = (M.rows[:, :, None] * e).reshape(d, d * S)  # row x: M(x, x') e(x', y')
    return EnvironmentChain(
        transition=StochasticKernel(np.repeat(moves, S, axis=0)),
        stationary=ProbMeasure((pi[:, None] * e).ravel()),
        family=tuple((M, G) for _ in range(d) for G in potentials),
    )
