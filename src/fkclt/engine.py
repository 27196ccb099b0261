"""Mean-field particle simulation of finite-state models.

Each particle moves independently, conditionally on the previous
generation, by a draw from its own kernel row evaluated at the current
empirical measure.  Categorical draws go through ``core._categorical``
with one uniform per draw; the state counts are recounted at every step.
A run returns only what its callers read
(``RunRecord``): the seed, the replicate index, and the log
normalizing-constant estimate, raw and normalized by the exact value.

Validated at the public edges, raw inside: ``ParticleSystem(...)`` and
``init_particles`` check the states, and ``step`` checks that system and
model share ``d``.  The successor ``step`` builds is not checked again,
since ``_categorical`` draws int64 states in [0, d-1].

The kernel rows depend on the particles only through the state counts m,
since the empirical measure is m/N.  So ``step`` asks its ``FKStep`` for
the generation's CDF table by (kernel, m) (``FKStep.sampling_table``),
which builds a table from ``core._kernel_rows_raw``, the one row builder
that the exact layer uses too, and keeps it, up to
``core.SAMPLING_TABLES_MAX`` per step.  That memo is the only per-step
cache; a kept table equals a rebuilt one bit for bit.  ``run``'s potential
mean is still summed over the particle array, in particle order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ArrayLike,
    DimensionMismatch,
    FKModel,
    InvalidModel,
    KernelChoice,
    ProbMeasure,
    _categorical,
    _phi_raw,
    as_values,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Disjoint 64-bit child seed for stream ``index`` under ``master_seed``.

    The map is a SplitMix64-style finalizer of ``master + (index+1) gamma``;
    it is injective in the index, so child streams never share a seed.
    """
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return _mix64((master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64)


class RngStream:
    """Deterministic uniform stream (PCG64) with a draw-position counter."""

    __slots__ = ("seed", "position", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.position = 0
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniforms(self, k: int) -> np.ndarray:
        self.position += k
        return self._gen.random(k)


@dataclass
class ParticleSystem:
    """N particle locations plus the step counter and the owning stream."""

    states: np.ndarray
    step: int
    stream: RngStream
    d: int

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.int64)
        if states.ndim != 1 or states.size == 0:
            raise InvalidModel("particle system needs at least one particle")
        if states.min() < 0 or states.max() >= self.d:
            raise InvalidModel("particle state out of range")
        states.flags.writeable = False
        self.states = states

    @classmethod
    def _checked(
        cls, states: np.ndarray, step: int, stream: RngStream, d: int
    ) -> "ParticleSystem":
        """Wrap the states of a successor generation without checking them
        again: ``_categorical`` draws int64 states in [0, d-1] by
        construction."""
        out = object.__new__(cls)
        states.flags.writeable = False
        out.states, out.step, out.stream, out.d = states, step, stream, d
        return out

    @property
    def N(self) -> int:
        return self.states.size


@dataclass(frozen=True)
class RunRecord:
    """One particle run: its seed and replicate index, the log
    normalizing-constant estimate, and that estimate normalized by the exact
    value when one was given."""

    seed: int
    replicate_id: int
    log_gamma_N: float
    log_gamma_bar: Optional[float]

    @property
    def gamma_bar(self) -> Optional[float]:
        if self.log_gamma_bar is None:
            return None
        return math.exp(self.log_gamma_bar)


def init_particles(model: FKModel, N: int, seed: int) -> ParticleSystem:
    """Draw N independent particles from the initial law."""
    if N < 1:
        raise ValueError(f"particle count must be >= 1, got {N}")
    stream = RngStream(seed)
    states = _categorical(np.cumsum(model.eta0.weights), stream.uniforms(N))
    return ParticleSystem(states, 0, stream, model.d)


def step(system: ParticleSystem, model: FKModel, choice: KernelChoice) -> ParticleSystem:
    """Advance the whole generation one step.

    All N particles move simultaneously given the previous generation: the
    empirical measure is frozen while the rows are built, then every
    particle draws once from its own row.
    """
    if system.d != model.d:
        raise DimensionMismatch("system and model dimensions differ")
    states = system.states
    counts = np.bincount(states, minlength=system.d)
    cumulative = model.step(system.step).sampling_table(choice, counts)
    rows = None if choice is KernelChoice.MULTINOMIAL else states
    drawn = _categorical(cumulative, system.stream.uniforms(states.size), rows)
    return ParticleSystem._checked(drawn, system.step + 1, system.stream, system.d)


def run(
    model: FKModel,
    N: int,
    n: int,
    choice: KernelChoice,
    seed: int,
    oracle_log_gamma: Optional[float] = None,
    replicate_id: int = -1,
) -> RunRecord:
    """Run n steps and accumulate the log normalizing-constant estimate.

    The estimate is the sum of log empirical potential means, accumulated in
    the log domain so long horizons neither overflow nor underflow.  When
    the exact ``oracle_log_gamma`` is supplied, the normalized log estimate
    is recorded as well.
    """
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    system = init_particles(model, N, seed)
    log_gamma = 0.0
    for p in range(n):
        # The sum and divide that np.mean does, without its wrapper.
        mean_p = float(model.step(p).G.values[system.states].sum() / N)
        if mean_p <= 0.0:
            raise InvalidModel(
                f"empirical potential mean vanished at step {p}; "
                "the model violates the positive-potential requirement"
            )
        log_gamma += math.log(mean_p)
        system = step(system, model, choice)
    log_gamma_bar = None if oracle_log_gamma is None else log_gamma - oracle_log_gamma
    return RunRecord(seed, replicate_id, log_gamma, log_gamma_bar)


def local_error_field(
    before: ParticleSystem,
    after: ParticleSystem,
    model: FKModel,
    f: ArrayLike,
) -> float:
    """Scaled one-step sampling error sqrt(N) (eta_n^N(f) - Phi_n(eta_{n-1}^N)(f)).

    The one-step target is evaluated exactly on the empirical measure of
    ``before``; its value does not depend on the kernel choice, only the
    fluctuations around it do.
    """
    if after.step != before.step + 1 or after.N != before.N or after.d != before.d:
        raise InvalidModel("systems are not a one-step predecessor/successor pair")
    values = as_values(f)
    if values.size != before.d:
        raise DimensionMismatch("function and system dimensions differ")
    fkstep = model.step(before.step)
    mu_w = np.bincount(before.states, minlength=before.d) / before.N
    target = float(_phi_raw(mu_w, fkstep.G.values, fkstep.M.rows) @ values)
    observed = float(np.mean(values[after.states]))
    return math.sqrt(before.N) * (observed - target)


def global_error_field(system: ParticleSystem, exact_eta: ProbMeasure, f: ArrayLike) -> float:
    """Scaled global error sqrt(N) (eta_n^N(f) - eta_n(f)) against the oracle flow."""
    values = as_values(f)
    if values.size != system.d or exact_eta.d != system.d:
        raise DimensionMismatch("function, measure and system dimensions differ")
    observed = float(np.mean(values[system.states]))
    return math.sqrt(system.N) * (observed - exact_eta.mean(values))
