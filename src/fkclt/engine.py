"""Mean-field particle simulation of finite-state models.

Each particle moves independently, conditionally on the previous
generation, by a draw from its own kernel row evaluated at the current
empirical measure.  Categorical draws go through
``core._categorical_thresholds``, the one sampler, with one uniform per
draw, on tables that ``core._thresholds`` builds.  A run returns only what
its callers read (``RunRecord``): the seed, the replicate index, and the
log normalizing-constant estimate, raw and normalized by the exact value.

Validated at the public edges, raw inside: ``ParticleSystem(...)`` checks
the states, ``run`` and ``step`` reject a kernel choice that is neither
``KernelChoice`` member, and ``step`` checks that system and model share
``d``.  The systems ``init_particles`` and ``step`` build are not checked
again, since the draw gives int64 states in [0, d-1].

The kernel rows depend on the particles only through the state counts m,
since the empirical measure is m/N.  A system carries its counts as tail
counts (``ParticleSystem.tails``): ``init_particles`` and every successor
take them from their own draw, since the comparison the draw makes also
counts the draws above each threshold, and the public constructor counts
its states once.  So no step recounts the particles.  ``step`` asks its
``FKStep`` for the generation's comparison thresholds by (transport?, tail
counts) (``FKStep.sampling_table``), which builds them from
``core._kernel_rows_raw``, the one row builder that the exact layer uses
too, and keeps them, up to ``core.SAMPLING_TABLES_MAX`` per step, in the
layout the draw compares against.  That memo is the only per-step cache; a
kept table equals a rebuilt one bit for bit.  ``run``'s potential mean is
still summed over the particle array, in particle order.

``run`` calls ``step`` once per generation and each step asks its stream
for N uniforms, so the fixed cost of those calls is paid n times per
replicate; ``RngStream`` serves them from a bounded read-ahead block, whose
first block ``run`` sizes to the N(n+1) uniforms the replicate uses, and
``ParticleSystem`` has slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from .core import (
    ArrayLike,
    DimensionMismatch,
    FKModel,
    InvalidModel,
    KernelChoice,
    ProbMeasure,
    _categorical_thresholds,
    _counts,
    _generator,
    _indices,
    _phi_raw,
    _thresholds,
    _transport,
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


# Most doubles a stream draws ahead of its requests: 2**13 doubles is 64 KB.
READ_AHEAD = 1 << 13

_NO_BLOCK = np.empty(0)
_NO_BLOCK.setflags(write=False)


class RngStream:
    """Deterministic uniform stream (PCG64) with a draw-position counter.

    ``uniforms(k)`` serves the next k uniforms of the stream from a
    read-ahead block drawn straight from the generator, so many small
    requests pay one generator call.  The first block holds
    ``min(first_block, READ_AHEAD)`` doubles, every later one
    ``READ_AHEAD``: a caller that knows how many uniforms it will ask for
    passes that count, so a stream that serves at most ``READ_AHEAD`` of
    them draws exactly what it serves (``run`` passes N(n+1)).  PCG64's
    ``random(k)`` is prefix-consistent, so the served values are those one
    ``random(position)`` call would give, whatever the request and block
    sizes.  A request that runs past the block takes what is left of it,
    then fresh draws: one new block, or the rest of the request when that
    is at least a block, which is not kept.  Served arrays are read-only
    views; ``position`` counts the uniforms served, not those drawn
    ahead."""

    __slots__ = ("seed", "position", "_gen", "_block", "_next", "_ahead")

    def __init__(self, seed: int, first_block: int = READ_AHEAD):
        self.seed = int(seed) & _MASK64
        self.position = 0
        self._gen = _generator(self.seed)
        self._block = _NO_BLOCK
        self._next = 0
        self._ahead = min(first_block, READ_AHEAD)

    def uniforms(self, k: int) -> np.ndarray:
        self.position += k
        start, stop = self._next, self._next + k
        block = self._block
        if stop > block.size:
            left = block[start:]
            ahead, self._ahead = self._ahead, READ_AHEAD
            fresh = self._gen.random(max(k, ahead) - left.size)
            block = np.concatenate((left, fresh)) if left.size else fresh
            block.setflags(write=False)
            if k >= ahead:
                self._block, self._next = _NO_BLOCK, 0
                return block
            self._block, start, stop = block, 0, k
        self._next = stop
        return block[start:stop]


@dataclass(slots=True)
class ParticleSystem:
    """N particle locations plus the step counter and the owning stream.

    ``tails`` carries the state counts as tail counts: ``tails[x]`` is the
    number of particles in state x or above, a tuple of d Python ints with
    ``tails[0] == N``.  The constructor counts the states once; the
    systems of ``init_particles`` and ``step`` get them from their own
    draw."""

    states: np.ndarray
    step: int
    stream: RngStream
    d: int
    tails: tuple = field(init=False)

    def __post_init__(self) -> None:
        states = _indices(self.states, "particle state", self.d)
        states.setflags(write=False)
        self.states = states
        counts = np.bincount(states, minlength=self.d).tolist()
        self.tails = tuple(accumulate(reversed(counts)))[::-1]

    @property
    def N(self) -> int:
        return self.states.size

    @property
    def counts(self) -> np.ndarray:
        """The number of particles in each state, (d,) int64."""
        return _counts(self.tails)


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


def init_particles(
    model: FKModel, N: int, seed: int, steps: Optional[int] = None
) -> ParticleSystem:
    """Draw N independent particles from the initial law.

    ``steps``, when given, is the number of steps the system will take: its
    stream then draws the N(steps+1) uniforms of the whole run in its first
    block, up to ``READ_AHEAD``.  The tail counts come from the draw itself,
    as a successor's do."""
    if N < 1:
        raise ValueError(f"particle count must be >= 1, got {N}")
    stream = RngStream(seed, READ_AHEAD if steps is None else N * (steps + 1))
    thresholds = _thresholds(model.eta0.weights[None])
    states, tails = _categorical_thresholds(thresholds, stream.uniforms(N))
    states.setflags(write=False)
    system = object.__new__(ParticleSystem)
    system.states, system.tails, system.step, system.stream, system.d = (
        states, tails, 0, stream, model.d
    )
    return system


def step(system: ParticleSystem, model: FKModel, choice: KernelChoice) -> ParticleSystem:
    """Advance the whole generation one step.

    All N particles move simultaneously given the previous generation: the
    empirical measure is frozen while the rows are built, then every
    particle draws once from its own row.  A ``choice`` that is neither
    kernel is a ``ValueError``.
    """
    if system.d != model.d:
        raise DimensionMismatch("system and model dimensions differ")
    states = system.states
    if choice is KernelChoice.MULTINOMIAL:
        rows = None
    elif choice is KernelChoice.TRANSPORT:
        rows = states
    else:
        _transport(choice)  # neither kernel: raises
    thresholds = model.step(system.step).sampling_table(rows is not None, system.tails)
    drawn, tails = _categorical_thresholds(thresholds, system.stream.uniforms(states.size), rows)
    # The successor is built here, unchecked: the draw gives int64 states in
    # [0, d-1] by construction and counts them from the same comparison.
    drawn.setflags(write=False)
    out = object.__new__(ParticleSystem)
    out.states, out.tails, out.step, out.stream, out.d = (
        drawn, tails, system.step + 1, system.stream, system.d
    )
    return out


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
    _transport(choice)
    system = init_particles(model, N, seed, n)
    log_gamma = 0.0
    for p in range(n):
        # The sum and divide that np.mean does, without its wrapper; the
        # divide by N in Python floats gives the same bits.
        mean_p = float(np.add.reduce(model.step(p).G.values[system.states])) / N
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
    mu_w = before.counts / before.N
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
