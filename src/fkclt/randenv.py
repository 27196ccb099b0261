"""Stationary-ergodic random environments.

The abstract environment is instantiated as a finite irreducible Markov
chain with an explicit stationary law.  A realized environment path selects
one (kernel, potential) pair per time index; backward limits along the path
are truncated at an explicit depth, justified by the exponential forgetting
of the measure flow.

Every backward limit is an ordered product of the nonnegative matrices
``Q_q = diag(G_q) M_{q+1}`` read off the path: with depth ``D``,
``eta_inf(p)`` is proportional to ``1^T Q_{p-D} ... Q_{p-1}`` and ``h(p)`` to
``Q_p ... Q_{p+D-2} G_{p+D-1}``.  The products are reduced pairwise by the
oracle's product routine.

Raw arrays inside, validated objects at the public edges: the chain is
checked once, when built, and stacks its potentials, its kernels and the
(env_size, env_size, d, d) table of factors diag(G_s) M_t, so the factors
along any number of windows are one gather.  ``c_of_y`` reads those stacks
and hands plain arrays to ``core._cov_raw``, building no measure or
function object per position.  It keeps the path-window check and rejects
a non-finite contribution.

``c_of_y`` reads ahead.  A position the path keeps no value for starts a
block of b later positions, reduced by ``_contributions`` in one batched
pass: one factor gather over the block's path window, one product call
over its b+D windows of D-1 factors (the tail behind ``h`` at ``p`` is the
shared product of both backward limits at ``p+D``, so each is reduced
once; a block shorter than D reduces its 2b windows), one covariance
call.  Every window takes the arithmetic of a batch of one, so a
position's value has the bits of a read on its own.  The path keeps that
one block (chain, kernel, depth, first position, values), and a read
inside it is an index.  A block holds at most ``BLOCK_FACTOR_ENTRIES``
(2^16) float64 entries at once, factors, products and covariance arrays
together (232 positions at depth 40 and d = 2), but at least one
position.  It ends at the last position the path covers.  Under the
transport kernel it also ends before a position whose step potential
exceeds 1, which raises alone.  The block is not pickled.  ``sigma2_env``
still calls ``c_of_y`` once per position, because the benchmark pins the
call count (``randenv.c_of_y_calls`` = horizon) until that pin is restated
as a work invariant.

A model from ``env_model`` is an ``FKModel``, so it keeps the longest exact
flow ``oracle`` computes on it, as every model does: never pickled, and
read by prefix with the bits of a fresh flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    FKError,
    FKModel,
    FKStep,
    FunctionVector,
    InvalidModel,
    KernelChoice,
    Potential,
    ProbMeasure,
    StochasticKernel,
    _chain_path,
    _cov_raw,
    _frozen,
)
from .oracle import _limit_function, _ordered_products

BATCH_COUNT = 32  # batch-means default for correlated time averages
BLOCK_FACTOR_ENTRIES = 2**16  # float64 entries one c_of_y read-ahead block may hold at once


class WindowTooShort(FKError):
    """The environment path window does not cover a requested index."""


def stationary_distribution(P: StochasticKernel) -> ProbMeasure:
    """Stationary law of an irreducible kernel, via the linear system."""
    d = P.d
    A = np.vstack([P.rows.T - np.eye(d), np.ones((1, d))])
    b = np.zeros(d + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return ProbMeasure(pi)


@dataclass(frozen=True)
class EnvironmentChain:
    """Finite environment driving per-step (kernel, potential) pairs.

    Built once, the chain keeps its potentials (env_size, d), its kernels
    (env_size, d, d) and the factor table (env_size, env_size, d, d) of
    diag(G_s) M_t, all read-only; ``factors`` gathers from the table."""

    transition: StochasticKernel
    stationary: ProbMeasure
    family: tuple  # one (StochasticKernel, Potential) pair per environment state

    def __post_init__(self) -> None:
        family = tuple(self.family)
        if len(family) != self.transition.d or self.stationary.d != self.transition.d:
            raise InvalidModel("family, transition and stationary law sizes differ")
        dims = set()
        for entry in family:
            M, G = entry
            if not isinstance(M, StochasticKernel) or not isinstance(G, Potential):
                raise InvalidModel("family entries must be (kernel, potential) pairs")
            if M.d != G.d:
                raise InvalidModel("family kernel and potential dimensions differ")
            dims.add(M.d)
        if len(dims) != 1:
            raise InvalidModel("family entries live on different state spaces")
        drift = np.abs(self.stationary.weights @ self.transition.rows - self.stationary.weights)
        if drift.max() > 1e-10:
            raise InvalidModel(
                f"stationary law is not invariant for the transition (drift {float(drift.max())!r})"
            )
        object.__setattr__(self, "family", family)
        # The family stacked once, indexed by environment state: potentials
        # (env_size, d), kernels (env_size, d, d), and the factor table
        # (env_size, env_size, d, d) whose entry [s, t] is diag(G_s) M_t.
        G = _frozen([G.values for _, G in family])
        M = _frozen([M.rows for M, _ in family])
        object.__setattr__(self, "_G", G)
        object.__setattr__(self, "_M", M)
        object.__setattr__(self, "_Q", _frozen(G[:, None, :, None] * M[None]))

    @property
    def env_size(self) -> int:
        return self.transition.d

    @property
    def state_dim(self) -> int:
        return self.family[0][0].d

    def kernel(self, s: int) -> StochasticKernel:
        return self.family[s][0]

    def potential(self, s: int) -> Potential:
        return self.family[s][1]

    def factors(self, states: np.ndarray) -> np.ndarray:
        """The matrices ``diag(G_q) M_{q+1}`` along consecutive path states on
        the last axis: potential of each state but the last, kernel of each
        but the first.  States (..., k) give a (..., k - 1, d, d) array read
        from the factor table in one gather."""
        return self._Q[states[..., :-1], states[..., 1:]]


@dataclass(frozen=True)
class EnvPath:
    """Realized environment states over a finite index window.

    A path also keeps the last block of variance contributions ``c_of_y``
    reduced on it; the block is not pickled."""

    states: np.ndarray
    lo: int  # absolute index of states[0]

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.int64)
        if states.ndim != 1 or states.size == 0:
            raise InvalidModel("environment path must be 1-d and non-empty")
        states.flags.writeable = False
        object.__setattr__(self, "states", states)
        # (chain, choice, depth, first position, contributions) or None
        object.__setattr__(self, "_block", None)

    def __reduce__(self):
        return EnvPath, (self.states, self.lo)

    @property
    def hi(self) -> int:
        return self.lo + self.states.size - 1

    def state(self, index: int) -> int:
        if not self.lo <= index <= self.hi:
            raise WindowTooShort(
                f"index {index} outside the path window [{self.lo}, {self.hi}]"
            )
        return int(self.states[index - self.lo])

    def window(self, first: int, last: int) -> np.ndarray:
        """States at the indices ``first..last``, both included."""
        if first < self.lo or last > self.hi:
            raise WindowTooShort(
                f"indices [{first}, {last}] outside the path window [{self.lo}, {self.hi}]"
            )
        return self.states[first - self.lo : last - self.lo + 1]

    def shift(self, k: int) -> "EnvPath":
        """Reindex so that position p on the shifted path is position p+k here."""
        return EnvPath(self.states, self.lo - k)


def sample_env_path(chain: EnvironmentChain, past: int, horizon: int, seed: int) -> EnvPath:
    """Sample a path over [-past, horizon]: stationary start, then forward moves."""
    if past < 0 or horizon < 0:
        raise ValueError("past and horizon must be >= 0")
    gen = np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    states = _chain_path(
        np.cumsum(chain.stationary.weights),
        np.cumsum(chain.transition.rows, axis=1),
        gen.random(past + horizon + 1),
    )
    return EnvPath(states, -past)


@dataclass(frozen=True)
class EnvironmentSchedule:
    """Model schedule read off an environment path: step p reweights by the
    potential of the state at p and mutates by the kernel of the state at p+1.

    Every (state, next state) pair's ``FKStep`` is built once, here, so a
    step is a path-window check and a table read, and the particle runs on
    one schedule share each pair's sampling-table memo."""

    chain: EnvironmentChain
    path: EnvPath

    def __post_init__(self) -> None:
        chain = self.chain
        states = range(chain.env_size)
        table = tuple(
            tuple(FKStep(chain.potential(s), chain.kernel(t)) for t in states) for s in states
        )
        object.__setattr__(self, "_steps", table)

    @property
    def d(self) -> int:
        return self.chain.state_dim

    def step(self, p: int) -> FKStep:
        return self._steps[self.path.state(p)][self.path.state(p + 1)]


def env_model(
    chain: EnvironmentChain, path: EnvPath, eta0: Optional[ProbMeasure] = None
) -> FKModel:
    if eta0 is None:
        eta0 = ProbMeasure.uniform(chain.state_dim)
    return FKModel(eta0, EnvironmentSchedule(chain, path))


def _flow(product: np.ndarray) -> np.ndarray:
    """The uniform law carried through a product of factors and normalized:
    ``1^T product``, scaled to sum one; leading axes are a batch."""
    w = product.sum(axis=-2)
    return w / w.sum(axis=-1, keepdims=True)


def eta_inf_env(chain: EnvironmentChain, y: EnvPath, position: int, depth: int) -> ProbMeasure:
    """Backward-limit measure at ``position``, truncated ``depth`` steps back.

    The flow started from the uniform law at ``position - depth`` and driven
    by the path, in product form: proportional to
    ``1^T Q_{position-depth} ... Q_{position-1}``.  By exponential forgetting
    the starting law only moves the result by O(exp(-lambda depth)).
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    factors = chain.factors(y.window(position - depth, position))
    (product,) = _ordered_products(factors[None])
    return ProbMeasure(_flow(product))


def h_env(chain: EnvironmentChain, y: EnvPath, position: int, depth: int) -> FunctionVector:
    """Limiting normalized-semigroup function at ``position``, truncated at
    ``depth``: ``Q_position ... Q_{position+depth-2} G_{position+depth-1}``
    scaled to mean one under the backward-limit measure at ``position``.

    This is the exponential of the log series whose term ``q`` compares the
    potential means of the flows started at each point mass and at the
    backward-limit measure, both driven by the path from ``position``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    base = eta_inf_env(chain, y, position, depth)
    states = y.window(position, position + depth - 1)
    (product,) = _ordered_products(chain.factors(states)[None])
    return FunctionVector(_limit_function(product, chain._G[states[-1]], base.weights))


def _contributions(
    chain: EnvironmentChain,
    choice: KernelChoice,
    y: EnvPath,
    first: int,
    last: int,
    depth: int,
) -> np.ndarray:
    """Variance contributions at the positions ``first..last``, as (b,).

    Position ``p`` reads the states ``[p-1-D, p+D-1]``: the shared product
    ``Q_{p-D} ... Q_{p-2}`` of both backward limits, and the tail
    ``Q_p ... Q_{p+D-2}`` behind ``h``.  The tail of ``p`` is the shared
    product of ``p+D``, so the block gathers its factors once, over the path
    states ``[first-1-D, last+D-1]``, takes the (D-1)-factor windows as
    views, and reduces each window it needs once, in one call of the product
    routine: the b+D windows from ``first`` on, or, for a block shorter than
    D, the 2b that serve a position.  Every window takes the arithmetic of a
    batch of one, so a position's value does not depend on the block around
    it.  No value is checked here."""
    b = last - first + 1
    states = y.window(first - 1 - depth, last + depth - 1)
    factors = chain.factors(states)  # factor j is Q_{first-1-D+j}
    # Window w holds factors w+1 .. w+D-1: position first+o reads window o
    # as its shared product and window o+D as its tail.
    windows = np.moveaxis(sliding_window_view(factors[1:], depth - 1, axis=0), -1, 1)
    if b < depth:  # windows b .. D-1 serve no position
        windows = np.concatenate([windows[:b], windows[depth:]])
    products = _ordered_products(windows)
    shared, tail = products[:b], products[-b:]
    mu = _flow(factors[:b] @ shared)  # eta_inf(p - 1)
    eta = _flow(shared @ factors[depth : depth + b])  # eta_inf(p)
    h = _limit_function(tail, chain._G[states[2 * depth :]], eta)
    G = chain._G[states[depth : depth + b]]
    M = chain._M[states[depth + 1 : depth + 1 + b]]
    return _cov_raw(choice, mu, G, M, h, h)


def _block_last(
    chain: EnvironmentChain, choice: KernelChoice, y: EnvPath, position: int, depth: int
) -> int:
    """Last position of the read-ahead block that starts at ``position``.

    The block stops at the last position the path window covers, holds at
    most ``BLOCK_FACTOR_ENTRIES`` float64 entries at once (but at least one
    position) and, under the transport kernel, ends before the first later
    position whose step potential has a value above 1, so that position
    raises alone.

    A block of b positions holds its b + 2D - 1 factors and, per position,
    about 8d(d + 1) entries of covariance arrays.  At each product level a
    window it reduces holds about (D - 1)(d^2 + 1) entries: the products,
    their copy for the max, and the max.  A block of at least D positions
    reduces b + D windows; a shorter one reduces 2b, copied together first,
    which doubles their cost.  So a block of D - 1 positions costs more than
    one of D, and the largest block within the budget is found on each side.
    """
    d2 = chain.state_dim**2
    window = (depth - 1) * (d2 + 1)
    room = BLOCK_FACTOR_ENTRIES - 2 * depth * d2
    per_position = d2 + 8 * (d2 + chain.state_dim)
    size = (room - depth * window) // (per_position + window)
    if size < depth:
        size = min(depth - 1, room // (per_position + 4 * window))
    last = min(y.hi - depth + 1, position + max(1, size) - 1)
    if choice is KernelChoice.TRANSPORT and last > position:
        # The step potential of position q is that of the state at q - 1.
        over = chain._G.max(axis=1)[y.window(position, last - 1)] > 1.0
        if over.any():
            last = position + int(over.argmax())
    return last


def c_of_y(
    chain: EnvironmentChain,
    choice: KernelChoice,
    y: EnvPath,
    position: int,
    depth: int,
) -> float:
    """Per-step variance contribution of the environment at ``position``:
    the conditional covariance of the limiting function ``h_env(position)``
    against itself, under the backward-limit measure one step earlier.

    With ``p = position`` and ``D = depth``, both backward limits share the
    product ``Q_{p-D} ... Q_{p-2}``; it and the product behind ``h`` are
    reduced from the window of states ``[p-1-D, p+D-1]`` and finished by
    the same formulas as ``eta_inf_env`` and ``h_env``.

    Reads ahead: a position the path keeps no value for starts a block of
    later positions (see ``_block_last``), reduced in one batched pass with
    the bits of one-position reads.  The path keeps that one block, so
    reading positions in ascending order reduces each once; a read before
    the kept block reduces a new one.  ``sigma2_env`` still calls this once
    per position, because the benchmark pins that call count.

    Errors stay per position.  ``WindowTooShort`` is checked on the caller's
    own window first.  A block of more than one position is reduced with
    floating-point warnings off; a position whose value there is not finite
    is reduced again alone, so it warns as it would alone, and then raises
    ``InvalidModel``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    y.window(position - 1 - depth, position + depth - 1)
    block = y._block
    if not (
        block is not None
        and block[0] is chain
        and block[1] is choice
        and block[2] == depth
        and 0 <= position - block[3] < block[4].size
    ):
        last = _block_last(chain, choice, y, position, depth)
        if last == position:
            values = _contributions(chain, choice, y, position, position, depth)
        else:
            with np.errstate(all="ignore"):
                values = _contributions(chain, choice, y, position, last, depth)
        block = (chain, choice, depth, position, values)
        object.__setattr__(y, "_block", block)
    values = block[4]
    value = float(values[position - block[3]])
    if not math.isfinite(value):
        if values.size > 1:
            _contributions(chain, choice, y, position, position, depth)
        raise InvalidModel(f"variance contribution at position {position} is {value!r}")
    return value


def sigma2_env(
    chain: EnvironmentChain,
    choice: KernelChoice,
    horizon: int,
    depth: int,
    seed: int,
) -> tuple:
    """Ergodic time average of the per-step variance contributions.

    Returns ``(estimate, std_error)`` where the standard error comes from
    batch means over 32 consecutive batches.  Deterministic given the seed.
    """
    if horizon < 100:
        raise ValueError(f"horizon must be >= 100, got {horizon}")
    path = sample_env_path(chain, past=depth, horizon=horizon + depth, seed=seed)
    values = np.array(
        [c_of_y(chain, choice, path, p, depth) for p in range(1, horizon + 1)]
    )
    estimate = float(values.mean())
    bounds = [round(b * horizon / BATCH_COUNT) for b in range(BATCH_COUNT + 1)]
    batch_means = np.array(
        [values[bounds[b] : bounds[b + 1]].mean() for b in range(BATCH_COUNT)]
    )
    std_error = float(batch_means.std(ddof=1) / math.sqrt(BATCH_COUNT))
    return estimate, std_error
