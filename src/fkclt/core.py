"""Finite-state Feynman-Kac primitives.

The state space is ``{0, ..., d-1}``.  Probability measures, potentials and
test functions are dense vectors; Markov kernels are row-stochastic matrices.
A model is an initial law together with a schedule of selection/mutation
steps: step ``p`` reweights the current measure by the potential ``G_p`` and
then moves it through the Markov kernel ``M_{p+1}``.

Everything in this module is pure.  Arrays are copied at construction time
and marked read-only, so values are safe to share across threads.

Raw arrays inside, validated objects at the public edges: the value types
check their inputs once, when built, and the public operations check
dimensions before handing plain arrays to the private ``_*_raw`` routines.
Those routines (reweighting, the mean-field kernel rows, the conditional
covariance) validate nothing and take leading batch axes, so the exact
solvers and the particle engine call them inside their loops at array cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

# Probability vectors and kernel rows are renormalized at construction and
# then obey the 1e-12 tolerance; inputs further off than 1e-9 are rejected.
PROB_ATOL = 1e-12
INPUT_ATOL = 1e-9


class FKError(Exception):
    """Base class for all model errors raised by this package."""


class DimensionMismatch(FKError):
    pass


class InvalidModel(FKError):
    pass


class ScheduleExhausted(FKError):
    pass


class ConvergenceError(FKError):
    pass


class ConsistencyError(FKError):
    """Two supposedly equivalent computation routes disagreed."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


ArrayLike = Union[np.ndarray, Sequence[float], "FunctionVector"]


def as_values(f: ArrayLike) -> np.ndarray:
    """Coerce a function on the state space to a 1-d float array."""
    if isinstance(f, FunctionVector):
        return f.values
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d function vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidModel("function vector has non-finite entries")
    return arr


@dataclass(frozen=True)
class ProbMeasure:
    """Probability vector over the state space."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DimensionMismatch("probability vector must be 1-d and non-empty")
        if not np.all(np.isfinite(w)):
            raise InvalidModel("probability vector has non-finite entries")
        if np.any(w < -INPUT_ATOL):
            raise InvalidModel(f"negative probability entry {float(w.min())!r}")
        total = float(w.sum())
        if abs(total - 1.0) > INPUT_ATOL:
            raise InvalidModel(f"probability vector sums to {total!r}, not 1")
        w = np.clip(w, 0.0, None)
        object.__setattr__(self, "weights", _frozen(w / w.sum()))

    @property
    def d(self) -> int:
        return self.weights.size

    @classmethod
    def _checked(cls, weights: np.ndarray) -> "ProbMeasure":
        """Wrap weights that a raw routine has already checked and
        normalized; normalizing them a second time would move their bits."""
        out = object.__new__(cls)
        object.__setattr__(out, "weights", _frozen(weights))
        return out

    @classmethod
    def uniform(cls, d: int) -> "ProbMeasure":
        return cls(np.full(d, 1.0 / d))

    @classmethod
    def point(cls, d: int, x: int) -> "ProbMeasure":
        w = np.zeros(d)
        w[x] = 1.0
        return cls(w)

    def mean(self, f: ArrayLike) -> float:
        """Integral of ``f`` against this measure."""
        values = as_values(f)
        if values.size != self.d:
            raise DimensionMismatch("function and measure dimensions differ")
        return float(self.weights @ values)


@dataclass(frozen=True)
class FunctionVector:
    """Bounded function on the state space, stored as its value vector."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DimensionMismatch("function vector must be 1-d and non-empty")
        if not np.all(np.isfinite(v)):
            raise InvalidModel("function vector has non-finite entries")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def d(self) -> int:
        return self.values.size

    @property
    def oscillation(self) -> float:
        return float(self.values.max() - self.values.min())

    @classmethod
    def indicator(cls, d: int, x: int) -> "FunctionVector":
        v = np.zeros(d)
        v[x] = 1.0
        return cls(v)


@dataclass(frozen=True)
class StochasticKernel:
    """Row-stochastic d x d transition matrix."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] == 0:
            raise DimensionMismatch(f"kernel must be a square matrix, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise InvalidModel("kernel has non-finite entries")
        if np.any(r < -INPUT_ATOL):
            raise InvalidModel(f"negative kernel entry {float(r.min())!r}")
        sums = r.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > INPUT_ATOL):
            deviation = float(np.abs(sums - 1.0).max())
            raise InvalidModel(f"kernel row sums deviate from 1 by up to {deviation!r}")
        r = np.clip(r, 0.0, None)
        object.__setattr__(self, "rows", _frozen(r / r.sum(axis=1, keepdims=True)))

    @property
    def d(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def identity(cls, d: int) -> "StochasticKernel":
        return cls(np.eye(d))


@dataclass(frozen=True)
class Potential:
    """Strictly positive weight function on the state space."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DimensionMismatch("potential must be 1-d and non-empty")
        if not np.all(np.isfinite(v)):
            raise InvalidModel("potential has non-finite entries")
        if v.min() <= 0.0:
            raise InvalidModel(
                f"potential must be strictly positive, min entry is {float(v.min())!r}"
            )
        object.__setattr__(self, "values", _frozen(v))

    @property
    def d(self) -> int:
        return self.values.size

    @property
    def ratio(self) -> float:
        """sup/inf ratio of the potential; must stay bounded across steps."""
        return float(self.values.max() / self.values.min())


class KernelChoice(enum.Enum):
    """Mean-field transition used by the particle system.

    MULTINOMIAL draws every particle from the reweighted, mutated empirical
    measure.  TRANSPORT keeps a particle with probability equal to its
    potential value (which therefore must be <= 1) and resamples it
    otherwise, then mutates.
    """

    MULTINOMIAL = "multinomial"
    TRANSPORT = "transport"

    @classmethod
    def parse(cls, name: str) -> "KernelChoice":
        try:
            return cls(name.lower())
        except ValueError:
            raise InvalidModel(f"unknown kernel choice {name!r}") from None


# Most sampling tables one ``FKStep`` keeps.  There are C(N+d-1, d-1) count
# vectors per kernel, so at large N or d a count vector seldom comes back and
# a kept table is seldom read again.  Past the cap, tables are built and not
# kept, which bounds a step's memory (about 2 MB at d = 5).
SAMPLING_TABLES_MAX = 4096


@dataclass(frozen=True)
class FKStep:
    """One schedule entry: reweight by ``G``, then move through ``M``.

    The sampling tables of ``sampling_table`` are the only work a step keeps;
    it builds them from ``_kernel_rows_raw``, the one mean-field row builder.
    They are not pickled, so a step pickles to the same bytes before and
    after use and rebuilds what it needs.  Threads that share a step may
    build one table twice; the two builds are equal."""

    G: Potential
    M: StochasticKernel

    def __post_init__(self) -> None:
        if self.G.d != self.M.d:
            raise DimensionMismatch("potential and kernel dimensions differ")
        object.__setattr__(self, "_tables", {})

    def __reduce__(self):
        return FKStep, (self.G, self.M)

    def sampling_table(self, choice: KernelChoice, counts: np.ndarray) -> np.ndarray:
        """The CDF table ``_categorical`` draws a generation from, given the
        generation's state counts (d,) int64: the CDF of ``phi`` (d,) for the
        multinomial kernel, the CDFs of the d transport rows (d, d) for the
        transport kernel.  The empirical measure is ``counts / N`` with
        ``N = counts.sum()``, so the table is a function of ``(choice,
        counts)`` and is kept under that key, up to ``SAMPLING_TABLES_MAX``
        tables; a kept table is the array a rebuild would give, bit for bit.
        Both kernels' tables come from the rows of ``_kernel_rows_raw``: the
        multinomial rows all equal ``phi``, so its table is row 0's CDF.  A
        build that raises (a transport potential above 1, or a table that is
        not finite, as when every reweighted count underflows to 0) keeps
        nothing, so it raises again on every use."""
        key = (choice, counts.tobytes())
        table = self._tables.get(key)
        if table is None:
            rows = _kernel_rows_raw(choice, counts / counts.sum(), self.G.values, self.M.rows)
            table = rows[0].cumsum() if choice is KernelChoice.MULTINOMIAL else rows.cumsum(axis=1)
            if not np.isfinite(table).all():
                raise InvalidModel(
                    f"sampling table for state counts {counts.tolist()} is not finite"
                )
            table.flags.writeable = False
            if len(self._tables) < SAMPLING_TABLES_MAX:
                self._tables[key] = table
        return table


@dataclass(frozen=True)
class HomogeneousSchedule:
    """Same (G, M) pair at every step, stored once as one ``FKStep``."""

    M: StochasticKernel
    G: Potential

    def __post_init__(self) -> None:
        object.__setattr__(self, "_step", FKStep(self.G, self.M))

    @property
    def d(self) -> int:
        return self.M.d

    def step(self, p: int) -> FKStep:
        if p < 0:
            raise ScheduleExhausted(f"step index {p} is negative")
        return self._step


@dataclass(frozen=True)
class ExplicitSchedule:
    """Finite, non-empty list of (G, M) steps on one state space."""

    steps: tuple

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        if not steps:
            raise InvalidModel("explicit schedule needs at least one step")
        if not all(isinstance(s, FKStep) for s in steps):
            raise InvalidModel("explicit schedule entries must be FKStep values")
        for p, s in enumerate(steps):
            if s.G.d != steps[0].G.d:
                raise DimensionMismatch(
                    f"schedule step {p} has dimension {s.G.d}, step 0 has {steps[0].G.d}"
                )
        object.__setattr__(self, "steps", steps)

    @property
    def d(self) -> int:
        return self.steps[0].G.d

    def step(self, p: int) -> FKStep:
        if not 0 <= p < len(self.steps):
            raise ScheduleExhausted(f"schedule has {len(self.steps)} steps, step {p} requested")
        return self.steps[p]


@dataclass(frozen=True)
class FKModel:
    """Initial law plus a schedule of selection/mutation steps.

    The schedule states its dimension ``d`` and is checked against the
    initial law once, here, so ``step`` is a plain lookup.

    A model keeps one piece of work: ``_flow``, the longest exact measure
    flow that ``oracle`` has computed on it (flow weights, log normalizing
    constants, potential means), or None.  Step p of the flow depends only
    on the steps before it, so ``oracle`` answers a shorter request with a
    prefix of the kept arrays, bit for bit.  The flow is not pickled, so a
    model pickles to the same bytes before and after use; a flow that
    raises is not kept.  The flow is never recomputed, so ``schedule.step(p)``
    must return the same step on every call, as the shipped schedules (frozen
    dataclasses) do.  Threads that share a model may compute a flow twice or
    keep a shorter one over a longer; every read still gets the same bits."""

    eta0: ProbMeasure
    # Anything with .d and .step(p) -> FKStep of that dimension, the same
    # step on every call for a given p.
    schedule: object

    def __post_init__(self) -> None:
        if self.eta0.d != self.schedule.d:
            raise DimensionMismatch("initial law and schedule dimensions differ")
        object.__setattr__(self, "_flow", None)

    def __reduce__(self):
        return FKModel, (self.eta0, self.schedule)

    @property
    def d(self) -> int:
        return self.eta0.d

    @property
    def homogeneous(self) -> bool:
        return isinstance(self.schedule, HomogeneousSchedule)

    def step(self, p: int) -> FKStep:
        return self.schedule.step(p)


def homogeneous_model(M: StochasticKernel, G: Potential, eta0: ProbMeasure) -> FKModel:
    return FKModel(eta0, HomogeneousSchedule(M, G))


def explicit_model(steps: Sequence[FKStep], eta0: ProbMeasure) -> FKModel:
    """Model over the given steps; every step's dimension is checked here."""
    return FKModel(eta0, ExplicitSchedule(tuple(steps)))


@dataclass(frozen=True)
class ModelBounds:
    """Fitted contraction diagnostics of a model.

    ``g`` is the largest potential sup/inf ratio seen along the schedule;
    ``a_hat`` and ``lambda_hat`` come from a least-squares fit of the
    Dobrushin coefficients ``beta(P_{0,n})`` against ``n`` on a log scale;
    ``b_bound = exp(a_hat (g - 1) / (1 - exp(-lambda_hat)))`` dominates the
    normalized-semigroup ratio profile when the geometric decay holds; it is
    inf when that exceeds the float range or when lambda_hat <= 0.  ``g``
    and the ``g_profile`` ratios are inf past the float range too.
    These are diagnostics, not assumptions.
    """

    g: float
    a_hat: float
    lambda_hat: float
    b_bound: float
    beta_profile: tuple
    g_profile: tuple
    g_within_bound: bool

    def __post_init__(self) -> None:
        if self.g < 1.0:
            raise InvalidModel(f"potential ratio bound must be >= 1, got {self.g!r}")


def _check_same_d(*dims: int) -> int:
    d = dims[0]
    for other in dims[1:]:
        if other != d:
            raise DimensionMismatch(f"dimension mismatch: {dims}")
    return d


def total_variation(mu: ProbMeasure, nu: ProbMeasure) -> float:
    _check_same_d(mu.d, nu.d)
    return 0.5 * float(np.abs(mu.weights - nu.weights).sum())


def oscillation(f: ArrayLike) -> float:
    v = as_values(f)
    return float(v.max() - v.min())


# Raw-array work-horses shared by the public operations, the exact solvers
# and the particle engine.  Inputs are assumed validated by the callers.
# Leading axes are batch axes: measures and functions are (..., d) and
# kernels (..., d, d), so one call serves one step or a stack of them.  One
# step, the engine's and the flow's hot path, takes the 1-d forms, which skip
# the keepdims sum and the indexing of the batch axis.

def _bg_raw(mu_w: np.ndarray, g_v: np.ndarray) -> np.ndarray:
    w = mu_w * g_v
    return w / (w.sum() if w.ndim == 1 else w.sum(axis=-1, keepdims=True))


def _phi_raw(mu_w: np.ndarray, g_v: np.ndarray, m_r: np.ndarray) -> np.ndarray:
    w = _bg_raw(mu_w, g_v)
    if w.ndim == 1:
        return w @ m_r
    return (w[..., None, :] @ m_r)[..., 0, :]


def _categorical(
    cumulative: np.ndarray, u: np.ndarray, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse-CDF draws min{x : F(x) >= u}: each draw counts the first d-1
    cumulative values below its uniform, as one (d-1, k) comparison at cost
    O(k(d-1)).  The last cumulative is never compared, so a total that rounds
    below 1 still yields at most d-1.  ``cumulative`` is one nondecreasing
    CDF (d,) shared by all draws, or a table (m, d) whose row ``rows[i]``
    serves draw ``i``."""
    inner = cumulative[..., :-1].T
    thresholds = inner[:, None] if rows is None else inner.take(rows, axis=1)
    return (thresholds < u).sum(axis=0)


def _chain_path(cum0: np.ndarray, cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Markov chain states, one per uniform: the first drawn from the CDF
    ``cum0``, each later one from the CDF row of its predecessor.  Every
    row's draws for all the uniforms are one ``_categorical`` call, and the
    path walks those draws: draw i of the row of state s is the state that
    uniform i gives after s."""
    if u.size == 0:
        return np.empty(0, dtype=np.int64)
    moves = [_categorical(cdf, u).tolist() for cdf in cum_rows]
    state = int(_categorical(cum0, u[:1])[0])
    states = [state]
    for i in range(1, u.size):
        state = moves[state][i]
        states.append(state)
    return np.array(states, dtype=np.int64)


def _kernel_rows_raw(
    choice: KernelChoice, mu_w: np.ndarray, g_v: np.ndarray, m_r: np.ndarray
) -> np.ndarray:
    """Rows of the mean-field kernel, (..., d, d): every row is ``phi`` for
    the multinomial kernel, and row x is ``G(x) M(x, .) + (1 - G(x)) phi(.)``
    for the transport kernel, which keeps a particle with probability G(x),
    so every potential value must be <= 1.  The rows are always a
    materialized contiguous array: matrix products over a stride-0 view leave
    BLAS and sum in another order."""
    phi = _phi_raw(mu_w, g_v, m_r)
    if choice is KernelChoice.MULTINOMIAL:
        return phi[..., None, :].repeat(m_r.shape[-1], axis=-2)
    if g_v.max() > 1.0:
        raise InvalidModel(
            f"transport kernel needs potential values <= 1, max entry is {float(g_v.max())!r}"
        )
    return g_v[..., :, None] * m_r + (1.0 - g_v)[..., :, None] * phi[..., None, :]


def _cov_raw(
    choice: KernelChoice,
    mu_w: np.ndarray,
    g_v: np.ndarray,
    m_r: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
) -> np.ndarray:
    """Conditional covariances ``mu[K(v1 v2) - K(v1) K(v2)]`` of a batch of b
    rows: ``mu_w``, ``g_v``, ``v1``, ``v2`` are (b, d) and ``m_r`` is
    (b, d, d); returns (b,).  Each row takes the same matrix-vector and dot
    products as a batch of one, so a row's value does not depend on b."""
    rows = _kernel_rows_raw(choice, mu_w, g_v, m_r)
    k1 = (rows @ v1[:, :, None])[:, :, 0]
    k2 = k1 if v2 is v1 else (rows @ v2[:, :, None])[:, :, 0]
    k12 = (rows @ (v1 * v2)[:, :, None])[:, :, 0]
    return (mu_w[:, None, :] @ (k12 - k1 * k2)[:, :, None])[:, 0, 0]


def boltzmann_gibbs(mu: ProbMeasure, G: Potential) -> ProbMeasure:
    """Reweight ``mu`` by ``G`` and renormalize."""
    _check_same_d(mu.d, G.d)
    return ProbMeasure(_bg_raw(mu.weights, G.values))


def phi_step(mu: ProbMeasure, G: Potential, M: StochasticKernel) -> ProbMeasure:
    """One measure-flow step: Boltzmann-Gibbs reweighting followed by ``M``."""
    _check_same_d(mu.d, G.d, M.d)
    return ProbMeasure(_phi_raw(mu.weights, G.values, M.rows))


def kernel_row(
    choice: KernelChoice, mu: ProbMeasure, G: Potential, M: StochasticKernel, x: int
) -> ProbMeasure:
    """Transition law of one particle at site ``x`` given empirical measure ``mu``.

    For MULTINOMIAL the row does not depend on ``x``; for TRANSPORT the row is
    ``G(x) M(x, .) + (1 - G(x)) (phi_step(mu, G, M))(.)``.  Mixing the rows
    with weights ``mu`` recovers ``phi_step(mu, G, M)`` for both choices.
    """
    d = _check_same_d(mu.d, G.d, M.d)
    if not 0 <= x < d:
        raise DimensionMismatch(f"state index {x} out of range for d={d}")
    return ProbMeasure(_kernel_rows_raw(choice, mu.weights, G.values, M.rows)[x])


def cov_operator(
    choice: KernelChoice,
    mu: ProbMeasure,
    G: Potential,
    M: StochasticKernel,
    f1: ArrayLike,
    f2: ArrayLike,
) -> float:
    """Conditional covariance of the one-step particle fluctuation field.

    Returns ``mu[K(f1 f2) - K(f1) K(f2)]`` where ``K`` collects the rows of
    the chosen mean-field kernel.  For MULTINOMIAL this is the covariance of
    ``(f1, f2)`` under ``phi_step(mu, G, M)``.
    """
    v1 = as_values(f1)
    v2 = as_values(f2)
    _check_same_d(mu.d, G.d, M.d, v1.size, v2.size)
    (value,) = _cov_raw(choice, mu.weights[None], G.values[None], M.rows[None], v1[None], v2[None])
    return float(value)


def dobrushin(P: StochasticKernel) -> float:
    """Dobrushin contraction coefficient: max total-variation distance between rows."""
    diffs = np.abs(P.rows[:, None, :] - P.rows[None, :, :]).sum(axis=2)
    return 0.5 * float(diffs.max())
