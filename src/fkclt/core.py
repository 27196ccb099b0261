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
dimensions and parse the kernel choice into a bool, ``transport``, before
handing plain arrays to the private ``_*_raw`` routines.  Those routines
(reweighting, the mean-field kernel rows, the conditional covariance) take
that bool and leading batch axes, and check only the transport kernel's
G <= 1, so the exact solvers and the particle engine call them inside their
loops at array cost.  Two checks are the value layer's one contract, which
every value type, ``as_values`` and the HMM emission matrix go through:
``_finite`` (shape, non-empty, finite) and ``_stochastic`` (rows that are
probability vectors).  Index arrays (particle states, environment paths,
symbols) have one check too, ``_indices``: 1-d, integral, and in range
where the caller knows it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

# Probability vectors and kernel rows further off than this from a probability
# row are rejected; the rest are clipped at 0 and renormalized at construction.
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


def _generator(seed: int) -> np.random.Generator:
    """The package's one seeded generator: PCG64 on ``seed`` modulo 2**64."""
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))


ArrayLike = Union[np.ndarray, Sequence[float], "FunctionVector"]


def _finite(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a float array, not copied: other than ``ndim`` axes or
    empty raises DimensionMismatch, a NaN or an inf InvalidModel."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionMismatch(f"{what} must be {ndim}-d and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidModel(f"{what} has non-finite entries")
    return arr


def _indices(values, what: str, bound: Optional[int] = None, empty: bool = False) -> np.ndarray:
    """``values`` as a 1-d int64 array, not copied when it is one.  Another
    shape, no values unless ``empty``, a value that is not an integer, a
    negative one, or one at or above a given ``bound`` raises InvalidModel."""
    arr = np.asarray(values)
    if arr.ndim != 1 or not (arr.size or empty):
        need = f"{what}s" if empty else f"at least one {what}"
        raise InvalidModel(f"need a 1-d array of {need}, got shape {arr.shape}")
    if arr.dtype != np.int64:
        if arr.dtype.kind == "f" and not (np.isfinite(arr).all() and (arr == np.trunc(arr)).all()):
            raise InvalidModel(f"{what} values must be integers, got a non-integral one")
        arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or (bound is not None and arr.max() >= bound)):
        raise InvalidModel(f"{what} out of range [0, {'inf' if bound is None else bound - 1}]")
    return arr


def _stochastic(values, ndim: int, what: str) -> np.ndarray:
    """``_finite`` values whose rows (last axis) have entries >= -INPUT_ATOL
    and sums within INPUT_ATOL of 1, else InvalidModel; returned clipped at
    0, renormalized and read-only."""
    arr = _finite(values, ndim, what)
    if np.any(arr < -INPUT_ATOL):
        raise InvalidModel(f"negative {what} entry {float(arr.min())!r}")
    deviation = float(np.abs(arr.sum(axis=-1) - 1.0).max())
    if deviation > INPUT_ATOL:
        raise InvalidModel(f"{what} row sums deviate from 1 by up to {deviation!r}")
    return _frozen(_normalized(arr))


def _normalized(w: np.ndarray) -> np.ndarray:
    """Rows (last axis) of ``w`` clipped at 0 and divided by their sums."""
    w = np.maximum(w, 0.0)
    return w / w.sum(axis=-1, keepdims=True)


def as_values(f: ArrayLike) -> np.ndarray:
    """Coerce a function on the state space to a 1-d float array."""
    if isinstance(f, FunctionVector):
        return f.values
    return _finite(f, 1, "function vector")


@dataclass(frozen=True)
class ProbMeasure:
    """Probability vector over the state space."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _stochastic(self.weights, 1, "probability vector"))

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
        return cls(FunctionVector.indicator(d, x).values)

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
        object.__setattr__(self, "values", _frozen(_finite(self.values, 1, "function vector")))

    @property
    def d(self) -> int:
        return self.values.size

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
        # Squareness is a shape check, so it comes before the entries are read.
        if r.ndim == 2 and r.shape[0] != r.shape[1]:
            raise DimensionMismatch(f"kernel must be a square matrix, got shape {r.shape}")
        object.__setattr__(self, "rows", _stochastic(r, 2, "kernel"))

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
        v = _finite(self.values, 1, "potential")
        if v.min() <= 0.0:
            raise InvalidModel(
                f"potential must be strictly positive, min entry is {float(v.min())!r}"
            )
        object.__setattr__(self, "values", _frozen(v))

    @property
    def d(self) -> int:
        return self.values.size


class KernelChoice(enum.Enum):
    """Mean-field transition used by the particle system.

    MULTINOMIAL draws every particle from the reweighted, mutated empirical
    measure.  TRANSPORT keeps a particle with probability equal to its
    potential value (which therefore must be <= 1) and resamples it
    otherwise, then mutates.
    """

    MULTINOMIAL = "multinomial"
    TRANSPORT = "transport"


def _transport(choice: KernelChoice) -> bool:
    """Whether ``choice`` is the transport kernel.  Anything that is neither
    member is a ``ValueError``, so no caller runs one kernel for a value
    that names neither."""
    if choice is KernelChoice.TRANSPORT:
        return True
    if choice is KernelChoice.MULTINOMIAL:
        return False
    raise ValueError(
        "kernel choice must be KernelChoice.MULTINOMIAL or KernelChoice.TRANSPORT, "
        f"got {choice!r}"
    )


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

    def sampling_table(self, transport: bool, tails: tuple) -> np.ndarray:
        """The comparison thresholds ``_categorical_thresholds`` draws a
        generation from, given the kernel (``transport``, a bool: False for
        the multinomial kernel) and the generation's tail counts:
        ``tails[x]`` is the number of particles in state x or above, a tuple
        of d Python ints whose first entry is N (what the draw returns next
        to its states).  The thresholds are the ``_thresholds`` table of the
        laws a particle may draw from: ``phi``'s (d-1, 1) column for the
        multinomial kernel, and the d transport rows' (d-1, d) table for the
        transport kernel, column x serving the particles in state x.  The
        empirical measure is ``counts / N``, where ``counts[x] = tails[x] -
        tails[x+1]``, so the table is a function of ``(transport, tails)``
        and is kept under that key, which hashes no ``Enum``, up to
        ``SAMPLING_TABLES_MAX`` tables; a kept table is the array a rebuild
        would give, bit for bit.  Both kernels' tables come from the rows of
        ``_kernel_rows_raw`` through ``_thresholds``: the multinomial rows
        all equal ``phi``, so its table is row 0's.  A build that raises (a
        transport potential above 1, or a CDF that is not finite, as when
        every reweighted count underflows to 0) keeps nothing, so it raises
        again on every use."""
        key = (transport, tails)
        table = self._tables.get(key)
        if table is None:
            mu_w = _counts(tails) / tails[0]
            rows = _kernel_rows_raw(transport, mu_w, self.G.values, self.M.rows)
            table = _thresholds(rows if transport else rows[:1])
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
    constants, potential means) with the step stack it ran on (potentials
    and kernels), or None.  Over n steps that is about n(d^2 + 2d + 2)
    floats, n d^2 of them the kernels.  Step p of the flow depends only on
    the steps before it, so ``oracle`` answers a shorter request with a
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


def _counts(tails: tuple) -> np.ndarray:
    """The state counts (d,) int64 of the tail counts ``tails``, where
    ``tails[x]`` is the number in state x or above."""
    return np.subtract(tails, tails[1:] + (0,))


def _thresholds(laws: np.ndarray) -> np.ndarray:
    """The comparison thresholds of the probability rows ``laws`` (m, d):
    the first d-1 values of each row's CDF, one law per column, as the
    contiguous, read-only (d-1, m) table that ``_categorical_thresholds``
    reads.  The one place that builds that layout.  A CDF value that is not
    finite, the last one included, raises InvalidModel."""
    cumulative = laws.cumsum(axis=1)
    if not np.isfinite(cumulative).all():
        raise InvalidModel("a sampling law's CDF is not finite")
    table = np.ascontiguousarray(cumulative[:, :-1].T)
    table.flags.writeable = False
    return table


def _categorical_thresholds(
    thresholds: np.ndarray, u: np.ndarray, rows: Optional[np.ndarray] = None
) -> tuple:
    """Inverse-CDF draws min{x : F(x) >= u} from comparison thresholds: each
    draw counts the thresholds below its uniform, as one (d-1, k)
    comparison at cost O(k(d-1)); the int64 states are the comparison rows
    added up in one pass, the first row cast and each later row added to
    it.  ``thresholds`` (d-1, m) is a ``_thresholds`` table of m laws over
    d states: with ``rows`` None, m = 1 and every draw compares against the
    one column; otherwise column ``rows[i]`` serves draw ``i``.  The last
    CDF value is never compared, so a total that rounds below 1 still
    yields at most d-1.

    Returns ``(states, tail_counts)``: ``tail_counts[x]`` is the number of
    draws in state x or above, a tuple of d Python ints read off the same
    comparison (``tail_counts[0]`` is the number of draws, and row x-1 of
    the comparison holds the draws above threshold F(x-1))."""
    compared = (thresholds if rows is None else thresholds.take(rows, axis=1)) < u
    if len(compared) == 0:
        return np.zeros(u.size, dtype=np.int64), (u.size,)
    # Rows by index: iterating over a 2-d array costs more per row.
    above = compared[0]
    states = above.astype(np.int64)
    counted = [u.size, int(np.count_nonzero(above))]
    for x in range(1, len(compared)):
        above = compared[x]
        states += above
        counted.append(int(np.count_nonzero(above)))
    return states, tuple(counted)


def _chain_path(law0: np.ndarray, moves: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Markov chain states, one per uniform: the first drawn from the law
    ``law0`` (d,), each later one from the row of ``moves`` (d, d) at its
    predecessor.  Every row's draws for all the uniforms are one
    ``_categorical_thresholds`` call on its column of the moves' table, and
    the path walks those draws: draw i of the row of state s is the state
    that uniform i gives after s."""
    if u.size == 0:
        return np.empty(0, dtype=np.int64)
    table = _thresholds(moves)
    drawn = [_categorical_thresholds(column[:, None], u)[0].tolist() for column in table.T]
    state = int(_categorical_thresholds(_thresholds(law0[None]), u[:1])[0][0])
    states = [state]
    for i in range(1, u.size):
        state = drawn[state][i]
        states.append(state)
    return np.array(states, dtype=np.int64)


def _kernel_rows_raw(
    transport: bool, mu_w: np.ndarray, g_v: np.ndarray, m_r: np.ndarray
) -> np.ndarray:
    """Rows of the mean-field kernel, (..., d, d): every row is ``phi`` for
    the multinomial kernel, and row x is ``G(x) M(x, .) + (1 - G(x)) phi(.)``
    for the transport kernel, which keeps a particle with probability G(x),
    so every potential value must be <= 1, else ``InvalidModel``.  The rows
    are always a materialized contiguous array: matrix products over a
    stride-0 view leave BLAS and sum in another order."""
    phi = _phi_raw(mu_w, g_v, m_r)
    if not transport:
        return phi[..., None, :].repeat(m_r.shape[-1], axis=-2)
    if g_v.max() > 1.0:
        raise InvalidModel(
            f"transport kernel needs potential values <= 1, max entry is {float(g_v.max())!r}"
        )
    return g_v[..., :, None] * m_r + (1.0 - g_v)[..., :, None] * phi[..., None, :]


def _cov_raw(
    transport: bool,
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
    rows = _kernel_rows_raw(transport, mu_w, g_v, m_r)
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
    return ProbMeasure(_kernel_rows_raw(_transport(choice), mu.weights, G.values, M.rows)[x])


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
    batch_of_one = (a[None] for a in (mu.weights, G.values, M.rows, v1, v2))
    return float(_cov_raw(_transport(choice), *batch_of_one)[0])


def dobrushin(P: StochasticKernel) -> float:
    """Dobrushin contraction coefficient: max total-variation distance between rows."""
    diffs = np.abs(P.rows[:, None, :] - P.rows[None, :, :]).sum(axis=2)
    return 0.5 * float(diffs.max())
