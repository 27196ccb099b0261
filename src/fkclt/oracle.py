"""Exact finite-state solvers: measure flow, normalizing constants,
weighted semigroups, contraction diagnostics and spectral quantities.

Everything here is deterministic linear algebra on small dense vectors.
Products of the weighted factors ``Q_q = diag(G_q) M_{q+1}`` are rescaled
as they are formed, so no quantity underflows even for long horizons;
normalizations cancel in all the reported ratios.

Raw arrays inside, validated objects at the public edges.  One private
routine, ``_stack``, reads a model's steps over a horizon: it returns the
potentials (k, d) and kernels (k, d, d) of a run of steps, and the flow and
the semigroup family work on those arrays (the homogeneous spectral
routines read the one step they need).  ``_measure_flow`` runs the measure
recursion on them and checks the whole flow once at its end.

A model keeps the longest flow computed on it (never pickled), and
``_kept_flow`` is the one reader of that memo: a request up to the kept
length is a prefix of the kept arrays, with the bits of a flow of that
length, and a longer one runs ``_measure_flow`` and keeps its result; a
flow that raises keeps nothing.  ``propagate`` wraps its rows in
``ProbMeasure`` values, while ``v_n``, ``qbar_pn_one`` and ``d_pn`` read
the array directly.

``_ordered_products`` is the one product routine for this module and
``randenv``: ``qbar_pn_one``, ``d_pn``, ``markov_pn`` and ``qbar_p_inf``
each take ``Q_{p,n}`` from one call of it.  ``v_n`` keeps its sequential
backward sweep and evaluates all of its covariance terms in one batched
call of ``core._cov_raw``, the routine behind ``cov_operator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    INPUT_ATOL,
    ArrayLike,
    ConsistencyError,
    ConvergenceError,
    FKModel,
    FunctionVector,
    InvalidModel,
    KernelChoice,
    ModelBounds,
    ProbMeasure,
    StochasticKernel,
    as_values,
    cov_operator,
    dobrushin,
    phi_step,
    total_variation,
    _check_same_d,
    _cov_raw,
    _phi_raw,
)

FIXED_POINT_TOL = 1e-13
ITERATION_CAP = 10**6
# log-fits ignore betas at or below this floor: a beta carries about 1e-16 of
# absolute rounding noise, at most 1e-6 relative above the floor
BETA_FIT_FLOOR = 1e-10
SERIES_TAIL_TARGET = 36.0  # default truncation depth T = ceil(36 / lambda_hat)


@dataclass(frozen=True)
class OracleSolution:
    """Exact measure flow and log normalizing constants up to a horizon."""

    etas: tuple
    log_gammas: tuple
    potential_means: tuple

    @property
    def n(self) -> int:
        return len(self.etas) - 1


@dataclass(frozen=True)
class SpectralPair:
    """Principal eigenvalue/eigenfunction data of a homogeneous model.

    ``zeta`` is the top eigenvalue of Q = diag(G) M, ``h`` the matching right
    eigenvector normalized so that ``eta_inf(h) = 1``, and ``eta_inf`` the
    fixed point of the measure flow (the Yaglom measure in absorption
    models).  ``sigma2`` is the limiting per-step variance rate for the
    given kernel choice; it is None when not yet evaluated.
    """

    zeta: float
    h: FunctionVector
    eta_inf: ProbMeasure
    sigma2: Optional[float] = None
    kernel_choice: Optional[KernelChoice] = None


class _KahanSum:
    """Compensated accumulator; used where bit-stable sums are promised."""

    __slots__ = ("value", "_c")

    def __init__(self) -> None:
        self.value = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.value + y
        self._c = (t - self.value) - y
        self.value = t


def _stack(model: FKModel, lo: int, hi: int) -> tuple:
    """Potentials (k, d) and kernels (k, d, d) of steps ``lo..hi-1``, with
    k = hi - lo: the one loop over a model's steps in this module.  A step
    the schedule does not have raises the schedule's own error."""
    steps = [model.step(q) for q in range(lo, hi)]
    G = np.array([s.G.values for s in steps]).reshape(-1, model.d)
    return G, np.array([s.M.rows for s in steps]).reshape(-1, model.d, model.d)


def _measure_flow(eta0: np.ndarray, G: np.ndarray, M: np.ndarray) -> tuple:
    """The exact measure recursion from the weights ``eta0`` through the
    stacked steps ``G`` (n, d) and ``M`` (n, d, d), on raw arrays.

    Returns the flow weights as one (n+1, d) array, and the n+1 log
    normalizing constants and the n potential means as lists of floats.
    Each step is the arithmetic of ``phi_step``: Boltzmann-Gibbs
    reweighting, the kernel, a clip at 0 and a division by the sum.  Besides
    the product of the potential means, the log normalizing constants are
    recomputed through the unnormalized linear recursion
    ``gamma_{p+1} = (gamma_p . G_p) M_{p+1}``, and the two routes must agree
    to 1e-10 at every step.  A potential mean or linear-route total that is
    not positive (the potentials underflow against the flow) raises
    ``InvalidModel`` at its step.  The flow is checked once, at the end:
    finite, nonnegative, every row summing to 1.
    """
    etas = np.empty((len(G) + 1, eta0.size))
    etas[0] = eta = gvec = eta0
    log_gammas = [0.0]
    means = []
    gshift = 0.0
    for p, (g, m) in enumerate(zip(G, M)):
        means.append(float(eta @ g))
        gvec = (gvec * g) @ m
        total = gvec.sum()
        if not (means[p] > 0.0 and total > 0.0):
            raise InvalidModel(
                f"potential mean vanished at step {p}: mean {means[p]!r}, "
                f"linear-route total {float(total)!r}"
            )
        log_gammas.append(log_gammas[p] + math.log(means[p]))
        w = np.maximum(_phi_raw(eta, g, m), 0.0)  # the clip at 0 of a ProbMeasure
        etas[p + 1] = eta = w / w.sum()
        gshift += math.log(total)
        gvec = gvec / total
        if abs(gshift - log_gammas[p + 1]) > 1e-10 * max(1.0, abs(log_gammas[p + 1])):
            raise ConsistencyError(
                f"normalizing-constant routes disagree at step {p + 1}: "
                f"{gshift!r} vs {log_gammas[p + 1]!r}"
            )
    bad = ~np.isfinite(etas).all(axis=1) | (etas < 0.0).any(axis=1)
    bad |= np.abs(etas.sum(axis=1) - 1.0) > INPUT_ATOL
    if bad.any():
        p = int(bad.argmax())
        raise InvalidModel(f"measure flow at step {p} is not a probability vector: {etas[p]}")
    return etas, log_gammas, means


def _kept_flow(model: FKModel, n: int) -> tuple:
    """``_measure_flow`` over the model's first ``n`` steps, read as a prefix
    of the flow the model keeps; a longer request runs the flow and keeps
    it."""
    kept = model._flow
    if kept is None or len(kept[1]) <= n:
        kept = _measure_flow(model.eta0.weights, *_stack(model, 0, n))
        kept[0].flags.writeable = False
        object.__setattr__(model, "_flow", kept)
    etas, log_gammas, means = kept
    return etas[: n + 1], log_gammas[: n + 1], means[:n]


def propagate(model: FKModel, n: int) -> OracleSolution:
    """Run the exact measure recursion for ``n`` steps.

    The flow and both routes to the log normalizing constants come from
    ``_measure_flow``, which checks them, through the model's kept flow;
    the rows are wrapped as they are.
    """
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    etas, log_gammas, means = _kept_flow(model, n)
    return OracleSolution(
        tuple(ProbMeasure._checked(eta) for eta in etas), tuple(log_gammas), tuple(means)
    )


def _check_window(p: int, n: int) -> None:
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, got p={p}, n={n}")


def q_pn_apply(model: FKModel, p: int, n: int, f: ArrayLike) -> FunctionVector:
    """Apply the weighted semigroup between times ``p`` and ``n`` to ``f``."""
    _check_window(p, n)
    u = as_values(f)
    _check_same_d(model.d, u.size)
    G, M = _stack(model, p, n)
    for factor in (G[:, :, None] * M)[::-1]:
        u = factor @ u
    return FunctionVector(u)


def _semigroup(model: FKModel, p: int, n: int) -> np.ndarray:
    """The weighted semigroup ``Q_{p,n}`` as the ordered product of the
    factors ``diag(G) M`` of steps ``p..n-1``, after the window check; it is
    scaled as ``_ordered_products`` scales, so only its ratios count."""
    _check_window(p, n)
    G, M = _stack(model, p, n)
    (product,) = _ordered_products((G[:, :, None] * M)[None])
    return product


def qbar_pn_one(model: FKModel, p: int, n: int) -> FunctionVector:
    """Normalized semigroup column: Q_{p,n}(1) scaled to have eta_p-mean one."""
    product = _semigroup(model, p, n)
    eta_p = _kept_flow(model, p)[0][p]
    return FunctionVector(_limit_function(product, np.ones(model.d), eta_p))


def d_pn(model: FKModel, p: int, n: int, f: ArrayLike) -> FunctionVector:
    """Centered normalized semigroup: Q_bar_{p,n}(f - eta_n(f))."""
    _check_window(p, n)
    values = as_values(f)
    _check_same_d(model.d, values.size)
    etas = _kept_flow(model, n)[0]
    product = _semigroup(model, p, n)
    centered = product @ (values - float(etas[n] @ values))
    return FunctionVector(centered / float(etas[p] @ product.sum(axis=1)))


def markov_pn(model: FKModel, p: int, n: int) -> StochasticKernel:
    """Markov kernel obtained by row-normalizing the weighted semigroup."""
    Q = _semigroup(model, p, n)
    return StochasticKernel(Q / Q.sum(axis=1, keepdims=True))


def _ols_line(xs: Sequence[float], ys: Sequence[float]) -> tuple:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xm = x.mean()
    ym = y.mean()
    denom = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum()) / denom
    intercept = ym - slope * xm
    return slope, intercept


def _exp_or_inf(x: float) -> float:
    """``exp(x)``, or inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def contraction_profile(model: FKModel, n_max: int = 30) -> ModelBounds:
    """Dobrushin-coefficient profile with a fitted geometric decay rate.

    Computes ``beta(P_{0,n})`` and the semigroup ratio ``g_{0,n}`` for
    ``n = 1..n_max`` (30 for the oracle report and the series depth) and
    fits ``log beta`` against ``n`` by ordinary least squares over the points
    above the noise floor.  When every coefficient is at the floor (rank-one
    mixing), ``lambda_hat`` is reported as ``+inf`` with ``a_hat = 1``.

    Row x of ``P_{0,n}`` is the flow started at the point mass on x, so each
    row is carried normalized by its own sum, with the log of that sum, and
    a reweighted row sums to at most the step's largest potential.  ``g_{0,n}``
    is the exponential of the spread of those logs; it and ``g`` are inf
    beyond the float range.  Only a row whose reweighted mass underflows to
    0 raises ``InvalidModel``, naming the step.
    """
    if n_max < 2:
        raise ValueError(f"profile needs n_max >= 2, got {n_max}")
    G, M = _stack(model, 0, n_max)
    with np.errstate(over="ignore"):  # a ratio beyond the float range is inf
        g_pot = max(1.0, float((G.max(axis=1) / G.min(axis=1)).max()))
    P = np.eye(model.d)
    log_rows = np.zeros(model.d)
    betas = []
    g_values = []
    for p, (g, m) in enumerate(zip(G, M)):
        w = P * g
        sums = w.sum(axis=1)
        if not sums.all():
            raise InvalidModel(f"a row of the weighted semigroup underflowed to 0 at step {p}")
        P = (w / sums[:, None]) @ m
        log_rows += np.log(sums)
        betas.append(dobrushin(StochasticKernel(P)))
        g_values.append(_exp_or_inf(float(log_rows.max() - log_rows.min())))
    points = [(n, math.log(b)) for n, b in zip(range(1, n_max + 1), betas) if b > BETA_FIT_FLOOR]
    if len(points) >= 2:
        slope, intercept = _ols_line([p[0] for p in points], [p[1] for p in points])
        lambda_hat = -slope
        a_hat = math.exp(intercept)
    else:
        lambda_hat = math.inf
        a_hat = 1.0
    b_bound = math.inf
    if lambda_hat > 0.0:
        # exp(-inf) = 0 leaves the rank-one exponent a_hat (g - 1).  A slowly
        # mixing model can push the exponent past the float range.
        b_bound = _exp_or_inf(a_hat * (g_pot - 1.0) / (1.0 - math.exp(-lambda_hat)))
    g_within = all(g <= b_bound * (1.0 + 1e-12) for g in g_values)
    return ModelBounds(
        g=g_pot,
        a_hat=a_hat,
        lambda_hat=lambda_hat,
        b_bound=b_bound,
        beta_profile=tuple(betas),
        g_profile=tuple(g_values),
        g_within_bound=g_within,
    )


def v_n(model: FKModel, choice: KernelChoice, n: int) -> float:
    """Accumulated conditional variance of the normalized semigroup columns.

    Term ``q = 0`` is the plain variance under the initial law (the step-0
    kernel is the initial law itself, by convention); terms ``q >= 1`` use
    the conditional covariance of the chosen mean-field kernel.  Summation
    is compensated, in index order.  A sum that is not finite (a column
    underflowed against vanishing potentials) raises ``InvalidModel``.
    """
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if n == 0:
        return 0.0
    etas = _kept_flow(model, n)[0]
    G, M = _stack(model, 0, n)
    factors = G[:, :, None] * M
    ubars = np.empty((n, model.d))
    u = np.ones(model.d)
    for q in range(n - 1, -1, -1):
        u = factors[q] @ u
        u = u / float(etas[q] @ u)  # exact eta_q-mean-one normalization
        ubars[q] = u
    acc = _KahanSum()
    centered0 = ubars[0] - 1.0
    acc.add(float(etas[0] @ (centered0 * centered0)))
    if n > 1:  # term q >= 1: the covariance under step q-1 of the column at q
        cols = ubars[1:]
        for term in _cov_raw(choice, etas[: n - 1], G[: n - 1], M[: n - 1], cols, cols).tolist():
            acc.add(term)
    if not math.isfinite(acc.value):
        raise InvalidModel(
            f"v_n over {n} steps is not finite: a normalized semigroup column "
            "underflowed or overflowed"
        )
    # Every term is a variance, so the sum is nonnegative up to cancellation
    # noise; clamp the noise.
    return max(acc.value, 0.0)


def fixed_point_eta_inf(model: FKModel) -> ProbMeasure:
    """Fixed point of the homogeneous measure flow, by iteration."""
    if not model.homogeneous:
        raise InvalidModel("fixed point is defined for homogeneous schedules only")
    step = model.step(0)
    mu = model.eta0
    for _ in range(ITERATION_CAP):
        nxt = phi_step(mu, step.G, step.M)
        if total_variation(mu, nxt) < FIXED_POINT_TOL:
            return nxt
        mu = nxt
    raise ConvergenceError(
        f"measure flow did not reach a fixed point within {ITERATION_CAP} iterations"
    )


def eigen_h_zeta(model: FKModel) -> SpectralPair:
    """Principal right eigenvector of Q = diag(G) M by power iteration.

    The eigenvector is normalized to have mean one under the flow's fixed
    point and the eigenvalue is the matching Rayleigh ratio.  Residual
    identities are checked to 1e-10 before returning.
    """
    if not model.homogeneous:
        raise InvalidModel("spectral pair is defined for homogeneous schedules only")
    step = model.step(0)
    Q = step.G.values[:, None] * step.M.rows
    h = np.ones(model.d)
    for _ in range(ITERATION_CAP):
        nxt = Q @ h
        nxt = nxt / nxt.max()
        if np.abs(nxt - h).max() < FIXED_POINT_TOL:
            h = nxt
            break
        h = nxt
    else:
        raise ConvergenceError(
            f"power iteration did not settle within {ITERATION_CAP} iterations "
            "(oscillating iterates)"
        )
    eta_inf = fixed_point_eta_inf(model)
    zeta = float(eta_inf.weights @ (Q @ h)) / float(eta_inf.weights @ h)
    h = h / float(eta_inf.weights @ h)
    residual = np.abs(Q @ h - zeta * h).max()
    if residual > 1e-10:
        raise ConvergenceError(f"eigen residual {residual!r} exceeds 1e-10")
    if abs(float(eta_inf.weights @ h) - 1.0) > 1e-10:
        raise ConvergenceError("eigenvector normalization drifted")
    if abs(zeta - eta_inf.mean(step.G.values)) > 1e-10:
        raise ConsistencyError(
            f"eigenvalue {zeta!r} does not match the fixed-point potential mean"
        )
    return SpectralPair(zeta=zeta, h=FunctionVector(h), eta_inf=eta_inf)


def sigma2_homogeneous(model: FKModel, choice: KernelChoice) -> float:
    """Limiting per-step variance rate of the log normalizing-constant error."""
    return spectral_pair(model, choice).sigma2


def spectral_pair(model: FKModel, choice: KernelChoice) -> SpectralPair:
    """Spectral pair with the variance rate for ``choice`` filled in."""
    pair = eigen_h_zeta(model)
    step = model.step(0)
    sigma2 = cov_operator(choice, pair.eta_inf, step.G, step.M, pair.h, pair.h)
    return replace(pair, sigma2=sigma2, kernel_choice=choice)


def default_series_depth(lambda_hat: float) -> int:
    """Truncation depth that pushes the geometric series tail to ~2e-16."""
    if lambda_hat <= 0.0:
        raise InvalidModel(f"series depth needs a positive decay rate, got {lambda_hat!r}")
    if math.isinf(lambda_hat):
        return 1
    return max(1, math.ceil(SERIES_TAIL_TARGET / lambda_hat))


def _ordered_products(stack: np.ndarray) -> np.ndarray:
    """Ordered products ``A_0 A_1 ... A_{k-1}`` of a (b, k, d, d) stack of
    nonnegative matrices: one (d, d) product per batch entry, as (b, d, d).

    Neighbouring pairs are multiplied level by level, so k factors take about
    log2(k) batched products.  Each product is scaled to max entry 1 at every
    level, so long products do not underflow; the scale is dropped, and only
    ratios of entries of a result are meaningful.  k = 0 gives the identity.
    The stack may be a view with any strides on its first two axes.

    Each product's max is taken across its d*d entry planes, which are made
    contiguous first, rather than along its short last axis of d*d entries,
    which numpy reduces far more slowly.  A max is exact in any order and
    passes NaN on, so the scale has the bits, and raises the warnings, of a
    max along that axis.
    """
    b, k, d, _ = stack.shape
    if k == 0:
        return np.broadcast_to(np.eye(d), (b, d, d))
    while k > 1:
        paired = stack[:, 0 : k - 1 : 2] @ stack[:, 1::2]
        # Inline, so that no name keeps the planes' copy, or this level's
        # products, alive into the next level.
        paired /= (
            np.ascontiguousarray(paired.reshape(b, -1, d * d).T).max(axis=0).T[..., None, None]
        )
        if k % 2:  # the odd factor out is the last one; it joins the next level
            paired = np.concatenate([paired, stack[:, k - 1 :]], axis=1)
        stack = paired
        k = stack.shape[1]
    return stack[:, 0]


def _limit_function(product: np.ndarray, g_last: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The truncated limiting function ``product @ g_last``, scaled to mean
    one under the weights ``eta``: (d, d), (d,), (d,) give (d,), and leading
    axes are a batch, each entry with the bits of a batch of one."""
    u = (product @ g_last[..., None])[..., 0]
    return u / (eta[..., None, :] @ u[..., None])[..., 0]


def qbar_p_inf(model: FKModel, p: int, depth: Optional[int] = None) -> FunctionVector:
    """Limit of the normalized semigroup columns, truncated at ``depth``.

    The truncated limit is ``Q_p ... Q_{p+depth-2} G_{p+depth-1}`` with
    ``Q_q = diag(G_q) M_{q+1}``, scaled to ``eta_p``-mean one.  Since
    ``Q_q(1) = G_q``, that is ``qbar_pn_one`` at ``n = p + depth``; it is the
    exponential of the log series whose lag-``q`` term compares the
    potential means of the flows started at each point mass and at
    ``eta_p``.  When ``depth`` is omitted it is derived from the fitted
    contraction rate.
    """
    if depth is None:
        depth = default_series_depth(contraction_profile(model).lambda_hat)
    if depth < 1:
        raise ValueError(f"series depth must be >= 1, got {depth}")
    return qbar_pn_one(model, p, p + depth)


def oracle_report(
    model: FKModel,
    n: int,
    choice: KernelChoice,
    series_depth: Optional[int] = None,
) -> dict:
    """Assemble the JSON-ready oracle record for a model.

    Always contains the measure flow and log normalizing constants; for
    homogeneous models it adds the spectral pair, the variance-rate table
    and the contraction diagnostics.
    """
    sol = propagate(model, n)
    report = {
        "schema": 1,
        "n": n,
        "kernel": choice.value,
        "etas": [list(map(float, eta.weights)) for eta in sol.etas],
        "log_gammas": [float(x) for x in sol.log_gammas],
        "potential_means": [float(x) for x in sol.potential_means],
    }
    if model.homogeneous:
        pair = spectral_pair(model, choice)
        bounds = contraction_profile(model)
        depth = series_depth
        if depth is None and bounds.lambda_hat > 0.0:
            depth = default_series_depth(bounds.lambda_hat)
        report.update(
            {
                "zeta": pair.zeta,
                "h": list(map(float, pair.h.values)),
                "eta_inf": list(map(float, pair.eta_inf.weights)),
                "sigma2": pair.sigma2,
                "v_n_table": [v_n(model, choice, k) for k in range(1, n + 1)],
                "beta_profile": list(bounds.beta_profile),
                "g_profile": list(bounds.g_profile),
                "g": bounds.g,
                "lambda_hat": bounds.lambda_hat,
                "a_hat": bounds.a_hat,
                "b_bound": bounds.b_bound,
                "qbar_limit": list(map(float, qbar_p_inf(model, 0, depth).values))
                if depth is not None
                else None,
            }
        )
    return report
