"""Replicated experiments and statistical verification of the lognormal
limit of normalized normalizing-constant estimates.

With n steps and N particles, the log of the normalized estimate is tested
against a normal law with mean -v_n/(2N) and variance v_n/N, where v_n is
the oracle's accumulated conditional variance.  The predicted mean is minus
half the predicted variance by construction, which is exactly the
bias-variance relation the estimator's unbiasedness forces.

Replicates run in chunks, in this process with one thread and on a process
pool otherwise.  Replicate i draws from the seed derived from the master
seed and i, so the chunk layout cannot change any result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import FKModel, KernelChoice, _transport
from .engine import derive_seed, run
from .oracle import propagate, v_n

# Frozen verdict thresholds; overriding them is a per-call configuration,
# not an edit here.
MEAN_Z_MAX = 3.0
VAR_RATIO_WINDOW = (0.85, 1.15)
KS_P_MIN = 0.01
UNBIASED_Z_MAX = 3.0
FIXED_N_REL_ERROR_MAX = 0.15
KS_MIN_SAMPLES = 35
_KOLMOGOROV_TERMS = 100
# Constant-potential models have v_n = 0 algebraically but the covariance
# evaluation carries cancellation noise of order 1e-16 per step; anything at
# or below this floor is degenerate.
DEGENERATE_V_TOL = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """One replicated experiment: model, kernel, sizes and the master seed."""

    model: FKModel
    choice: KernelChoice
    n: int
    N: int
    replicates: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.N < 1:
            raise ValueError("n and N must be >= 1")
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        _transport(self.choice)


@dataclass(frozen=True)
class CltReport:
    """Replicate statistics with pass/fail verdicts against the normal target."""

    N: int
    R: int
    v_n: float
    predicted_mean: float
    predicted_variance: float
    mean: float
    variance: float
    z_mean: float
    var_ratio: float
    ks_D: float
    ks_p: float
    unbiased_z: float
    verdicts: dict
    degenerate: bool

    def __post_init__(self) -> None:
        if self.predicted_mean != -0.5 * self.predicted_variance:
            raise ValueError("predicted mean must equal minus half the predicted variance")

    @property
    def passed(self) -> bool:
        if self.degenerate:
            return True
        return all(v == "pass" for v in self.verdicts.values())


def _run_replicates(payload) -> list:
    """Task function of the chunk loop: the records of one chunk of replicates."""
    config, oracle_log_gamma, indices = payload
    model, N, n, choice = config.model, config.N, config.n, config.choice
    return [
        run(model, N, n, choice, derive_seed(config.master_seed, i), oracle_log_gamma, i)
        for i in indices
    ]


def replicate_experiment(
    config: ExperimentConfig,
    oracle_log_gamma: Optional[float] = None,
    threads: int = 1,
) -> list:
    """Run R independent replicates with seeds derived from the master seed.

    The replicates are dealt into min(R, 4 threads) chunks.  With one thread
    the chunks run in this process; otherwise on a pool of min(threads,
    chunks, CPUs) processes, since a wider pool would only cost forks.
    Replicates are independent tasks, so the layout cannot change the
    result; the output is sorted by replicate index either way.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if oracle_log_gamma is None:
        oracle_log_gamma = propagate(config.model, config.n).log_gammas[-1]
    indices = range(config.replicates)
    chunk_count = min(config.replicates, threads * 4)
    payloads = [(config, oracle_log_gamma, indices[c::chunk_count]) for c in range(chunk_count)]
    if threads == 1:
        parts = list(map(_run_replicates, payloads))
    else:
        # Imported here: the pool module brings in multiprocessing, which a
        # one-thread run never needs.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(threads, chunk_count, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_replicates, payloads))
    records = [record for part in parts for record in part]
    return sorted(records, key=lambda r: r.replicate_id)


def kolmogorov_p(t: float) -> float:
    """Asymptotic Kolmogorov tail probability, series truncated at 100 terms.

    Below t = 0.2, where 100 terms of 2 sum (-1)^(k-1) exp(-2 k^2 t^2) do not
    converge, it uses the dual theta series 1 - sqrt(2 pi)/t sum
    exp(-(2k-1)^2 pi^2 / (8 t^2)) (Marsaglia, Tsang & Wang, J. Stat. Softw.
    8(18), 2003); the two agree to about 1e-16 at the switch."""
    if t <= 0.0:
        return 1.0
    if t < 0.2:
        ks = range(1, _KOLMOGOROV_TERMS + 1)
        theta = sum(math.exp(-(((2 * k - 1) * math.pi / t) ** 2) / 8.0) for k in ks)
        return 1.0 - math.sqrt(2.0 * math.pi) / t * theta
    total = 0.0
    for k in range(1, _KOLMOGOROV_TERMS + 1):
        total += (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * t * t)
    return min(1.0, max(0.0, 2.0 * total))


def ks_statistic(samples: Sequence[float], cdf: Callable[[float], float]) -> tuple:
    """Kolmogorov-Smirnov distance against a fully specified distribution.

    Returns ``(D, p)`` with ``D`` the sup distance between the empirical CDF
    and ``cdf`` over the sorted sample and ``p`` its asymptotic tail
    probability at sqrt(R) D.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    R = x.size
    if R == 0:
        raise ValueError("need at least one sample")
    # Python floats: the CDF costs more per numpy scalar.
    F = np.array([cdf(v) for v in x.tolist()], dtype=float)
    i = np.arange(1, R + 1)
    D = float(np.maximum(i / R - F, F - (i - 1) / R).max())
    return D, kolmogorov_p(math.sqrt(R) * D)


def normal_cdf(mean: float, variance: float) -> Callable[[float], float]:
    sd = math.sqrt(variance)

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0))))

    return cdf


def unbiasedness_check(gamma_bar_samples: Sequence[float]) -> tuple:
    """z-score of the natural-scale estimates against exact mean one."""
    x = np.asarray(gamma_bar_samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        z = 0.0 if mean == 1.0 else math.inf if mean > 1.0 else -math.inf
    else:
        z = (mean - 1.0) / (sd / math.sqrt(x.size))
    return z, abs(z) <= UNBIASED_Z_MAX


def lognormal_check(
    samples: Sequence[float],
    v_n_value: float,
    N: int,
    var_window: tuple = VAR_RATIO_WINDOW,
) -> CltReport:
    """Test log normalized estimates against N(-v_n/(2N), v_n/N).

    Runs the mean test at 3 standard errors, the variance-ratio test on the
    given window, the KS test with fully specified target parameters, and
    the natural-scale unbiasedness test.  A non-positive ``v_n_value``
    yields the degenerate verdict instead of spurious failures.
    """
    x = np.asarray(samples, dtype=float)
    R = x.size
    if R < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples, got {R}")
    mean = float(x.mean())
    variance = float(x.var(ddof=1))
    gamma_bar = np.exp(x)
    if v_n_value <= DEGENERATE_V_TOL:
        return CltReport(
            N=N, R=R, v_n=v_n_value,
            predicted_mean=-0.0, predicted_variance=0.0,
            mean=mean, variance=variance,
            z_mean=0.0, var_ratio=1.0, ks_D=0.0, ks_p=1.0, unbiased_z=0.0,
            verdicts={k: "degenerate" for k in ("mean", "variance", "ks", "unbiasedness")},
            degenerate=True,
        )
    predicted_variance = v_n_value / N
    predicted_mean = -0.5 * predicted_variance
    sd = math.sqrt(variance)
    if sd == 0.0:
        z_mean = 0.0 if mean == predicted_mean else math.copysign(math.inf, mean - predicted_mean)
    else:
        z_mean = (mean - predicted_mean) / (sd / math.sqrt(R))
    var_ratio = variance / predicted_variance
    ks_D, ks_p = ks_statistic(x, normal_cdf(predicted_mean, predicted_variance))
    unbiased_z, unbiased_ok = unbiasedness_check(gamma_bar)
    verdicts = {
        "mean": "pass" if abs(z_mean) <= MEAN_Z_MAX else "fail",
        "variance": "pass" if var_window[0] <= var_ratio <= var_window[1] else "fail",
        "ks": "pass" if ks_p > KS_P_MIN else "fail",
        "unbiasedness": "pass" if unbiased_ok else "fail",
    }
    return CltReport(
        N=N, R=R, v_n=v_n_value,
        predicted_mean=predicted_mean, predicted_variance=predicted_variance,
        mean=mean, variance=variance,
        z_mean=z_mean, var_ratio=var_ratio, ks_D=ks_D, ks_p=ks_p,
        unbiased_z=unbiased_z, verdicts=verdicts, degenerate=False,
    )


def fixed_n_clt_check(
    model: FKModel,
    choice: KernelChoice,
    n: int,
    N_list: Sequence[int],
    replicates: int,
    seed: int,
    threads: int = 1,
) -> list:
    """Fixed-horizon variance sweep: empirical variance of sqrt(N)(gamma_bar - 1)
    per particle count, against the oracle value v_n.

    Returns one row per N with the variance, a 95% normal-approximation
    confidence interval, and the relative error against v_n (0.0 for a
    degenerate v_n, as in ``fixed_n_verdict``).
    """
    for N in N_list:
        if N < 100:
            raise ValueError(f"each N must be >= 100, got {N}")
    target = v_n(model, choice, n)
    oracle_log_gamma = propagate(model, n).log_gammas[-1]
    rows = []
    for j, N in enumerate(N_list):
        config = ExperimentConfig(
            model=model, choice=choice, n=n, N=N,
            replicates=replicates, master_seed=derive_seed(seed, j),
        )
        records = replicate_experiment(config, oracle_log_gamma=oracle_log_gamma, threads=threads)
        samples = np.array([math.sqrt(N) * (r.gamma_bar - 1.0) for r in records])
        variance = float(samples.var(ddof=1))
        half = 1.96 * variance * math.sqrt(2.0 / (replicates - 1))
        rows.append(
            {
                "N": N,
                "variance": variance,
                "ci_low": variance - half,
                "ci_high": variance + half,
                "target_v_n": target,
                "rel_error": abs(variance - target) / target if target > DEGENERATE_V_TOL else 0.0,
            }
        )
    return rows


def fixed_n_verdict(rows: Sequence[dict]) -> str:
    """Verdict at the last N of a ``fixed_n_clt_check`` sweep: "degenerate" at
    v_n <= ``DEGENERATE_V_TOL``, as in ``lognormal_check``, else pass/fail."""
    last = rows[-1]
    if last["target_v_n"] <= DEGENERATE_V_TOL:
        return "degenerate"
    return "pass" if last["rel_error"] <= FIXED_N_REL_ERROR_MAX else "fail"
