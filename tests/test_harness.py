from __future__ import annotations

import concurrent.futures
import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

import fkclt as fk
from fkclt.harness import (
    DEGENERATE_V_TOL,
    FIXED_N_REL_ERROR_MAX,
    KS_MIN_SAMPLES,
    CltReport,
    ExperimentConfig,
    fixed_n_clt_check,
    fixed_n_verdict,
    kolmogorov_p,
    ks_statistic,
    lognormal_check,
    normal_cdf,
    replicate_experiment,
    unbiasedness_check,
)

MULTI = fk.KernelChoice.MULTINOMIAL
KERNELS = list(fk.KernelChoice)


def one_state_model() -> fk.FKModel:
    return fk.homogeneous_model(
        fk.StochasticKernel([[1.0]]), fk.Potential([0.6]), fk.ProbMeasure([1.0])
    )


def constant_potential_model() -> fk.FKModel:
    return fk.homogeneous_model(
        fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]]),
        fk.Potential([0.3, 0.3]),
        fk.ProbMeasure([0.5, 0.5]),
    )


class TestKsStatistic:
    def test_single_sample_against_uniform(self):
        D, _ = ks_statistic([0.5], lambda x: min(max(x, 0.0), 1.0))
        assert D == 0.5

    def test_quantile_samples(self):
        R = 40
        cdf = lambda x: min(max(x, 0.0), 1.0)
        samples = [(i - 0.5) / R for i in range(1, R + 1)]
        D, _ = ks_statistic(samples, cdf)
        assert abs(D - 1.0 / (2 * R)) <= 1e-15

    def test_gross_mismatch(self):
        gen = np.random.default_rng(404)
        samples = gen.random(10_000)
        _, p = ks_statistic(samples, normal_cdf(0.0, 1.0))
        assert p < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], normal_cdf(0.0, 1.0))

    def test_matches_scipy_asymptotic(self):
        gen = np.random.default_rng(5150)
        x = gen.normal(0.3, 1.7, size=500)
        D, p = ks_statistic(x, normal_cdf(0.3, 1.7**2))
        ref = scipy.stats.kstest(x, lambda v: scipy.stats.norm.cdf(v, 0.3, 1.7), mode="asymp")
        assert abs(D - ref.statistic) <= 1e-12
        assert abs(p - ref.pvalue) <= 1e-9

    @pytest.mark.parametrize(
        "samples",
        [
            np.random.default_rng(77).normal(0.3, 1.7, size=2000),
            np.array([0.4]),
            np.repeat([-1.25, 0.0, 0.3, 2.0], [7, 1, 12, 5]),
        ],
        ids=["2000", "one", "tied"],
    )
    def test_bits_of_the_per_scalar_loop(self, samples):
        # The CDF evaluated on each numpy scalar of the sorted sample, as
        # ks_statistic did before it read the sample as Python floats.
        cdf = normal_cdf(0.3, 1.7**2)
        x = np.sort(samples)
        F = np.array([float(cdf(v)) for v in x])
        i = np.arange(1, x.size + 1)
        D = float(np.maximum(i / x.size - F, F - (i - 1) / x.size).max())
        assert ks_statistic(samples, cdf) == (D, kolmogorov_p(math.sqrt(x.size) * D))

    def test_kolmogorov_series_matches_scipy(self):
        for t in (1e-4, 1e-3, 0.005, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.5):
            assert abs(kolmogorov_p(t) - float(scipy.special.kolmogorov(t))) <= 1e-12
        assert kolmogorov_p(0.0) == 1.0
        assert kolmogorov_p(-1.0) == 1.0


class TestUnbiasedness:
    def test_exact_ones_pass(self):
        z, ok = unbiasedness_check([1.0] * 10)
        assert z == 0.0 and ok

    def test_constant_two_fails(self):
        z, ok = unbiasedness_check([2.0] * 10)
        assert math.isinf(z) and not ok

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            unbiasedness_check([1.0])


class TestLognormalCheck:
    def test_synthetic_null_passes(self):
        # Samples drawn from the exact target law: at least 98 of 100 seeded
        # batches must pass every verdict with KS p above the threshold.
        v, N = 10.0, 64
        pm, pv = -v / (2 * N), v / N
        passes = 0
        for b in range(100):
            gen = np.random.default_rng(900 + b)
            samples = gen.normal(pm, math.sqrt(pv), size=2000)
            report = lognormal_check(samples, v, N)
            passes += report.passed and report.ks_p > 0.01
        assert passes >= 98

    def test_shift_breaks_the_mean_test(self):
        v, N = 10.0, 64
        gen = np.random.default_rng(901)
        samples = gen.normal(-v / (2 * N), math.sqrt(v / N), size=2000) + 0.5
        report = lognormal_check(samples, v, N)
        assert report.verdicts["mean"] == "fail"

    def test_degenerate_variance(self):
        samples = np.zeros(50)
        report = lognormal_check(samples, 0.0, 10)
        assert report.degenerate
        assert report.passed
        assert set(report.verdicts.values()) == {"degenerate"}

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            lognormal_check(np.zeros(34), 1.0, 10)

    def test_bias_variance_lock(self):
        gen = np.random.default_rng(902)
        report = lognormal_check(gen.normal(size=100), 2.0, 50)
        assert report.predicted_mean == -0.5 * report.predicted_variance
        with pytest.raises(ValueError):
            CltReport(
                N=1, R=2, v_n=1.0, predicted_mean=-0.3, predicted_variance=1.0,
                mean=0.0, variance=1.0, z_mean=0.0, var_ratio=1.0, ks_D=0.0,
                ks_p=1.0, unbiased_z=0.0, verdicts={}, degenerate=False,
            )

    def test_variance_window_override(self):
        v, N = 10.0, 64
        gen = np.random.default_rng(903)
        samples = gen.normal(-v / (2 * N), math.sqrt(v / N) * 1.09, size=2000)
        tight = lognormal_check(samples, v, N)
        wide = lognormal_check(samples, v, N, var_window=(0.5, 2.0))
        assert tight.verdicts["variance"] == "fail"
        assert wide.verdicts["variance"] == "pass"


class TestReplicateExperiment:
    def test_identical_reruns(self, two_state):
        config = ExperimentConfig(
            model=two_state, choice=MULTI, n=8, N=16, replicates=2, master_seed=5
        )
        a = replicate_experiment(config)
        b = replicate_experiment(config)
        assert [r.log_gamma_bar for r in a] == [r.log_gamma_bar for r in b]
        assert [r.seed for r in a] == [r.seed for r in b]

    def test_constant_potential_all_zero(self, two_state):
        M = two_state.step(0).M
        model = fk.homogeneous_model(M, fk.Potential([0.3, 0.3]), fk.ProbMeasure([0.5, 0.5]))
        config = ExperimentConfig(
            model=model, choice=MULTI, n=12, N=32, replicates=20, master_seed=6
        )
        for record in replicate_experiment(config):
            assert abs(record.log_gamma_bar) <= 1e-12

    def test_sorted_by_replicate_and_thread_invariant(self, two_state):
        config = ExperimentConfig(
            model=two_state, choice=fk.KernelChoice.TRANSPORT,
            n=10, N=24, replicates=30, master_seed=7,
        )
        serial = replicate_experiment(config, threads=1)
        parallel = replicate_experiment(config, threads=3)
        assert [r.replicate_id for r in serial] == list(range(30))
        assert [r.log_gamma_N for r in serial] == [r.log_gamma_N for r in parallel]
        assert [r.log_gamma_bar for r in serial] == [r.log_gamma_bar for r in parallel]

    def test_pool_is_no_wider_than_chunks_or_cpus(self, two_state, monkeypatch):
        widths = []

        class InProcessPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(fk.harness.os, "cpu_count", lambda: 4)
        for replicates, threads in ((2, 8), (30, 5000), (30, 3)):
            config = ExperimentConfig(
                model=two_state, choice=MULTI, n=3, N=8, replicates=replicates, master_seed=5
            )
            serial = replicate_experiment(config, threads=1)
            pooled = replicate_experiment(config, threads=threads)
            assert [r.log_gamma_bar for r in pooled] == [r.log_gamma_bar for r in serial]
        # Two replicates make two chunks; otherwise the 4 CPUs bound the pool.
        assert widths == [2, 4, 3]

    def test_config_validation(self, two_state):
        with pytest.raises(ValueError):
            ExperimentConfig(model=two_state, choice=MULTI, n=0, N=1, replicates=2, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model=two_state, choice=MULTI, n=1, N=1, replicates=1, master_seed=0)
        config = ExperimentConfig(model=two_state, choice=MULTI, n=4, N=8, replicates=2, master_seed=0)
        with pytest.raises(ValueError):
            replicate_experiment(config, threads=0)


class TestFixedN:
    def test_constant_potential_zero_variance(self, two_state):
        M = two_state.step(0).M
        model = fk.homogeneous_model(M, fk.Potential([0.5, 0.5]), fk.ProbMeasure([0.5, 0.5]))
        rows = fixed_n_clt_check(model, MULTI, 5, [100, 200], 50, seed=1)
        for row in rows:
            assert row["variance"] <= 1e-20

    def test_target_inside_interval_at_fixed_seed(self, two_state):
        rows = fixed_n_clt_check(two_state, MULTI, 5, [100, 400], 2000, seed=6000)
        for row in rows:
            assert row["ci_low"] <= row["target_v_n"] <= row["ci_high"]
            assert row["rel_error"] <= 0.15

    def test_rejects_small_N(self, two_state):
        with pytest.raises(ValueError):
            fixed_n_clt_check(two_state, MULTI, 3, [50], 100, seed=1)

    def test_rejects_small_N_before_any_replicate(self, two_state, monkeypatch):
        calls = []
        monkeypatch.setattr(fk.harness, "replicate_experiment", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="got 50"):
            fixed_n_clt_check(two_state, MULTI, 3, [100, 50], 100, seed=1)
        assert calls == []


class TestHarnessEdges:
    """Edges of the verification layer's input range: one state, one
    particle, one step, equal samples, and a target v_n that is zero or
    cancellation noise."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("choice", KERNELS)
    def test_one_state_one_particle_one_step(self, choice, threads):
        config = ExperimentConfig(
            model=one_state_model(), choice=choice, n=1, N=1, replicates=2, master_seed=4
        )
        records = replicate_experiment(config, threads=threads)
        assert [r.log_gamma_bar for r in records] == [0.0, 0.0]

    def test_equal_samples_fail_mean_and_variance_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = lognormal_check(np.zeros(KS_MIN_SAMPLES), 10 * DEGENERATE_V_TOL + 1.0, 10)
        assert not report.degenerate
        assert report.verdicts["mean"] == "fail"
        assert report.verdicts["variance"] == "fail"

    @pytest.mark.parametrize("model", [one_state_model, constant_potential_model])
    @pytest.mark.parametrize("choice", KERNELS)
    def test_fixed_n_without_variance_is_degenerate(self, model, choice):
        rows = fixed_n_clt_check(model(), choice, 5, [100], 5, seed=2)
        assert rows[0]["target_v_n"] <= DEGENERATE_V_TOL
        assert rows[0]["rel_error"] == 0.0
        assert fixed_n_verdict(rows) == "degenerate"

    def test_fixed_n_verdict_reads_the_last_row(self):
        def rows(target, rel_error):
            return [{"target_v_n": 1.0, "rel_error": 1.0}, {"target_v_n": target, "rel_error": rel_error}]

        assert fixed_n_verdict(rows(1.0, FIXED_N_REL_ERROR_MAX)) == "pass"
        assert fixed_n_verdict(rows(1.0, np.nextafter(FIXED_N_REL_ERROR_MAX, 1.0))) == "fail"
        assert fixed_n_verdict(rows(DEGENERATE_V_TOL, 1.0)) == "degenerate"
        assert fixed_n_verdict(rows(2 * DEGENERATE_V_TOL, 1.0)) == "fail"
