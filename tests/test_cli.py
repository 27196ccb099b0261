from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import fkclt
from fkclt import cli
from fkclt.cli import _LANE_OBS, _LANE_PATH, main
from fkclt.engine import derive_seed
from fkclt.models import AbsorptionModel, survival_mc_oracle


TWO_STATE = {
    "schema": 1,
    "kind": "homogeneous",
    "M": [[0.7, 0.3], [0.4, 0.6]],
    "G": [0.5, 0.9],
    "eta0": [0.5, 0.5],
}

CONSTANT_G = {
    "schema": 1,
    "kind": "homogeneous",
    "M": [[0.7, 0.3], [0.4, 0.6]],
    "G": [0.4, 0.4],
    "eta0": [0.5, 0.5],
}

ENVIRONMENT = {
    "schema": 1,
    "kind": "environment",
    "env_transition": [[0.7, 0.3], [0.3, 0.7]],
    "env_stationary": [0.5, 0.5],
    "family": [
        {"M": [[0.7, 0.3], [0.4, 0.6]], "G": [0.5, 0.9]},
        {"M": [[0.7, 0.3], [0.4, 0.6]], "G": [0.7, 0.6]},
    ],
}

# Slow mixing and a potential ratio of 100: the fitted contraction bound
# exp(a_hat (g - 1) / (1 - exp(-lambda_hat))) lies beyond the float range.
SLOW_MIXING = {
    "schema": 1,
    "kind": "homogeneous",
    "M": [[0.99, 0.01], [0.01, 0.99]],
    "G": [0.01, 1.0],
    "eta0": [0.5, 0.5],
}

# One state: every particle estimate is exact, so every variance is 0.
ONE_STATE = {
    "schema": 1,
    "kind": "homogeneous",
    "M": [[1.0]],
    "G": [0.6],
    "eta0": [1.0],
}

HMM = {
    "schema": 1,
    "kind": "hmm",
    "transition": [[0.7, 0.3], [0.4, 0.6]],
    "emission": [[0.8, 0.2], [0.3, 0.7]],
    "initial": [0.5, 0.5],
}


# Every numeric option of each subcommand: (a valid value, a value just below
# its minimum).
PARSE_OPTIONS = {
    "oracle": {"--n": ("2", "0"), "--depth": ("5", "0"), "--threads": ("1", "0")},
    "run": {"--n": ("0", "-1"), "--N": ("8", "0"), "--threads": ("1", "0")},
    "clt": {
        "--n": ("4", "0"), "--N": ("8", "0"), "--reps": ("35", "34"),
        "--depth": ("1", "0"), "--horizon": ("100", "99"), "--threads": ("1", "0"),
    },
    "fixed-n-clt": {
        "--n": ("4", "0"), "--N": ("100,400", "100,99"), "--reps": ("2", "1"),
        "--threads": ("1", "0"),
    },
    "env-sigma2": {"--horizon": ("100", "99"), "--depth": ("1", "0"), "--threads": ("1", "0")},
    "qsd": {"--n": ("1", "0"), "--reps": ("100", "99"), "--threads": ("1", "0")},
    "hmm": {"--n": ("1", "0"), "--N": ("1", "0"), "--reps": ("2", "1"), "--threads": ("1", "0")},
}


@pytest.fixture
def model_file(tmp_path):
    def write(obj, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


class TestParseErrors:
    def test_range_error_exit_2(self, model_file):
        cfg = model_file(TWO_STATE)
        assert main(["clt", "--config", cfg, "--n", "4", "--N", "0", "--reps", "50"]) == 2
        assert main(["clt", "--config", cfg, "--n", "0", "--N", "8", "--reps", "50"]) == 2
        assert main(["clt", "--config", cfg, "--n", "4", "--N", "8", "--reps", "1"]) == 2
        # The KS check needs 35 samples, so fewer replicates is a usage error.
        assert main(["clt", "--config", cfg, "--n", "4", "--N", "8", "--reps", "34"]) == 2
        assert main(["env-sigma2", "--config", cfg, "--horizon", "50"]) == 2

    def test_usage_error_exit_2(self, model_file):
        cfg = model_file(TWO_STATE)
        assert main(["oracle", "--config", cfg, "--n", "2", "--kernel", "bogus"]) == 2
        assert main(["oracle", "--config", cfg, "--n", "2", "--kernel", "MULTINOMIAL"]) == 2
        assert main(["no-such-command"]) == 2

    @pytest.mark.parametrize(
        "subcommand,option",
        [(sub, option) for sub, options in PARSE_OPTIONS.items() for option in options],
    )
    def test_range_checked_before_file_is_read(self, tmp_path, subcommand, option):
        missing = str(tmp_path / "missing.json")

        def argv(bad_option):
            args = [subcommand, "--config", missing]
            for name, (valid, below) in PARSE_OPTIONS[subcommand].items():
                args += [name, below if name == bad_option else valid]
            return args

        # Valid options reach the file and fail there (4); one value below
        # its minimum fails at parse time (2), before the file is opened.
        assert main(argv(None)) == 4
        assert main(argv(option)) == 2

    def test_unknown_field_exit_3_and_named(self, model_file, capsys):
        cfg = model_file({**TWO_STATE, "sigma": 3})
        assert main(["oracle", "--config", cfg, "--n", "2"]) == 3
        assert "sigma" in capsys.readouterr().err

    def test_missing_field_exit_3(self, model_file):
        broken = {k: v for k, v in TWO_STATE.items() if k != "G"}
        cfg = model_file(broken)
        assert main(["oracle", "--config", cfg, "--n", "2"]) == 3

    @pytest.mark.parametrize(
        "family, named",
        [
            ([[0.5, 0.9]], "must be an object"),
            ([{"M": [[1.0]], "G": [0.5], "H": 1}], "'H'"),
            ([{"M": [[1.0]]}], "'G'"),
        ],
    )
    def test_bad_family_entry_exit_3(self, model_file, capsys, family, named):
        cfg = model_file({**ENVIRONMENT, "family": family}, "env.json")
        assert main(["env-sigma2", "--config", cfg]) == 3
        assert named in capsys.readouterr().err

    def test_non_string_kind_exit_3(self, model_file):
        cfg = model_file({**TWO_STATE, "kind": ["homogeneous"]})
        assert main(["oracle", "--config", cfg, "--n", "2"]) == 3

    def test_wrong_schema_version_exit_3(self, model_file):
        cfg = model_file({**TWO_STATE, "schema": 2})
        assert main(["oracle", "--config", cfg, "--n", "2"]) == 3

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_schema_version_must_be_the_integer_1(self, model_file, capsys, version):
        cfg = model_file({**TWO_STATE, "schema": version})
        assert main(["oracle", "--config", cfg, "--n", "2"]) == 3
        assert "unsupported schema version" in capsys.readouterr().err

    def test_non_utf8_model_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps({**TWO_STATE, "kind": "homog\u00e9neous"}, ensure_ascii=False)
                         .encode("latin-1"))
        assert main(["oracle", "--config", str(path), "--n", "2"]) == 3
        assert "is not UTF-8" in capsys.readouterr().err

    def test_malformed_json_exit_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json at all")
        assert main(["oracle", "--config", str(path), "--n", "2"]) == 3

    def test_deeply_nested_json_exit_3(self, tmp_path, capsys):
        # The JSON parser gives up on this nesting with a RecursionError.
        path = tmp_path / "deep.json"
        path.write_text('{"schema": 1, "kind": "homogeneous", "M": ' + "[" * 200_000)
        assert main(["oracle", "--config", str(path), "--n", "2"]) == 3
        err = capsys.readouterr().err
        assert "nests too deeply" in err and "Traceback" not in err

    def test_missing_file_exit_4(self, tmp_path):
        assert main(["oracle", "--config", str(tmp_path / "nope.json"), "--n", "2"]) == 4

    def test_invalid_model_values_exit_5(self, model_file, capsys):
        # A bad value in the file prints as every model error does, naming
        # the file.
        cfg = model_file({**TWO_STATE, "M": [[0.7, 0.4], [0.4, 0.6]]})
        assert main(["oracle", "--config", cfg, "--n", "2"]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"model error: invalid model in {cfg!r}: kernel row sums")
        assert err.count("\n") == 1

    def test_underflowing_potentials_exit_5(self, model_file, capsys):
        # Every potential mean of this model rounds to 0: a model error
        # raised after the file was read, under the same prefix.
        cfg = model_file({**TWO_STATE, "G": [5e-324, 5e-324]})
        assert main(["oracle", "--config", cfg, "--n", "3"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("model error: potential mean vanished at step 0")
        assert err.count("\n") == 1

    def test_kind_mismatch_exit_3(self, model_file):
        cfg = model_file(TWO_STATE)
        assert main(["hmm", "--config", cfg, "--n", "5", "--N", "10", "--reps", "5"]) == 3
        env = model_file(ENVIRONMENT, "env.json")
        assert main(["oracle", "--config", env, "--n", "2"]) == 3


class TestOracleCommand:
    def test_report_content(self, model_file, capsys):
        cfg = model_file(TWO_STATE)
        assert main(["oracle", "--config", cfg, "--n", "4"]) == 0
        out = capsys.readouterr()
        report = json.loads(out.out)
        assert abs(report["sigma2"] - 0.158610) <= 1e-5
        assert abs(math.exp(report["log_gammas"][2]) - 0.488) <= 1e-12
        assert report["schema"] == 1
        assert len(report["v_n_table"]) == 4
        assert report["lambda_hat"] > 0

    def test_unbounded_contraction_bound_is_inf(self, model_file, capsys):
        cfg = model_file(SLOW_MIXING)
        assert main(["oracle", "--config", cfg, "--n", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["b_bound"] == "inf"
        assert report["g"] == 100.0

    def test_subnormal_potential_report(self, model_file, capsys):
        # The potential ratio lies beyond the float range: the profile
        # reports it as inf and its coefficients stay finite.
        cfg = model_file({**TWO_STATE, "G": [5e-324, 1.0]})
        assert main(["oracle", "--config", cfg, "--n", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(isinstance(b, float) and math.isfinite(b) for b in report["beta_profile"])
        assert report["g"] == "inf"

    def test_writes_file_and_keeps_stdout_clean(self, model_file, tmp_path, capsys):
        cfg = model_file(TWO_STATE)
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--config", cfg, "--n", "3", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        report = json.loads(out.read_text())
        assert report["n"] == 3
        assert not (tmp_path / "oracle.json.tmp").exists()


class TestRunCommand:
    def test_csv_row(self, model_file, capsys):
        cfg = model_file(TWO_STATE)
        assert main(["run", "--config", cfg, "--n", "6", "--N", "16", "--seed", "9"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "replicate_id,seed,n,N,kernel,log_gamma_N,log_gamma_bar"
        fields = lines[1].split(",")
        assert fields[:5] == ["0", "9", "6", "16", "multinomial"]
        float(fields[5]), float(fields[6])


class TestCltCommand:
    def test_degenerate_model_exit_0(self, model_file, tmp_path):
        cfg = model_file(CONSTANT_G)
        report = tmp_path / "rep.json"
        code = main(
            ["clt", "--config", cfg, "--n", "8", "--N", "32", "--reps", "40",
             "--seed", "3", "--report", str(report)]
        )
        assert code == 0
        verdicts = json.loads(report.read_text())["verdicts"]
        assert set(verdicts.values()) == {"degenerate"}

    def test_byte_identical_reruns_and_threads(self, model_file, tmp_path):
        cfg = model_file(TWO_STATE)
        outputs = []
        codes = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"samples_{tag}.csv"
            rep = tmp_path / f"report_{tag}.json"
            codes.append(
                main(
                    ["clt", "--config", cfg, "--n", "8", "--N", "32", "--reps", "60",
                     "--seed", "11", "--threads", threads,
                     "--out", str(out), "--report", str(rep)]
                )
            )
            outputs.append((out.read_bytes(), rep.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert codes[0] == codes[1] == codes[2]

    def test_samples_csv_shape(self, model_file, tmp_path):
        cfg = model_file(TWO_STATE)
        out = tmp_path / "samples.csv"
        main(
            ["clt", "--config", cfg, "--n", "6", "--N", "24", "--reps", "40",
             "--seed", "2", "--out", str(out), "--report", str(tmp_path / "r.json")]
        )
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["alpha"] == 6 / 24
        lines = out.read_text().split("\n")
        assert lines[0] == "replicate_id,seed,log_gamma_bar,gamma_bar"
        assert len(lines) == 42  # header + 40 rows + trailing newline
        first = lines[1].split(",")
        assert first[0] == "0"
        assert abs(math.exp(float(first[2])) - float(first[3])) <= 1e-12

    def test_environment_model_clt(self, model_file, tmp_path, env_chain):
        # The target is the exact v_n of the path the replicates run on (the
        # quenched target); sigma2 stays the ergodic average.
        cfg = model_file(ENVIRONMENT, "env.json")
        rep = tmp_path / "rep.json"
        code = main(
            ["clt", "--config", cfg, "--n", "8", "--N", "64", "--reps", "60",
             "--seed", "21", "--depth", "30", "--horizon", "400",
             "--report", str(rep)]
        )
        assert code in (0, 1)
        report = json.loads(rep.read_text())
        assert report["sigma2"] > 0
        path = fkclt.sample_env_path(env_chain, 0, 9, seed=derive_seed(21, _LANE_PATH))
        model = fkclt.env_model(env_chain, path)
        assert report["v_n"] == fkclt.v_n(model, fkclt.KernelChoice.MULTINOMIAL, 8)

    def test_environment_report_states_the_quenched_ratio(self, tmp_path):
        # The shipped environment: v_n of the sampled path against the
        # environment average n sigma2_env, next to both.
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        cfg = os.path.join(root, "configs", "env_two_state.json")
        rep = tmp_path / "rep.json"
        code = main(
            ["clt", "--config", cfg, "--n", "16", "--N", "64", "--reps", "40",
             "--seed", "5", "--depth", "30", "--horizon", "400", "--report", str(rep)]
        )
        assert code in (0, 1)
        report = json.loads(rep.read_text())
        assert report["quenched_ratio"] == report["v_n"] / (16 * report["sigma2"])
        assert 0.2 < report["quenched_ratio"] < 5.0


# One small run of every subcommand that writes a JSON report: its model and
# its options, the last of which names the report file.
REPORT_RUNS = {
    "oracle": (TWO_STATE, ["--n", "2", "--out"]),
    "clt": (TWO_STATE, ["--n", "2", "--N", "8", "--reps", "35", "--report"]),
    "fixed-n-clt": (TWO_STATE, ["--n", "2", "--N", "100,200", "--reps", "2", "--report"]),
    "env-sigma2": (ENVIRONMENT, ["--horizon", "100", "--depth", "5", "--report"]),
    "hmm": (HMM, ["--n", "5", "--N", "10", "--reps", "2", "--report"]),
}


@pytest.mark.parametrize("command", REPORT_RUNS)
def test_every_report_carries_the_schema_version(model_file, tmp_path, command):
    model, options = REPORT_RUNS[command]
    rep = tmp_path / "report.json"
    code = main([command, "--config", model_file(model), "--threads", "1", *options, str(rep)])
    assert code in (0, 1)
    assert json.loads(rep.read_text())["schema"] == 1


class TestOtherCommands:
    def test_qsd_table(self, model_file, capsys):
        cfg = model_file(TWO_STATE)
        assert main(["qsd", "--config", cfg, "--n", "4", "--reps", "5000", "--seed", "6"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,survival_oracle,survival_mc,mc_std_error,yaglom_tv"
        assert len(lines) == 5
        row2 = lines[2].split(",")
        assert abs(float(row2[1]) - 0.488) <= 1e-12

    def test_qsd_rows_are_the_survival_oracle(self, model_file, capsys, two_state):
        cfg = model_file(TWO_STATE)
        assert main(["qsd", "--config", cfg, "--n", "4", "--reps", "5000", "--seed", "6"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        step = two_state.step(0)
        am = AbsorptionModel(step.M, step.G, two_state.eta0)
        for n, row in enumerate(rows, start=1):
            est, se = survival_mc_oracle(am, n, 5000, derive_seed(6, _LANE_OBS))
            assert (row[2], row[3]) == (repr(est), repr(se))

    def test_qsd_needs_100_reps_at_parse_time(self, model_file):
        # Exit 2 even for an unkillable model: the bound is checked before
        # the model is.
        cfg = model_file({**TWO_STATE, "G": [0.5, 1.2]})
        assert main(["qsd", "--config", cfg, "--n", "3", "--reps", "99"]) == 2

    def test_qsd_rejects_unkillable_model(self, model_file, capsys):
        cfg = model_file({**TWO_STATE, "G": [0.5, 1.2]})
        assert main(["qsd", "--config", cfg, "--n", "3", "--reps", "1000"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("model error: ")
        assert "1.2" in err
        assert "np.float64" not in err

    def test_env_sigma2_report(self, model_file, capsys):
        cfg = model_file(ENVIRONMENT, "env.json")
        code = main(
            ["env-sigma2", "--config", cfg, "--horizon", "200", "--depth", "25", "--seed", "4"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sigma2"] > 0
        assert report["std_error"] >= 0

    def test_env_sigma2_benchmark_estimate(self, capsys):
        # The benchmark's env-sigma2 run (horizon 10^4, depth 40) against the
        # values it stores for its default seed.
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "perfbench", "reference.json")) as fh:
            stored = json.load(fh)["env_sigma2"]
        code = main(
            ["env-sigma2", "--config", os.path.join(root, "configs", "env_two_state.json"),
             "--horizon", "10000", "--depth", "40", "--seed", str(stored["seed"])]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sigma2"] == pytest.approx(stored["sigma2"], rel=1e-12, abs=0)
        assert report["std_error"] == pytest.approx(stored["std_error"], rel=1e-12, abs=0)

    def test_oracle_benchmark_report(self, capsys):
        # The benchmark's oracle run (n = 200): v_n_table against the values
        # perfbench stores, the flow and the log normalizing constants
        # against a plain forward recursion.
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "perfbench", "reference.json")) as fh:
            stored = json.load(fh)["v_n_table"]
        code = main(["oracle", "--config", os.path.join(root, "configs", "two_state.json"),
                     "--n", "200"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["v_n_table"] == pytest.approx(stored[:200], rel=1e-12, abs=0)
        M = [[0.7, 0.3], [0.4, 0.6]]
        G = [0.5, 0.9]
        eta, log_gamma = [0.5, 0.5], 0.0
        for p in range(201):
            assert report["etas"][p] == pytest.approx(eta, rel=1e-12, abs=0)
            assert report["log_gammas"][p] == pytest.approx(log_gamma, rel=1e-12, abs=0)
            w = [eta[x] * G[x] for x in range(2)]
            log_gamma += math.log(sum(w))
            eta = [sum(w[x] * M[x][y] for x in range(2)) / sum(w) for y in range(2)]

    def test_hmm_end_to_end(self, model_file, tmp_path):
        cfg = model_file(HMM, "hmm.json")
        obs = tmp_path / "obs.csv"
        rep = tmp_path / "rep.json"
        code = main(
            ["hmm", "--config", cfg, "--n", "60", "--N", "300", "--reps", "50",
             "--seed", "7", "--out", str(obs), "--report", str(rep)]
        )
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["verdicts"]["agreement"] == "pass"
        assert report["rel_diff"] <= 1e-12
        lines = obs.read_text().strip().split("\n")
        assert lines[0] == "observation"
        assert len(lines) == 61
        assert all(line in ("0", "1") for line in lines[1:])

    def test_fixed_n_clt_report(self, model_file, tmp_path):
        cfg = model_file(TWO_STATE)
        rep = tmp_path / "rep.json"
        code = main(
            ["fixed-n-clt", "--config", cfg, "--n", "4", "--N", "100,400",
             "--reps", "400", "--seed", "8", "--report", str(rep)]
        )
        report = json.loads(rep.read_text())
        assert [row["N"] for row in report["rows"]] == [100, 400]
        assert code == (0 if report["verdicts"]["variance_at_largest_N"] == "pass" else 1)

    def test_fixed_n_clt_rejects_bad_list(self, model_file):
        cfg = model_file(TWO_STATE)
        assert main(
            ["fixed-n-clt", "--config", cfg, "--n", "4", "--N", "100,x", "--reps", "400"]
        ) == 2
        assert main(
            ["fixed-n-clt", "--config", cfg, "--n", "4", "--N", "100,50", "--reps", "400"]
        ) == 2


class TestEdgeSizes:
    """No steps, one particle and one state: each run exits 0 with an
    artifact of the usual shape."""

    def test_run_with_no_steps_and_one_particle(self, model_file, capsys):
        cfg = model_file(TWO_STATE)
        assert main(["run", "--config", cfg, "--n", "0", "--N", "1", "--seed", "4"]) == 0
        assert capsys.readouterr().out == (
            "replicate_id,seed,n,N,kernel,log_gamma_N,log_gamma_bar\n"
            "0,4,0,1,multinomial,0.0,0.0\n"
        )

    @pytest.mark.parametrize("kernel", ["multinomial", "transport"])
    def test_clt_on_one_state_is_degenerate(self, model_file, tmp_path, kernel):
        cfg = model_file(ONE_STATE)
        out, rep = tmp_path / "samples.csv", tmp_path / "rep.json"
        code = main(
            ["clt", "--config", cfg, "--n", "4", "--N", "8", "--reps", "40", "--seed", "3",
             "--kernel", kernel, "--out", str(out), "--report", str(rep)]
        )
        assert code == 0
        report = json.loads(rep.read_text())
        assert set(report) == {
            "N", "R", "alpha", "ks_D", "ks_p", "mean", "n", "schema", "sigma2",
            "unbiased_z", "v_n", "var_ratio", "variance", "verdicts", "z_mean",
        }
        assert report["verdicts"] == dict.fromkeys(
            ("ks", "mean", "unbiasedness", "variance"), "degenerate"
        )
        assert (report["R"], report["sigma2"], report["v_n"], report["variance"]) == (40, 0, 0, 0)
        lines = out.read_text().split("\n")
        assert lines[0] == "replicate_id,seed,log_gamma_bar,gamma_bar"
        assert len(lines) == 42  # header + 40 rows + trailing newline
        assert all(line.split(",")[2:] == ["0.0", "1.0"] for line in lines[1:-1])

    def test_oracle_on_one_state(self, model_file, capsys):
        cfg = model_file(ONE_STATE)
        assert main(["oracle", "--config", cfg, "--n", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["etas"] == [[1.0]] * 4
        assert report["potential_means"] == [0.6] * 3
        assert report["log_gammas"] == pytest.approx([k * math.log(0.6) for k in range(4)])
        assert (report["h"], report["eta_inf"], report["qbar_limit"]) == ([1.0], [1.0], [1.0])
        assert (report["zeta"], report["sigma2"], report["v_n_table"]) == (0.6, 0.0, [0.0] * 3)
        assert report["lambda_hat"] == "inf"
        assert len(report["beta_profile"]) == len(report["g_profile"]) == 30

    def test_qsd_on_one_state(self, model_file, capsys):
        cfg = model_file(ONE_STATE)
        assert main(["qsd", "--config", cfg, "--n", "3", "--reps", "200", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,survival_oracle,survival_mc,mc_std_error,yaglom_tv"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert [float(row[1]) for row in rows] == pytest.approx([0.6, 0.36, 0.216])
        assert all(float(row[4]) == 0.0 for row in rows)  # one state: the Yaglom law is exact

    def test_fixed_n_clt_on_one_state(self, model_file, tmp_path):
        cfg = model_file(ONE_STATE)
        rep = tmp_path / "rep.json"
        code = main(
            ["fixed-n-clt", "--config", cfg, "--n", "3", "--N", "100,200", "--reps", "5",
             "--seed", "2", "--report", str(rep)]
        )
        assert code == 0
        report = json.loads(rep.read_text())
        assert set(report) == {"R", "n", "rows", "schema", "verdicts"}
        assert [row["N"] for row in report["rows"]] == [100, 200]
        for row in report["rows"]:
            assert set(row) == {"N", "ci_high", "ci_low", "rel_error", "target_v_n", "variance"}
            assert (row["target_v_n"], row["variance"]) == (0.0, 0.0)
        assert report["verdicts"] == {"variance_at_largest_N": "degenerate"}

    @pytest.mark.parametrize("kernel", ["multinomial", "transport"])
    @pytest.mark.parametrize(
        "model", [ONE_STATE, {**CONSTANT_G, "G": [0.3, 0.3]}], ids=["one-state", "constant-G"]
    )
    def test_fixed_n_clt_without_variance_is_degenerate(self, model_file, tmp_path, model, kernel):
        # v_n is 0, or cancellation noise of order 1e-16, so there is no
        # relative error to judge.
        rep = tmp_path / "rep.json"
        code = main(
            ["fixed-n-clt", "--config", model_file(model), "--n", "5", "--N", "100",
             "--reps", "5", "--seed", "2", "--kernel", kernel, "--report", str(rep)]
        )
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["verdicts"] == {"variance_at_largest_N": "degenerate"}
        assert report["rows"][0]["rel_error"] == 0.0


def test_no_stray_temp_files(model_file, tmp_path):
    cfg = model_file(TWO_STATE)
    out = tmp_path / "r.json"
    main(["oracle", "--config", cfg, "--n", "2", "--out", str(out)])
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


@pytest.mark.parametrize("target", ["no/such/dir/r.json", "a_directory"])
def test_unwritable_output_exit_4(model_file, tmp_path, capsys, target):
    cfg = model_file(TWO_STATE)
    (tmp_path / "a_directory").mkdir()
    assert main(["oracle", "--config", cfg, "--n", "3", "--out", str(tmp_path / target)]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert "cannot write" in out.err
    assert sorted(os.listdir(tmp_path)) == ["a_directory", "model.json"]
    assert os.listdir(tmp_path / "a_directory") == []


def test_failed_write_keeps_target_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "r.json"
    target.write_text("old\n")

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        cli._write_atomic(str(target), "new\n")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["r.json"]


def test_written_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        cli._write_atomic(str(tmp_path / "r.json"), "x\n")
    finally:
        os.umask(old)
    assert (tmp_path / "r.json").stat().st_mode & 0o777 == 0o640


def test_module_entry_point():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    src = os.path.join(root, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fkclt", "oracle", "--config", "configs/two_state.json", "--n", "3"],
        cwd=root, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 3


def test_benchmark_traced_names_exist():
    # The benchmark's tracer wraps these names; a missing one breaks its
    # traced runs.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, names in tracing.TRACED.items():
        module = getattr(fkclt, module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_benchmark_selftest_passes():
    # The benchmark's self-tests pin the traced engine and harness work
    # (step and run counts, spans gathered from pool workers, restored
    # bindings), so a change to either can break them.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
