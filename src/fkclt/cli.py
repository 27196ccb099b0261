"""Command-line front end.

Subcommands: oracle, run, clt, fixed-n-clt, env-sigma2, qsd, hmm.

Exit codes: 0 success (all verdicts pass, or degenerate), 1 statistical
failure, 2 usage or numeric-range error, 3 model-file schema error,
4 missing, unreadable or unwritable file, 5 invalid model values.

argparse checks every option range (e.g. ``clt --reps >= 35``, ``qsd --reps
>= 100``, ``fixed-n-clt`` and ``hmm --reps >= 2``) and exits 2 before the
model file is read.  Each subparser names its handler and the model kinds
it accepts.

Only the requested artifact is written to stdout or the output files;
everything else goes to stderr.  File writes are atomic (temp file plus
rename), CSV uses '.' decimals, LF line endings and a mandatory header.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from typing import Optional

import numpy as np

from . import models as app_models
from . import oracle, randenv
from .core import FKError, KernelChoice, Potential, ProbMeasure, StochasticKernel
from .core import homogeneous_model, total_variation
from .engine import derive_seed, run
from .harness import (
    KS_MIN_SAMPLES,
    CltReport,
    ExperimentConfig,
    fixed_n_clt_check,
    fixed_n_verdict,
    lognormal_check,
    replicate_experiment,
    unbiasedness_check,
)

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_RANGE = 2
EXIT_SCHEMA = 3
EXIT_NO_FILE = 4
EXIT_MODEL = 5

SCHEMA_VERSION = 1

# Seed-stream lanes, so auxiliary draws never collide with replicate streams
# (replicate indices occupy 0..R-1 under the master seed).
_LANE_PATH = 2**48 + 1
_LANE_SIGMA = 2**48 + 2
_LANE_OBS = 2**48 + 3


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _dump_json(report: dict) -> str:
    """A report as JSON, stamped with the schema version."""
    stamped = {**report, "schema": SCHEMA_VERSION}
    return json.dumps(_json_safe(stamped), indent=2, sort_keys=True) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """Write to a temp file beside ``path``, then rename it over ``path``.  The
    temp name is unique and created exclusively, and mode 0o666 lets the umask
    set the permissions as a plain ``open`` would."""
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            _write_atomic(path, text)
        except OSError as exc:
            raise CliError(EXIT_NO_FILE, f"cannot write {path!r}: {exc}") from exc


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_model_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(EXIT_NO_FILE, f"cannot read model file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_SCHEMA, f"model file {path!r} is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_SCHEMA, f"malformed JSON in {path!r}: {exc}") from exc
    except RecursionError as exc:
        raise CliError(EXIT_SCHEMA, f"model file {path!r} nests too deeply to parse") from exc
    if not isinstance(obj, dict):
        raise CliError(EXIT_SCHEMA, f"model file {path!r} must hold a JSON object")
    return obj


# Required and optional fields of each model kind, besides "schema" and "kind".
_MODEL_FIELDS = {
    "homogeneous": (("M", "G", "eta0"), ()),
    "hmm": (("transition", "emission", "initial"), ()),
    "environment": (("env_transition", "env_stationary", "family"), ("eta0",)),
}


def _check_fields(obj, required: tuple, optional: tuple, where: str) -> None:
    if not isinstance(obj, dict):
        raise CliError(EXIT_SCHEMA, f"{where} must be an object")
    for key in obj:
        if key not in required + optional:
            raise CliError(EXIT_SCHEMA, f"unknown field {key!r} in {where}")
    for key in required:
        if key not in obj:
            raise CliError(EXIT_SCHEMA, f"missing field {key!r} in {where}")


def _build_model(obj: dict, path: str) -> tuple:
    """Returns (kind, model object, optional eta0)."""
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_FIELDS:
        raise CliError(EXIT_SCHEMA, f"unknown field value kind={kind!r} in {path!r}")
    required, optional = _MODEL_FIELDS[kind]
    _check_fields(obj, ("schema", "kind", *required), optional, path)
    if type(obj["schema"]) is not int or obj["schema"] != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise CliError(EXIT_SCHEMA, f"unsupported schema version {obj['schema']!r} in {path}")

    try:
        if kind == "homogeneous":
            model = homogeneous_model(
                StochasticKernel(obj["M"]), Potential(obj["G"]), ProbMeasure(obj["eta0"])
            )
            return kind, model, model.eta0
        if kind == "hmm":
            params = app_models.HmmParams(
                transition=StochasticKernel(obj["transition"]),
                emission=obj["emission"],
                initial=ProbMeasure(obj["initial"]),
            )
            return kind, params, None
        family = []
        for i, entry in enumerate(obj["family"]):
            _check_fields(entry, ("M", "G"), (), f"family entry {i} of {path}")
            family.append((StochasticKernel(entry["M"]), Potential(entry["G"])))
        chain = randenv.EnvironmentChain(
            transition=StochasticKernel(obj["env_transition"]),
            stationary=ProbMeasure(obj["env_stationary"]),
            family=tuple(family),
        )
        eta0 = ProbMeasure(obj["eta0"]) if "eta0" in obj else None
        return kind, chain, eta0
    except FKError as exc:  # main prints it, as it prints every model error
        raise type(exc)(f"invalid model in {path!r}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_SCHEMA, f"malformed value in {path!r}: {exc}") from exc


def _at_least(minimum: int):
    """An argparse ``type``: an integer >= ``minimum``, else a usage error (exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkclt",
        description="Finite-state Feynman-Kac oracles, particle runs and CLT checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name, handler, kinds, help, *, needs_N=False, reps_min=None):
        """A subparser with the common options, accepting models of ``kinds``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, kinds=kinds)
        p.add_argument("--config", required=True, help="model JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--kernel", type=KernelChoice, default=KernelChoice.MULTINOMIAL,
                       metavar="{multinomial,transport}")
        p.add_argument("--threads", type=_at_least(1), default=os.cpu_count() or 1)
        if needs_N:
            p.add_argument("--N", type=_at_least(1), required=True, help="particle count")
        if reps_min is not None:
            p.add_argument("--reps", type=_at_least(reps_min), required=True,
                           help="replicate count")
        return p

    def particle_counts(text: str) -> tuple:
        return tuple(map(_at_least(100), text.split(",")))

    p = add_command("oracle", cmd_oracle, ("homogeneous",), "exact solution and spectral report")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--out", default=None)

    p = add_command("run", cmd_run, ("homogeneous", "environment"), "single particle run",
                    needs_N=True)
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--out", default=None)

    p = add_command("clt", cmd_clt, ("homogeneous", "environment"),
                    "replicated runs plus lognormal-limit report",
                    needs_N=True, reps_min=KS_MIN_SAMPLES)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--depth", type=_at_least(1), default=40, help="environment truncation depth")
    p.add_argument("--horizon", type=_at_least(100), default=10000,
                   help="environment averaging horizon")
    p.add_argument("--out", default=None, help="samples CSV")
    p.add_argument("--report", default=None, help="report JSON")

    p = add_command("fixed-n-clt", cmd_fixed_n_clt, ("homogeneous",),
                    "fixed-horizon variance sweep over N", reps_min=2)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--N", type=particle_counts, required=True,
                   help="comma-separated particle counts")
    p.add_argument("--report", default=None)

    p = add_command("env-sigma2", cmd_env_sigma2, ("environment",),
                    "ergodic variance rate of an environment model")
    p.add_argument("--horizon", type=_at_least(100), default=10000)
    p.add_argument("--depth", type=_at_least(1), default=40)
    p.add_argument("--report", default=None)

    p = add_command("qsd", cmd_qsd, ("homogeneous",),
                    "survival and quasi-stationary distance tables", reps_min=100)
    p.add_argument("--n", type=_at_least(1), required=True, help="largest horizon in the table")
    p.add_argument("--out", default=None)

    p = add_command("hmm", cmd_hmm, ("hmm",),
                    "generate observations, dual likelihoods, particle check",
                    needs_N=True, reps_min=2)
    p.add_argument("--n", type=_at_least(1), required=True, help="observation count")
    p.add_argument("--out", default=None, help="observations CSV")
    p.add_argument("--report", default=None)
    return parser


def parse_config(argv) -> argparse.Namespace:
    """Parsed options plus the loaded model as ``model_kind``, ``model`` and
    ``eta0``.  Option ranges are checked by the parser, before the file is read."""
    cfg = _build_parser().parse_args(argv)
    cfg.model_kind, cfg.model, cfg.eta0 = _build_model(_load_model_file(cfg.config), cfg.config)
    if cfg.model_kind not in cfg.kinds:
        raise CliError(
            EXIT_SCHEMA,
            f"subcommand {cfg.subcommand!r} needs a model of kind "
            f"{' or '.join(cfg.kinds)}, got {cfg.model_kind!r}",
        )
    return cfg


def _csv_lines(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _csv_row(*fields) -> str:
    """Floats as ``repr(float(x))``, everything else as ``str``."""
    return ",".join(
        repr(float(f)) if isinstance(f, (float, np.floating)) else str(f) for f in fields
    )


def _particle_model(cfg: argparse.Namespace):
    """The homogeneous model, or the environment chain along a path from the path lane."""
    if cfg.model_kind == "homogeneous":
        return cfg.model
    path = randenv.sample_env_path(
        cfg.model, past=0, horizon=cfg.n + 1, seed=derive_seed(cfg.seed, _LANE_PATH)
    )
    return randenv.env_model(cfg.model, path, eta0=cfg.eta0)


def _materialize(cfg: argparse.Namespace) -> tuple:
    """Resolve the configured model into (FKModel, v_n target, sigma2).  The
    target is the exact v_n of the model the replicates run on, for an
    environment model that of its sampled path (the quenched target); its
    sigma2 is the ergodic average, from an independent stream."""
    model = _particle_model(cfg)
    if cfg.model_kind == "homogeneous":
        sigma2 = oracle.sigma2_homogeneous(model, cfg.kernel)
    else:
        sigma2, _ = randenv.sigma2_env(
            cfg.model, cfg.kernel, cfg.horizon, cfg.depth, seed=derive_seed(cfg.seed, _LANE_SIGMA)
        )
    return model, oracle.v_n(model, cfg.kernel, cfg.n), sigma2


def cmd_oracle(cfg: argparse.Namespace) -> int:
    report = oracle.oracle_report(cfg.model, cfg.n, cfg.kernel)
    _emit(_dump_json(report), cfg.out)
    return EXIT_OK


def cmd_run(cfg: argparse.Namespace) -> int:
    model = _particle_model(cfg)
    exact = oracle.propagate(model, cfg.n).log_gammas[-1]
    record = run(model, cfg.N, cfg.n, cfg.kernel, cfg.seed, oracle_log_gamma=exact, replicate_id=0)
    header = "replicate_id,seed,n,N,kernel,log_gamma_N,log_gamma_bar"
    row = _csv_row(
        record.replicate_id, record.seed, cfg.n, cfg.N, cfg.kernel.value,
        record.log_gamma_N, record.log_gamma_bar,
    )
    _emit(_csv_lines(header, [row]), cfg.out)
    return EXIT_OK


def _clt_report_json(cfg: argparse.Namespace, report: CltReport, sigma2) -> dict:
    """The clt report.  An environment run adds ``quenched_ratio``, its
    path's v_n over n sigma2_env (None when sigma2_env is 0)."""
    out = {
        "n": cfg.n,
        "N": cfg.N,
        "alpha": cfg.n / cfg.N,
        "R": report.R,
        "v_n": report.v_n,
        "sigma2": sigma2,
        "mean": report.mean,
        "variance": report.variance,
        "z_mean": report.z_mean,
        "var_ratio": report.var_ratio,
        "ks_D": report.ks_D,
        "ks_p": report.ks_p,
        "unbiased_z": report.unbiased_z,
        "verdicts": report.verdicts,
    }
    if cfg.model_kind == "environment":
        out["quenched_ratio"] = report.v_n / (cfg.n * sigma2) if sigma2 > 0 else None
    return out


def cmd_clt(cfg: argparse.Namespace) -> int:
    model, target, sigma2 = _materialize(cfg)
    config = ExperimentConfig(
        model=model, choice=cfg.kernel, n=cfg.n, N=cfg.N,
        replicates=cfg.reps, master_seed=cfg.seed,
    )
    records = replicate_experiment(config, threads=cfg.threads)
    samples = [r.log_gamma_bar for r in records]
    report = lognormal_check(samples, target, cfg.N)
    if cfg.out is not None:
        rows = [_csv_row(r.replicate_id, r.seed, r.log_gamma_bar, r.gamma_bar) for r in records]
        _emit(_csv_lines("replicate_id,seed,log_gamma_bar,gamma_bar", rows), cfg.out)
    _emit(_dump_json(_clt_report_json(cfg, report, sigma2)), cfg.report)
    _log(f"clt verdicts: {report.verdicts}")
    return EXIT_OK if report.passed else EXIT_STAT_FAIL


def cmd_fixed_n_clt(cfg: argparse.Namespace) -> int:
    rows = fixed_n_clt_check(
        cfg.model, cfg.kernel, cfg.n, cfg.N, cfg.reps, cfg.seed, threads=cfg.threads
    )
    verdict = fixed_n_verdict(rows)
    report = {
        "n": cfg.n,
        "R": cfg.reps,
        "rows": rows,
        "verdicts": {"variance_at_largest_N": verdict},
    }
    _emit(_dump_json(report), cfg.report)
    return EXIT_STAT_FAIL if verdict == "fail" else EXIT_OK


def cmd_env_sigma2(cfg: argparse.Namespace) -> int:
    estimate, std_error = randenv.sigma2_env(
        cfg.model, cfg.kernel, cfg.horizon, cfg.depth, cfg.seed
    )
    report = {
        "kernel": cfg.kernel.value,
        "horizon": cfg.horizon,
        "depth": cfg.depth,
        "seed": cfg.seed,
        "sigma2": estimate,
        "std_error": std_error,
    }
    _emit(_dump_json(report), cfg.report)
    return EXIT_OK


def cmd_qsd(cfg: argparse.Namespace) -> int:
    model = cfg.model
    step = model.step(0)
    absorption = app_models.AbsorptionModel(step.M, step.G, model.eta0)
    sol = oracle.propagate(model, cfg.n)
    eta_inf = oracle.fixed_point_eta_inf(model)
    survival = app_models.survival_mc_table(
        absorption, cfg.n, cfg.reps, derive_seed(cfg.seed, _LANE_OBS)
    )
    rows = []
    for horizon in range(1, cfg.n + 1):
        estimate = float(survival[horizon])
        std_error = math.sqrt(estimate * (1.0 - estimate) / cfg.reps)
        tv = total_variation(sol.etas[horizon], eta_inf)
        survival_oracle = math.exp(sol.log_gammas[horizon])
        rows.append(_csv_row(horizon, survival_oracle, estimate, std_error, tv))
    header = "n,survival_oracle,survival_mc,mc_std_error,yaglom_tv"
    _emit(_csv_lines(header, rows), cfg.out)
    return EXIT_OK


def cmd_hmm(cfg: argparse.Namespace) -> int:
    params = cfg.model
    _, observations = app_models.hmm_generate(params, cfg.n, derive_seed(cfg.seed, _LANE_OBS))
    fk = app_models.hmm_build(params, observations)
    forward = app_models.forward_likelihood(params, observations)
    recursion = oracle.propagate(fk, cfg.n).log_gammas[-1]
    rel_diff = abs(forward - recursion) / max(1.0, abs(forward))
    config = ExperimentConfig(
        model=fk, choice=cfg.kernel, n=cfg.n, N=cfg.N,
        replicates=cfg.reps, master_seed=cfg.seed,
    )
    records = replicate_experiment(config, threads=cfg.threads)
    z, unbiased_ok = unbiasedness_check([r.gamma_bar for r in records])
    agreement_ok = rel_diff <= 1e-12
    report = {
        "n": cfg.n,
        "N": cfg.N,
        "R": cfg.reps,
        "log_likelihood_forward": forward,
        "log_likelihood_recursion": recursion,
        "rel_diff": rel_diff,
        "unbiased_z": z,
        "verdicts": {
            "agreement": "pass" if agreement_ok else "fail",
            "unbiasedness": "pass" if unbiased_ok else "fail",
        },
    }
    if cfg.out is not None:
        obs_rows = [str(int(y)) for y in observations]
        _emit(_csv_lines("observation", obs_rows), cfg.out)
    _emit(_dump_json(report), cfg.report)
    return EXIT_OK if agreement_ok and unbiased_ok else EXIT_STAT_FAIL


def command_dispatch(cfg: argparse.Namespace) -> int:
    return cfg.handler(cfg)


def main(argv=None) -> int:
    try:
        return command_dispatch(parse_config(argv))
    except SystemExit as exc:  # argparse usage errors exit with code 2
        return int(exc.code or 0)
    except CliError as exc:
        _log(f"error: {exc}")
        return exc.exit_code
    except FKError as exc:
        _log(f"model error: {exc}")
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
