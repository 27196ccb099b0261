"""Command-line front end.

Subcommands: oracle, run, clt, fixed-n-clt, env-sigma2, qsd, hmm.

Exit codes: 0 success (all verdicts pass, or degenerate), 1 statistical
failure, 2 usage or numeric-range error, 3 model-file schema error,
4 missing or unreadable file, 5 invalid model values.

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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models as app_models
from . import oracle, randenv
from .core import FKError, InvalidModel, KernelChoice, Potential, ProbMeasure, StochasticKernel
from .core import homogeneous_model, total_variation
from .engine import derive_seed, run
from .harness import (
    CltReport,
    ExperimentConfig,
    fixed_n_clt_check,
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


@dataclass
class CliConfig:
    """Validated invocation: subcommand plus every parsed option."""

    subcommand: str
    model_kind: Optional[str] = None
    model: Optional[object] = None  # FKModel, HmmParams or EnvironmentChain
    eta0: Optional[ProbMeasure] = None
    n: Optional[int] = None
    N: Optional[int] = None
    N_list: Optional[tuple] = None
    reps: Optional[int] = None
    seed: int = 0
    kernel: KernelChoice = KernelChoice.MULTINOMIAL
    depth: Optional[int] = None
    horizon: Optional[int] = None
    out: Optional[str] = None
    report: Optional[str] = None
    threads: int = 1


def _fmt_float(x) -> str:
    return repr(float(x))


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


def _dump_json(obj) -> str:
    return json.dumps(_json_safe(obj), indent=2, sort_keys=True) + "\n"


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
        _write_atomic(path, text)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_model_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(EXIT_NO_FILE, f"cannot read model file {path!r}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_SCHEMA, f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(EXIT_SCHEMA, f"model file {path!r} must hold a JSON object")
    return obj


def _check_fields(obj: dict, required: tuple, optional: tuple, where: str) -> None:
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise CliError(EXIT_SCHEMA, f"unknown field {key!r} in {where}")
    for key in required:
        if key not in obj:
            raise CliError(EXIT_SCHEMA, f"missing field {key!r} in {where}")
    if obj.get("schema") != SCHEMA_VERSION:
        raise CliError(
            EXIT_SCHEMA, f"unsupported schema version {obj.get('schema')!r} in {where}"
        )


def _build_model(obj: dict, path: str) -> tuple:
    """Returns (kind, model object, optional eta0)."""
    kind = obj.get("kind")
    try:
        if kind == "homogeneous":
            _check_fields(obj, ("schema", "kind", "M", "G", "eta0"), (), path)
            model = homogeneous_model(
                StochasticKernel(np.asarray(obj["M"], dtype=float)),
                Potential(np.asarray(obj["G"], dtype=float)),
                ProbMeasure(np.asarray(obj["eta0"], dtype=float)),
            )
            return kind, model, model.eta0
        if kind == "hmm":
            _check_fields(obj, ("schema", "kind", "transition", "emission", "initial"), (), path)
            params = app_models.HmmParams(
                transition=StochasticKernel(np.asarray(obj["transition"], dtype=float)),
                emission=np.asarray(obj["emission"], dtype=float),
                initial=ProbMeasure(np.asarray(obj["initial"], dtype=float)),
            )
            return kind, params, None
        if kind == "environment":
            _check_fields(
                obj,
                ("schema", "kind", "env_transition", "env_stationary", "family"),
                ("eta0",),
                path,
            )
            family = []
            for i, entry in enumerate(obj["family"]):
                if not isinstance(entry, dict):
                    raise CliError(EXIT_SCHEMA, f"family entry {i} must be an object in {path}")
                for key in entry:
                    if key not in ("M", "G"):
                        raise CliError(
                            EXIT_SCHEMA, f"unknown field {key!r} in family entry {i} of {path}"
                        )
                for key in ("M", "G"):
                    if key not in entry:
                        raise CliError(
                            EXIT_SCHEMA, f"missing field {key!r} in family entry {i} of {path}"
                        )
                family.append(
                    (
                        StochasticKernel(np.asarray(entry["M"], dtype=float)),
                        Potential(np.asarray(entry["G"], dtype=float)),
                    )
                )
            chain = randenv.EnvironmentChain(
                transition=StochasticKernel(np.asarray(obj["env_transition"], dtype=float)),
                stationary=ProbMeasure(np.asarray(obj["env_stationary"], dtype=float)),
                family=tuple(family),
            )
            eta0 = (
                ProbMeasure(np.asarray(obj["eta0"], dtype=float)) if "eta0" in obj else None
            )
            return kind, chain, eta0
    except (InvalidModel, FKError) as exc:
        raise CliError(EXIT_MODEL, f"invalid model in {path!r}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_SCHEMA, f"malformed value in {path!r}: {exc}") from exc
    raise CliError(EXIT_SCHEMA, f"unknown field value kind={kind!r} in {path!r}")


def _require_range(condition: bool, message: str) -> None:
    if not condition:
        raise CliError(EXIT_RANGE, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkclt",
        description="Finite-state Feynman-Kac oracles, particle runs and CLT checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, *, needs_N=False, needs_reps=False):
        p.add_argument("--config", required=True, help="model JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--kernel", choices=["multinomial", "transport"], default="multinomial")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        if needs_N:
            p.add_argument("--N", dest="N", type=int, required=True, help="particle count")
        if needs_reps:
            p.add_argument("--reps", type=int, required=True, help="replicate count")

    p = sub.add_parser("oracle", help="exact solution and spectral report")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=None, help="series truncation depth")
    p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="single particle run")
    add_common(p, needs_N=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("clt", help="replicated runs plus lognormal-limit report")
    add_common(p, needs_N=True, needs_reps=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=40, help="environment truncation depth")
    p.add_argument("--horizon", type=int, default=10000, help="environment averaging horizon")
    p.add_argument("--out", default=None, help="samples CSV")
    p.add_argument("--report", default=None, help="report JSON")

    p = sub.add_parser("fixed-n-clt", help="fixed-horizon variance sweep over N")
    add_common(p, needs_reps=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", dest="N", required=True, help="comma-separated particle counts")
    p.add_argument("--report", default=None)

    p = sub.add_parser("env-sigma2", help="ergodic variance rate of an environment model")
    add_common(p)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--report", default=None)

    p = sub.add_parser("qsd", help="survival and quasi-stationary distance tables")
    add_common(p, needs_reps=True)
    p.add_argument("--n", type=int, required=True, help="largest horizon in the table")
    p.add_argument("--out", default=None)

    p = sub.add_parser("hmm", help="generate observations, dual likelihoods, particle check")
    add_common(p, needs_N=True, needs_reps=True)
    p.add_argument("--n", type=int, required=True, help="observation count")
    p.add_argument("--out", default=None, help="observations CSV")
    p.add_argument("--report", default=None)
    return parser


def parse_config(argv) -> CliConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = CliConfig(subcommand=args.subcommand)
    cfg.seed = args.seed
    cfg.kernel = KernelChoice.parse(args.kernel)
    cfg.threads = args.threads
    _require_range(cfg.threads >= 1, f"--threads must be >= 1, got {cfg.threads}")

    if args.subcommand == "fixed-n-clt":
        try:
            cfg.N_list = tuple(int(tok) for tok in str(args.N).split(","))
        except ValueError:
            raise CliError(EXIT_RANGE, f"--N must be a comma-separated integer list, got {args.N!r}")
        _require_range(all(N >= 100 for N in cfg.N_list), "--N entries must be >= 100")
    elif hasattr(args, "N"):
        cfg.N = args.N
        _require_range(cfg.N >= 1, f"--N must be >= 1, got {cfg.N}")

    if hasattr(args, "n"):
        cfg.n = args.n
        minimum = 0 if args.subcommand == "run" else 1
        _require_range(cfg.n >= minimum, f"--n must be >= {minimum}, got {cfg.n}")
    if hasattr(args, "reps"):
        cfg.reps = args.reps
        minimum = 100 if args.subcommand == "qsd" else 2
        _require_range(cfg.reps >= minimum, f"--reps must be >= {minimum}, got {cfg.reps}")
    if hasattr(args, "depth") and args.depth is not None:
        cfg.depth = args.depth
        _require_range(cfg.depth >= 1, f"--depth must be >= 1, got {cfg.depth}")
    if hasattr(args, "horizon"):
        cfg.horizon = args.horizon
        _require_range(cfg.horizon >= 100, f"--horizon must be >= 100, got {cfg.horizon}")
    cfg.out = getattr(args, "out", None)
    cfg.report = getattr(args, "report", None)

    cfg.model_kind, cfg.model, cfg.eta0 = _build_model(_load_model_file(args.config), args.config)
    allowed_kinds = {
        "oracle": ("homogeneous",),
        "run": ("homogeneous", "environment"),
        "clt": ("homogeneous", "environment"),
        "fixed-n-clt": ("homogeneous",),
        "env-sigma2": ("environment",),
        "qsd": ("homogeneous",),
        "hmm": ("hmm",),
    }[args.subcommand]
    if cfg.model_kind not in allowed_kinds:
        raise CliError(
            EXIT_SCHEMA,
            f"subcommand {args.subcommand!r} needs a model of kind "
            f"{' or '.join(allowed_kinds)}, got {cfg.model_kind!r}",
        )
    return cfg


def _csv_lines(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _env_path_model(cfg: CliConfig):
    """The configured environment chain along a path from the path lane."""
    path = randenv.sample_env_path(
        cfg.model, past=0, horizon=cfg.n + 1, seed=derive_seed(cfg.seed, _LANE_PATH)
    )
    return randenv.env_model(cfg.model, path, eta0=cfg.eta0)


def _materialize(cfg: CliConfig) -> tuple:
    """Resolve the configured model into (FKModel, v_n target, sigma2 or None)."""
    if cfg.model_kind == "homogeneous":
        model = cfg.model
        target = oracle.v_n(model, cfg.kernel, cfg.n)
        sigma2 = oracle.sigma2_homogeneous(model, cfg.kernel)
        return model, target, sigma2
    # Environment model: one path for the particle runs, an independent
    # stream for the ergodic variance average.
    model = _env_path_model(cfg)
    sigma2, _ = randenv.sigma2_env(
        cfg.model, cfg.kernel, cfg.horizon, cfg.depth, seed=derive_seed(cfg.seed, _LANE_SIGMA)
    )
    return model, cfg.n * sigma2, sigma2


def cmd_oracle(cfg: CliConfig) -> int:
    report = oracle.oracle_report(cfg.model, cfg.n, cfg.kernel, series_depth=cfg.depth)
    _emit(_dump_json(report), cfg.out)
    return EXIT_OK


def cmd_run(cfg: CliConfig) -> int:
    model = _env_path_model(cfg) if cfg.model_kind == "environment" else cfg.model
    exact = oracle.propagate(model, cfg.n).log_gammas[-1]
    record = run(model, cfg.N, cfg.n, cfg.kernel, cfg.seed, oracle_log_gamma=exact, replicate_id=0)
    header = "replicate_id,seed,n,N,kernel,log_gamma_N,log_gamma_bar"
    row = ",".join(
        [
            str(record.replicate_id),
            str(record.seed),
            str(record.n),
            str(record.N),
            record.kernel.value,
            _fmt_float(record.log_gamma_N),
            _fmt_float(record.log_gamma_bar),
        ]
    )
    _emit(_csv_lines(header, [row]), cfg.out)
    return EXIT_OK


def _clt_report_json(cfg: CliConfig, report: CltReport, sigma2) -> dict:
    return {
        "schema": SCHEMA_VERSION,
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


def cmd_clt(cfg: CliConfig) -> int:
    model, target, sigma2 = _materialize(cfg)
    config = ExperimentConfig(
        model=model, choice=cfg.kernel, n=cfg.n, N=cfg.N,
        replicates=cfg.reps, master_seed=cfg.seed,
    )
    records = replicate_experiment(config, threads=cfg.threads)
    samples = [r.log_gamma_bar for r in records]
    report = lognormal_check(samples, target, cfg.N)
    if cfg.out is not None:
        rows = [
            ",".join(
                [str(r.replicate_id), str(r.seed), _fmt_float(r.log_gamma_bar), _fmt_float(r.gamma_bar)]
            )
            for r in records
        ]
        _emit(_csv_lines("replicate_id,seed,log_gamma_bar,gamma_bar", rows), cfg.out)
    _emit(_dump_json(_clt_report_json(cfg, report, sigma2)), cfg.report)
    _log(f"clt verdicts: {report.verdicts}")
    return EXIT_OK if report.passed else EXIT_STAT_FAIL


def cmd_fixed_n_clt(cfg: CliConfig) -> int:
    rows = fixed_n_clt_check(
        cfg.model, cfg.kernel, cfg.n, cfg.N_list, cfg.reps, cfg.seed, threads=cfg.threads
    )
    passed = rows[-1]["rel_error"] <= 0.15
    report = {
        "schema": SCHEMA_VERSION,
        "n": cfg.n,
        "R": cfg.reps,
        "rows": rows,
        "verdicts": {"variance_at_largest_N": "pass" if passed else "fail"},
    }
    _emit(_dump_json(report), cfg.report)
    return EXIT_OK if passed else EXIT_STAT_FAIL


def cmd_env_sigma2(cfg: CliConfig) -> int:
    estimate, std_error = randenv.sigma2_env(
        cfg.model, cfg.kernel, cfg.horizon, cfg.depth, cfg.seed
    )
    report = {
        "schema": SCHEMA_VERSION,
        "kernel": cfg.kernel.value,
        "horizon": cfg.horizon,
        "depth": cfg.depth,
        "seed": cfg.seed,
        "sigma2": estimate,
        "std_error": std_error,
    }
    _emit(_dump_json(report), cfg.report)
    return EXIT_OK


def cmd_qsd(cfg: CliConfig) -> int:
    model = cfg.model
    step = model.step(0)
    try:
        absorption = app_models.AbsorptionModel(step.M, step.G, model.eta0)
    except InvalidModel as exc:
        raise CliError(EXIT_MODEL, str(exc)) from exc
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
        rows.append(
            ",".join(
                [
                    str(horizon),
                    _fmt_float(math.exp(sol.log_gammas[horizon])),
                    _fmt_float(estimate),
                    _fmt_float(std_error),
                    _fmt_float(tv),
                ]
            )
        )
    header = "n,survival_oracle,survival_mc,mc_std_error,yaglom_tv"
    _emit(_csv_lines(header, rows), cfg.out)
    return EXIT_OK


def cmd_hmm(cfg: CliConfig) -> int:
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
    records = replicate_experiment(config, oracle_log_gamma=recursion, threads=cfg.threads)
    z, unbiased_ok = unbiasedness_check([r.gamma_bar for r in records])
    agreement_ok = rel_diff <= 1e-12
    report = {
        "schema": SCHEMA_VERSION,
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


_DISPATCH = {
    "oracle": cmd_oracle,
    "run": cmd_run,
    "clt": cmd_clt,
    "fixed-n-clt": cmd_fixed_n_clt,
    "env-sigma2": cmd_env_sigma2,
    "qsd": cmd_qsd,
    "hmm": cmd_hmm,
}


def command_dispatch(cfg: CliConfig) -> int:
    return _DISPATCH[cfg.subcommand](cfg)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except SystemExit as exc:  # argparse usage errors exit with code 2
        return int(exc.code or 0)
    except CliError as exc:
        _log(f"error: {exc}")
        return exc.exit_code
    try:
        return command_dispatch(cfg)
    except CliError as exc:
        _log(f"error: {exc}")
        return exc.exit_code
    except FKError as exc:
        _log(f"model error: {exc}")
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
