"""Output checks for the benchmark's commands.

A command fails when it raises, returns another exit code than the one
pinned for it, or writes an artifact that a check rejects.

- At the default workload seed the particle artifacts (clt samples and
  reports, the fixed-n-clt report, the qsd table) must match the SHA-256
  digests in reference.json byte for byte.
- At every seed the exact quantities are checked against references that
  share no code with fkclt: the two-state spectral pair and variance rates
  by an eigendecomposition, the measure flow and log normalizing constants
  by a plain forward recursion, and the environment variance rate by a
  recomputation vectorized over positions.  The `v_n` values and the
  default-seed `env-sigma2` estimate are compared with values stored in
  reference.json.
- Statistics in the reports are recomputed from the samples, and the exit
  code must agree with the verdicts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

STORED_RTOL = 1e-12  # against values stored from the pinned commit
# Against independent recomputations; observed agreement is about 1e-13, and
# a value off by 1e-9 relative must still be rejected.
INDEPENDENT_RTOL = 1e-11
STAT_ATOL = 1e-9  # recomputed statistics, relative to max(1, |value|)

# Verdict thresholds of the fkclt harness, restated to check the verdicts.
MEAN_Z_MAX = 3.0
VAR_RATIO_WINDOW = (0.85, 1.15)
KS_P_MIN = 0.01
UNBIASED_Z_MAX = 3.0
FIXED_N_REL_ERROR_MAX = 0.15

_MASK64 = 0xFFFFFFFFFFFFFFFF


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replicate_seed(master: int, index: int) -> int:
    """SplitMix64 finalizer of master + (index + 1) * golden gamma."""
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _stochastic(rows) -> np.ndarray:
    r = np.clip(np.asarray(rows, dtype=float), 0.0, None)
    return r / r.sum(axis=-1, keepdims=True)


def read_homogeneous(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return {"M": _stochastic(obj["M"]), "G": np.asarray(obj["G"], dtype=float),
            "eta0": _stochastic(obj["eta0"])}


def read_environment(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    d = len(obj["family"][0]["G"])
    return {
        "P": _stochastic(obj["env_transition"]),
        "pi": _stochastic(obj["env_stationary"]),
        "M": np.stack([_stochastic(e["M"]) for e in obj["family"]]),
        "G": np.stack([np.asarray(e["G"], dtype=float) for e in obj["family"]]),
        "eta0": _stochastic(obj["eta0"]) if "eta0" in obj else np.full(d, 1.0 / d),
    }


def forward_flow(eta0, G, M, n: int) -> tuple:
    """Measure flow, log normalizing constants and potential means by the
    unnormalized recursion gamma_{p+1} = (gamma_p G) M, renormalized each step."""
    etas, log_gammas, means = [eta0], [0.0], []
    gamma = eta0
    for _ in range(n):
        means.append(float(gamma @ G))
        gamma = (gamma * G) @ M
        total = gamma.sum()
        log_gammas.append(log_gammas[-1] + math.log(total))
        gamma = gamma / total
        etas.append(gamma)
    return np.array(etas), np.array(log_gammas), np.array(means)


def cov(kernel: str, mu, g, m, f):
    """mu[K(f^2) - K(f)^2] for the rows K of the mean-field kernel, batched
    over leading axes of mu (..., d), g (..., d), m (..., d, d), f (..., d)."""
    w = mu * g
    phi = np.einsum("...i,...ij->...j", w / w.sum(axis=-1, keepdims=True), m)
    if kernel == "multinomial":
        rows = np.broadcast_to(phi[..., None, :], m.shape)
    else:
        rows = g[..., :, None] * m + (1.0 - g)[..., :, None] * phi[..., None, :]
    k1 = np.einsum("...ij,...j->...i", rows, f)
    k2 = np.einsum("...ij,...j->...i", rows, f * f)
    return (mu * (k2 - k1 * k1)).sum(axis=-1)


def spectral(model: dict) -> dict:
    """Perron pair of Q = diag(G) M by eigendecomposition: zeta, right
    eigenvector h with eta_inf(h) = 1, left eigenvector eta_inf, and the
    variance rate of each kernel."""
    Q = model["G"][:, None] * model["M"]
    vals, right = np.linalg.eig(Q)
    top = int(np.argmax(vals.real))
    lvals, left = np.linalg.eig(Q.T)
    eta_inf = np.abs(left[:, int(np.argmax(lvals.real))].real)
    eta_inf /= eta_inf.sum()
    h = np.abs(right[:, top].real)
    h /= eta_inf @ h
    sigma2 = {k: float(cov(k, eta_inf, model["G"], model["M"], h))
              for k in ("multinomial", "transport")}
    return {"zeta": float(vals[top].real), "h": h, "eta_inf": eta_inf, "sigma2": sigma2}


def env_sigma2(env: dict, kernel: str, horizon: int, depth: int, seed: int) -> tuple:
    """Ergodic variance rate of an environment model, all positions at once.

    The path is drawn from the same PCG64 stream as fkclt draws it, one
    uniform per index; the backward-limit measures and the log series of
    the limiting functions run for every position together.  Returns the
    estimate and its 32-batch-means standard error.
    """
    gen = np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
    length = 2 * depth + horizon + 1  # absolute indices -depth .. horizon + depth
    u = gen.random(length)
    top = env["P"].shape[0] - 1
    s = np.empty(length, dtype=np.int64)
    s[0] = min(int(np.searchsorted(np.cumsum(env["pi"]), u[0], side="left")), top)
    cum_rows = np.cumsum(env["P"], axis=1)
    for i in range(1, length):
        s[i] = min(int(np.searchsorted(cum_rows[s[i - 1]], u[i], side="left")), top)

    def at(index):  # environment states at absolute indices
        return s[index + depth]

    Gs, Ms = env["G"], env["M"]
    d = Gs.shape[1]
    # eta[a] = flow from the uniform law at a - depth up to a, a = 0..horizon
    a = np.arange(horizon + 1)
    eta = np.full((horizon + 1, d), 1.0 / d)
    for j in range(depth):
        q = a - depth + j
        w = eta * Gs[at(q)]
        eta = np.einsum("pi,pij->pj", w / w.sum(axis=1, keepdims=True), Ms[at(q + 1)])
    p = np.arange(1, horizon + 1)
    stack = np.concatenate(
        [np.broadcast_to(np.eye(d), (horizon, d, d)), eta[p][:, None, :]], axis=1
    )
    logs = np.zeros((horizon, d))
    for offset in range(depth):
        weighted = stack * Gs[at(p + offset)][:, None, :]
        denoms = weighted.sum(axis=2)
        logs += np.log(denoms[:, :d]) - np.log(denoms[:, d:])
        if offset + 1 < depth:
            stack = np.einsum("pki,pij->pkj", weighted / denoms[:, :, None], Ms[at(p + offset + 1)])
    values = cov(kernel, eta[p - 1], Gs[at(p - 1)], Ms[at(p)], np.exp(logs))
    batches = 32
    bounds = [round(b * horizon / batches) for b in range(batches + 1)]
    means = np.array([values[bounds[b]:bounds[b + 1]].mean() for b in range(batches)])
    return float(values.mean()), float(means.std(ddof=1) / math.sqrt(batches))


def pinned_files(cmd) -> list:
    """Artifacts of ``cmd`` whose bytes are pinned at the default seed: those
    of the particle commands and the qsd table."""
    return list(cmd.outputs.values()) if cmd.reps or cmd.name == "qsd" else []


def _close(a, b, rtol) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(b), 1e-300)))


def _near(a, b, atol=STAT_ATOL) -> bool:
    return abs(float(a) - float(b)) <= atol * max(1.0, abs(float(b)))


def _option(cmd, name):
    return cmd.argv[cmd.argv.index(name) + 1]


class Checker:
    """Checks the artifacts of one command execution against references
    computed once from the shipped model configs."""

    def __init__(self, root: str, reference_path: str = REFERENCE):
        with open(reference_path, encoding="utf-8") as fh:
            self.ref = json.load(fh)
        self.two_state = read_homogeneous(os.path.join(root, "configs", "two_state.json"))
        self.env = read_environment(os.path.join(root, "configs", "env_two_state.json"))
        self.spectral = spectral(self.two_state)
        m = self.two_state
        self.flow = forward_flow(m["eta0"], m["G"], m["M"], len(self.ref["v_n_table"]))

    def check(self, cmd, code, files: dict, default_seed: bool) -> list:
        """Problems found with one execution of ``cmd``; empty when it passed."""
        if code is None:
            return [f"{cmd.name}: raised"]
        problems = []
        if default_seed:
            if code != self.ref["exit_codes"][cmd.name]:
                problems.append(f"{cmd.name}: exit code {code}, pinned {self.ref['exit_codes'][cmd.name]}")
            for name in pinned_files(cmd):
                if sha256(files[name]) != self.ref["digests"][name]:
                    problems.append(f"{cmd.name}: {name} differs from its pinned digest")
        try:
            check = getattr(self, "_" + cmd.argv[0].replace("-", "_"))
            problems += [f"{cmd.name}: {p}" for p in check(cmd, code, files, default_seed)]
        except (KeyError, ValueError, TypeError, IndexError, csv.Error) as exc:
            problems.append(f"{cmd.name}: malformed artifact ({type(exc).__name__}: {exc})")
        return problems

    def _v_n(self, kernel: str, n: int) -> float:
        if kernel == "multinomial":
            return self.ref["v_n_table"][n - 1]
        return self.ref["v_n_transport"][str(n)]

    def _clt(self, cmd, code, files, default_seed):
        kernel = _option(cmd, "--kernel")
        n, N, R = cmd.n, cmd.N, cmd.reps
        out = []
        rows = list(csv.reader(io.StringIO(files[cmd.outputs["--out"]].decode("ascii"))))
        if rows[0] != ["replicate_id", "seed", "log_gamma_bar", "gamma_bar"] or len(rows) != R + 1:
            return ["samples CSV has the wrong header or row count"]
        ids = [int(r[0]) for r in rows[1:]]
        seeds = [int(r[1]) for r in rows[1:]]
        x = np.array([float(r[2]) for r in rows[1:]])
        gb = np.array([float(r[3]) for r in rows[1:]])
        if ids != list(range(R)):
            out.append("replicate ids are not 0..R-1 in order")
        if seeds != [replicate_seed(cmd.seed, i) for i in range(R)]:
            out.append("replicate seeds do not follow the seed derivation")
        if not _close(gb, np.exp(x), STORED_RTOL):
            out.append("gamma_bar != exp(log_gamma_bar)")
        rep = json.loads(files[cmd.outputs["--report"]])
        if (rep["n"], rep["N"], rep["R"]) != (n, N, R) or rep["alpha"] != n / N:
            out.append("report sizes differ from the command")
        if not _close(rep["v_n"], self._v_n(kernel, n), STORED_RTOL):
            out.append(f"v_n {rep['v_n']!r} differs from the stored value")
        if not _close(rep["sigma2"], self.spectral["sigma2"][kernel], INDEPENDENT_RTOL):
            out.append(f"sigma2 {rep['sigma2']!r} differs from the eigendecomposition")
        pv = rep["v_n"] / N
        pm = -0.5 * pv
        mean, variance = float(x.mean()), float(x.var(ddof=1))
        z_mean = (mean - pm) / (math.sqrt(variance) / math.sqrt(R))
        var_ratio = variance / pv
        ub_z = (float(gb.mean()) - 1.0) / (float(gb.std(ddof=1)) / math.sqrt(R))
        F = np.array([0.5 * (1.0 + math.erf((v - pm) / (math.sqrt(pv) * math.sqrt(2.0))))
                      for v in np.sort(x)])
        i = np.arange(1, R + 1)
        ks_D = float(np.maximum(i / R - F, F - (i - 1) / R).max())
        for key, value in (("mean", mean), ("variance", variance), ("z_mean", z_mean),
                           ("var_ratio", var_ratio), ("unbiased_z", ub_z), ("ks_D", ks_D)):
            if not _near(rep[key], value):
                out.append(f"{key} {rep[key]!r} differs from the samples' {value!r}")
        verdicts = {
            "mean": abs(z_mean) <= MEAN_Z_MAX,
            "variance": VAR_RATIO_WINDOW[0] <= var_ratio <= VAR_RATIO_WINDOW[1],
            "ks": rep["ks_p"] > KS_P_MIN,
            "unbiasedness": abs(ub_z) <= UNBIASED_Z_MAX,
        }
        if rep["verdicts"] != {k: "pass" if ok else "fail" for k, ok in verdicts.items()}:
            out.append(f"verdicts {rep['verdicts']} do not follow from the statistics")
        if code != (0 if all(verdicts.values()) else 1):
            out.append(f"exit code {code} does not match the verdicts")
        return out

    def _fixed_n_clt(self, cmd, code, files, default_seed):
        rep = json.loads(files[cmd.outputs["--report"]])
        out = []
        if (rep["n"], rep["R"], len(rep["rows"])) != (cmd.n, cmd.reps, 1):
            return ["report sizes differ from the command"]
        row = rep["rows"][0]
        target = self._v_n("multinomial", cmd.n)
        if row["N"] != cmd.N or not _close(row["target_v_n"], target, STORED_RTOL):
            out.append(f"target_v_n {row['target_v_n']!r} differs from the stored v_n")
        var = row["variance"]
        half = 1.96 * var * math.sqrt(2.0 / (cmd.reps - 1))
        rel_error = abs(var - target) / target
        for key, value in (("ci_low", var - half), ("ci_high", var + half), ("rel_error", rel_error)):
            if not _near(row[key], value):
                out.append(f"{key} {row[key]!r} does not follow from the variance")
        passed = rel_error <= FIXED_N_REL_ERROR_MAX
        if rep["verdicts"] != {"variance_at_largest_N": "pass" if passed else "fail"}:
            out.append(f"verdicts {rep['verdicts']} do not follow from rel_error")
        if code != (0 if passed else 1):
            out.append(f"exit code {code} does not match the verdict")
        return out

    def _qsd(self, cmd, code, files, default_seed):
        horizon = int(_option(cmd, "--n"))
        trials = int(_option(cmd, "--reps"))
        rows = list(csv.reader(io.StringIO(files[cmd.outputs["--out"]].decode("ascii"))))
        if rows[0] != ["n", "survival_oracle", "survival_mc", "mc_std_error", "yaglom_tv"] \
                or len(rows) != horizon + 1:
            return ["table has the wrong header or row count"]
        etas, log_gammas, _ = self.flow
        out = [] if code == 0 else [f"exit code {code}"]
        for k, row in enumerate(rows[1:], start=1):
            n, oracle, mc, se, tv = int(row[0]), *map(float, row[1:])
            if n != k:
                out.append(f"row {k} has n={n}")
                continue
            if not _close(oracle, math.exp(log_gammas[n]), STORED_RTOL):
                out.append(f"survival_oracle at n={n} is {oracle!r}")
            if abs(tv - 0.5 * np.abs(etas[n] - self.spectral["eta_inf"]).sum()) > INDEPENDENT_RTOL:
                out.append(f"yaglom_tv at n={n} is {tv!r}")
            if not (0.0 <= mc <= 1.0 and _close(se, math.sqrt(mc * (1.0 - mc) / trials), STORED_RTOL)):
                out.append(f"survival_mc or its standard error at n={n} is malformed")
            # A sanity bound on the Monte Carlo estimate, not a verdict.
            elif abs(mc - oracle) > 6.0 * max(se, 1.0 / trials):
                out.append(f"survival_mc at n={n} is {abs(mc - oracle) / se:.1f} standard errors off")
        return out

    def _oracle(self, cmd, code, files, default_seed):
        rep = json.loads(files[cmd.outputs["--out"]])
        n = int(_option(cmd, "--n"))
        etas, log_gammas, means = (a[: n + 1] for a in self.flow)
        sp = self.spectral
        eta0_h = float(self.two_state["eta0"] @ sp["h"])
        out = [] if code == 0 else [f"exit code {code}"]
        if rep["n"] != n or rep["kernel"] != "multinomial":
            out.append("report sizes differ from the command")
        checks = (
            ("etas", np.array(rep["etas"]), etas, "abs"),
            ("log_gammas", rep["log_gammas"], log_gammas, "abs"),
            ("potential_means", rep["potential_means"], means[:n], STORED_RTOL),
            ("zeta", rep["zeta"], sp["zeta"], INDEPENDENT_RTOL),
            ("h", rep["h"], sp["h"], INDEPENDENT_RTOL),
            ("eta_inf", rep["eta_inf"], sp["eta_inf"], INDEPENDENT_RTOL),
            ("sigma2", rep["sigma2"], sp["sigma2"]["multinomial"], INDEPENDENT_RTOL),
            ("qbar_limit", rep["qbar_limit"], sp["h"] / eta0_h, INDEPENDENT_RTOL),
            ("v_n_table", rep["v_n_table"], self.ref["v_n_table"][:n], STORED_RTOL),
        )
        for key, got, want, tol in checks:
            got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
            if tol == "abs":  # flows and logs: absolute, scaled by max(1, |x|)
                ok = got.shape == want.shape and bool(
                    np.all(np.abs(got - want) <= STORED_RTOL * np.maximum(1.0, np.abs(want))))
            else:
                ok = _close(got, want, tol)
            if not ok:
                out.append(f"{key} differs from its reference")
        return out

    def _env_sigma2(self, cmd, code, files, default_seed):
        rep = json.loads(files[cmd.outputs["--report"]])
        horizon, depth = int(_option(cmd, "--horizon")), int(_option(cmd, "--depth"))
        out = [] if code == 0 else [f"exit code {code}"]
        if (rep["horizon"], rep["depth"], rep["seed"], rep["kernel"]) != \
                (horizon, depth, cmd.seed, "multinomial"):
            out.append("report parameters differ from the command")
        got = (rep["sigma2"], rep["std_error"])
        if default_seed:
            stored = self.ref["env_sigma2"]
            if not _close(got, (stored["sigma2"], stored["std_error"]), STORED_RTOL):
                out.append(f"estimate {got} differs from the stored value")
        want = env_sigma2(self.env, "multinomial", horizon, depth, cmd.seed)
        if not _close(got, want, INDEPENDENT_RTOL):
            out.append(f"estimate {got} differs from the independent recomputation {want}")
        return out
