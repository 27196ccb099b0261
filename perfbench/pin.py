#!/usr/bin/env python3
"""Write reference.json: what the checks compare against.

    python3 perfbench/pin.py

Runs every workload's commands once at the default seed and stores the
SHA-256 digests of the particle artifacts, every exit code, the oracle's
v_n table, the transport-kernel v_n of the clt command and the
env-sigma2 estimate.  Re-pin only when fkclt's outputs are meant to change;
a speed-up must leave every pinned byte as it is.
"""

from __future__ import annotations

import json
import os
import shutil

import workloads
from checks import REFERENCE, pinned_files, sha256
from run import ROOT, WORK_DIR, import_fkclt, run_pass


def main() -> None:
    main_fn = import_fkclt().cli.main
    out = os.path.join(WORK_DIR, "pin")
    shutil.rmtree(out, ignore_errors=True)
    ref = {"default_seed": workloads.DEFAULT_SEED, "exit_codes": {}, "digests": {}}
    for workload in workloads.WORKLOADS:
        cmds = workloads.setup(ROOT, workload, workloads.DEFAULT_SEED)
        result = run_pass(main_fn, cmds, os.path.join(out, workload))
        for cmd in cmds:
            files = result["files"][cmd.name]
            ref["exit_codes"][cmd.name] = result["codes"][cmd.name]
            ref["digests"].update({name: sha256(files[name]) for name in pinned_files(cmd)})
            if cmd.name == "oracle":
                ref["v_n_table"] = json.loads(files["oracle.json"])["v_n_table"]
            elif cmd.name == "clt-transport":
                ref["v_n_transport"] = {
                    str(cmd.n): json.loads(files["clt-transport.json"])["v_n"]}
            elif cmd.name == "env-sigma2":
                report = json.loads(files["env-sigma2.json"])
                ref["env_sigma2"] = {k: report[k] for k in ("seed", "sigma2", "std_error")}
    with open(REFERENCE, "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(out)


if __name__ == "__main__":
    main()
