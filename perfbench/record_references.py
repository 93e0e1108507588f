"""Record the reference outputs of every command any seed can produce.

    python3 perfbench/record_references.py

Run from the root of a checkout at the commit the references describe. It
rewrites perfbench/references.json and prints each command's exit code and
time. Re-record only in a change that alters the benchmark, never in one
that claims a gain.
"""

import json
import os
import shutil
import sys

import gate
import run
import workloads


def main():
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench_work", "record")
    os.makedirs(workdir, exist_ok=True)
    checkout = run.Checkout(root, workdir)
    refs = {}
    try:
        for workload in workloads.WORKLOADS:
            for command in workloads.all_commands(workload):
                key = workloads.command_id(command)
                if key in refs:
                    continue
                code, wall, _, _, outputs = run.run_command(checkout, command, "ref")
                refs[key] = gate.record(code, outputs)
                print(f"{wall:7.2f} s exit {code}  {key}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    with open(os.path.join(run.HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
