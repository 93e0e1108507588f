"""Cold-CLI benchmark of gjms-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs as a sequence of
cold `python3 -m gjmslab.cli` child processes, one at a time from this
single parent process (a closed loop with one client; GJMS_LAB_THREADS is
removed from the child environment). Every command's outputs go through the
reference gate (gate.py).

--trace 0 draws the seed's pass once and runs it a fixed number of times
(workloads.pass_count: about S seconds' worth at the nominal pass time, at
least 3), each time in a seeded order, with the cold imports of setup_s
spread between the passes; it reports the end-to-end metrics. --trace 1
runs the seed's pass once plain and once under tracer.py, and reports the
per-layer metrics of layers.py. The last line of standard output is the
JSON result.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
END_TO_END = {          # name -> unit
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Checkout:
    """Paths and child environment for one source checkout."""

    def __init__(self, root, workdir):
        self.src = os.path.join(root, "src")
        self.package = os.path.join(self.src, "gjmslab")
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("GJMS_LAB_THREADS", None)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, argv, log_path):
        """Run argv to completion; (exit code, wall s, cpu s, max rss MB)."""
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.workdir,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


class Result:
    """One command's run and its gate verdict."""

    def __init__(self, command, code, wall, cpu, rss, outputs, ref):
        self.command = command
        self.code = code
        self.wall, self.cpu, self.rss = wall, cpu, rss
        if ref is None:
            self.gate_ok, self.identical, self.reason = False, False, "no reference"
        else:
            self.gate_ok, self.identical, self.reason = gate.check(code, outputs, ref)
        self.ok = self.gate_ok and code == 0


def run_command(checkout, command, tag, spans_path=None):
    """Run one gjms-lab command cold; returns (exit, wall, cpu, rss, outputs)."""
    out = os.path.join(checkout.workdir, tag + ".csv")
    args = list(command) + ["--out", out]
    if spans_path is None:
        argv = [sys.executable, "-m", "gjmslab.cli"] + args
    else:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--"] + args
    code, wall, cpu, rss = checkout.spawn(argv, os.path.join(checkout.workdir, tag + ".log"))
    outputs = gate.read_outputs(out)
    for name in os.listdir(checkout.workdir):
        if name.startswith(tag + ".csv"):
            os.remove(os.path.join(checkout.workdir, name))
    return code, wall, cpu, rss, outputs


def run_pass(checkout, commands, refs, tag, trace=False):
    """Run the pass's commands in order; (results, pass wall, span lists).
    Outputs are gated and spans read after the pass, outside its wall time."""
    runs, spans_paths = [], []
    t0 = time.perf_counter()
    for i, command in enumerate(commands):
        spans_path = os.path.join(checkout.workdir, f"{tag}-{i}.spans.json") if trace else None
        runs.append(run_command(checkout, command, f"{tag}-{i}", spans_path))
        spans_paths.append(spans_path)
    wall = time.perf_counter() - t0
    results = [Result(command, *run, refs.get(workloads.command_id(command)))
               for command, run in zip(commands, runs)]
    span_lists = []
    for path in filter(None, spans_paths):
        with open(path) as fh:
            span_lists.append(json.load(fh))
        os.remove(path)
    return results, wall, span_lists


def setup_time(checkout):
    """Wall time of one cold interpreter importing gjmslab.cli."""
    code, wall, _, _ = checkout.spawn([sys.executable, "-c", "import gjmslab.cli"],
                                      os.path.join(checkout.workdir, "setup.log"))
    if code != 0:
        raise RuntimeError("import gjmslab.cli failed; see setup.log")
    return wall


def _git_commit(path):
    try:
        out = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(checkout, seed):
    """What the figures depend on, recorded with every result."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(checkout.package)):
        if name.endswith(".py"):
            with open(os.path.join(checkout.package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_VARS},
        "gjms_lab_threads": "unset",
        # resolved from the package directory, not the working directory
        "package_commit": _git_commit(checkout.package),
        "package_sha256": digest.hexdigest(),
    }


def _report(results, attempted_label):
    failed = [r for r in results if not r.gate_ok]
    for r in failed:
        print(f"gate failure: {workloads.command_id(r.command)}: {r.reason}", file=sys.stderr)
    known = sum(1 for r in results if r.gate_ok and r.code != 0)
    identical = sum(1 for r in results if r.identical)
    print(f"{attempted_label}: {len(results)} commands, {len(failed)} gate failures, "
          f"{known} known failures reproduced, {identical} byte-identical to the reference")
    return len(failed)


def measure(checkout, refs, workload, seed, seconds):
    """End-to-end metrics of the seed's pass, repeated a fixed number of
    times. A pass's wall and CPU time are summed over its commands from each
    command's fastest repeat: on a shared host a command's time swings by
    up to 1.5x in phases of seconds to minutes, and a slowdown only ever adds
    time, so the fastest of a few cold runs is the steadiest reading of what
    the command costs."""
    passes = workloads.plan(workload, seed, workloads.pass_count(workload, seconds))
    n = len(passes)
    setups, walls, results = [], [], []
    for i, commands in enumerate(passes):
        # SETUP_REPEATS imports in all, spread evenly between the passes
        repeats = SETUP_REPEATS * (i + 1) // n - SETUP_REPEATS * i // n
        setups.extend(setup_time(checkout) for _ in range(repeats))
        res, wall, _ = run_pass(checkout, commands, refs, f"p{i}")
        results.extend(res)
        walls.append(wall)
    failed = _report(results, f"{n} passes")
    runs = {}
    for r in results:
        runs.setdefault(workloads.command_id(r.command), []).append(r)
    fastest = {key: (min(r.wall for r in rs), min(r.cpu for r in rs)) for key, rs in runs.items()}
    metrics = {
        "wall_s": sum(wall for wall, _ in fastest.values()),
        "cpu_s": sum(cpu for _, cpu in fastest.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.rss for r in results),
        "ok_frac": sum(r.ok for r in results) / len(results),
    }
    for key, (wall, cpu) in sorted(fastest.items()):
        median = statistics.median(r.wall for r in runs[key])
        print(f"fastest {wall:8.3f} s wall {cpu:8.3f} s cpu (median {median:8.3f} s wall)  {key}")
    fastest_of = f"sum over {len(fastest)} commands of the fastest of {n} runs"
    samples = {"wall_s": fastest_of,
               "cpu_s": fastest_of,
               "setup_s": f"median of {len(setups)} imports",
               "peak_rss_mb": f"max over {len(results)} commands",
               "ok_frac": f"over {len(results)} commands"}
    for name, value in metrics.items():
        print(f"{name:>12} {value:12.6g} {END_TO_END[name]:<6} ({samples[name]})")
    print(f"{'fail_frac':>12} {1.0 - metrics['ok_frac']:12.6g} ratio  (1 - ok_frac; "
          "includes the known failures of the reference commit)")
    print(f"{'pass_wall_s':>12} {statistics.median(walls):12.6g} s      "
          f"(median of {len(walls)} passes, for reference)")
    return metrics, END_TO_END, len(results), failed


def trace(checkout, refs, workload, seed):
    """Per-layer metrics of the seed's pass, traced, plus the overhead
    against the same pass untraced."""
    commands = workloads.plan(workload, seed, 1)[0]
    plain, plain_wall, _ = run_pass(checkout, commands, refs, "plain")
    traced, traced_wall, span_lists = run_pass(checkout, commands, refs, "traced", trace=True)
    failed = _report(plain + traced, "plain and traced pass")
    metrics = layers.aggregate(span_lists, traced_wall / plain_wall)
    for name, value in metrics.items():
        print(f"{name:>42} {value:14.6g} {layers.PER_LAYER[name]}")
    return metrics, layers.PER_LAYER, len(plain) + len(traced), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the command it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gjmslab", "cli.py")):
        print("error: run from the root of a gjmslab checkout (src/gjmslab not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        checkout = Checkout(root, workdir)
        print("env " + json.dumps(environment(checkout, args.seed), sort_keys=True))
        setup_time(checkout)   # untimed: byte-compiles the package and warms the file cache
        if args.trace:
            metrics, units, attempted, failed = trace(checkout, refs, args.workload, args.seed)
        else:
            metrics, units, attempted, failed = measure(checkout, refs, args.workload,
                                                        args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
