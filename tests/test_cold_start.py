"""What a cold gjms-lab process loads and how many BLAS threads it runs,
each in a fresh interpreter.

scipy is imported where it computes: scipy.special for the integer-order
Bessel J of even-n Hankel paths. Half-odd Bessel J (odd n), the s = 1
bubble energies (a Dirichlet integral, no Hankel band) and the spline
search's Newton solve are numpy. `import gjmslab` loads no numpy, and
`import gjmslab.cli` no OpenSSL (nothing imports hashlib: the manifest's
source digest is zlib's CRC-32), no numpy.polynomial (the Gauss-Legendre
rules are literals), no subprocess and makes no LAPACK call, while it still
loads every layer module that perfbench/tracer.py wraps. No benchmark
command loads subprocess either: the manifest starts no child process.
kernel-decay and blowdown load no numpy.ma. kernel-decay,
bubble-asymptotics and blowdown make no LAPACK call: every least-squares
fit and the clamped spline's tridiagonal solve are numpy. The spline
gap-scan's only LAPACK calls are its Newton steps' qr and eigh.
The two program entries, python -m gjmslab.cli and the gjms-lab console script, run
a command with one BLAS thread unless the user set a thread count, and
import with the cyclic collector off, then run the command with it on and
the import-time objects frozen; a library import leaves os.environ and the
collector alone. All three routes write the same bytes.
"""

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs gjmslab.cli.main on argv (none: import only) and prints the exit code
# and every scipy module in sys.modules afterwards.
PROBE = """
import json, sys
import gjmslab, gjmslab.cli
code = gjmslab.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

README_ASYMPTOTICS = ["bubble-asymptotics", "--n", "5", "--s", "1", "--delta", "0.2",
                      "--eps-ladder", "0.05,0.025,0.0125,0.00625"]
EVEN_ASYMPTOTICS = ["bubble-asymptotics", "--n", "4", "--s", "0.75", "--delta", "0.2",
                    "--eps-ladder", "0.02,0.01,0.005"]
EVEN_S1_ASYMPTOTICS = ["bubble-asymptotics", "--n", "4", "--s", "1", "--delta", "0.2",
                       "--eps-ladder", "0.02,0.01,0.005"]
EVEN_S1_SCAN = ["gap-scan", "--kind", "gjms", "--n", "4", "--s", "1",
                "--lambda-spec=0:0.25:2", "--family", "bubble"]
BUBBLE_SCAN = ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
               "--lambda-spec=0:0.25:2", "--family", "bubble"]
SPLINE_SCAN = ["gap-scan", "--kind", "gjms", "--n", "3", "--s", "1", "--lambda-spec=0",
               "--family", "spline", "--spline-radius", "3.5"]
KERNEL_DECAY = ["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
                "--r-spec", "2,3,4,5,6", "--eps-reg", "0.01"]
BLOWDOWN = ["blowdown", "--n", "3", "--s", "1", "--lambda", "0.3", "--n-spec", "4,16,64,256"]


def child_env(**blas):
    """os.environ with src on PYTHONPATH, the BLAS thread variables removed
    and then the given ones set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(blas)
    return env


def probe(code, *args, env=None):
    """The JSON of the last line a fresh interpreter running code prints."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=env or child_env(),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def loaded_scipy(argv=()):
    """(exit code, scipy modules loaded) of one cold run."""
    code, modules = probe(PROBE, *argv)
    return code, set(modules)


def run_cold(argv, tmp_path):
    """loaded_scipy of a command writing under tmp_path, checked against the
    scipy_modules its manifest recorded."""
    path = str(tmp_path / "out.csv")
    code, modules = loaded_scipy(list(argv) + ["--out", path])
    with open(path + ".manifest.json") as fh:
        recorded = json.load(fh)["scipy_modules"]
    assert set(recorded) <= modules
    return code, modules, recorded


def test_import_loads_no_scipy():
    assert loaded_scipy() == (0, set())


@pytest.mark.parametrize("argv", [KERNEL_DECAY, BLOWDOWN], ids=["kernel-decay", "blowdown"])
def test_spectral_commands_load_no_scipy(argv, tmp_path):
    assert run_cold(argv, tmp_path) == (0, set(), [])


# Runs gjmslab.cli.main on argv and prints the exit code and whether
# numpy.ma is loaded afterwards.
MA_PROBE = """
import json, sys
import gjmslab.cli
code = gjmslab.cli.main(sys.argv[1:])
print(json.dumps([code, "numpy.ma" in sys.modules]))
"""


@pytest.mark.parametrize("argv", [KERNEL_DECAY, BLOWDOWN], ids=["kernel-decay", "blowdown"])
def test_spectral_commands_load_no_numpy_ma(argv, tmp_path):
    # numpy.unique imports numpy.ma on first use (numpy 2.4), 1.35 MB of peak
    # RSS in a cold blowdown; decay_slope checks distinct radii with a set
    assert probe(MA_PROBE, *argv, "--out", str(tmp_path / "out.csv")) == [0, False]


@pytest.mark.parametrize("argv", [README_ASYMPTOTICS, BUBBLE_SCAN],
                         ids=["bubble-asymptotics", "bubble-gap-scan"])
def test_odd_n_bubble_paths_load_no_scipy(argv, tmp_path):
    assert run_cold(argv, tmp_path) == (0, set(), [])


@pytest.mark.parametrize("argv", [EVEN_S1_ASYMPTOTICS, EVEN_S1_SCAN],
                         ids=["bubble-asymptotics", "bubble-gap-scan"])
def test_s1_bubble_paths_load_no_scipy_at_even_n(argv, tmp_path):
    assert run_cold(argv, tmp_path) == (0, set(), [])


def test_even_n_bubble_path_loads_only_scipy_special(tmp_path):
    code, modules, recorded = run_cold(EVEN_ASYMPTOTICS, tmp_path)
    assert code == 0
    assert recorded == ["scipy.special"]
    assert not {"scipy.optimize", "scipy.interpolate"} & modules


def test_spline_search_loads_no_scipy(tmp_path):
    assert run_cold(SPLINE_SCAN, tmp_path) == (0, set(), [])


def console_script():
    """The "module:function" the gjms-lab console script of pyproject.toml runs."""
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        return re.search(r'^gjms-lab\s*=\s*"([\w.]+:\w+)"', fh.read(), re.M).group(1)


# Imports the console script's function, then gjmslab.cli, then calls
# gjmslab.cli.main from Python; prints, after each step, whether numpy is
# loaded and whether os.environ is unchanged.
LIBRARY_IMPORTS = """
import importlib, json, os, sys
before = dict(os.environ)
module, function = sys.argv[1].split(":")
getattr(importlib.import_module(module), function)
steps = [["numpy" in sys.modules, dict(os.environ) == before]]
import gjmslab.cli
steps.append(["numpy" in sys.modules, dict(os.environ) == before])
gjmslab.cli.main(["constants", "--n", "3", "--s", "0.5"])
steps.append(["numpy" in sys.modules, dict(os.environ) == before])
print(json.dumps(steps))
"""

# Runs a gjms-lab command through one program entry ("-m": gjmslab.cli as
# python -m runs it; else the console script's "module:function", as its
# wrapper calls it) and prints the exit code, the process's thread count
# (None without /proc) and, as the command builds its argument parser,
# whether the cyclic collector is on, how many objects are frozen and how
# many collections ran while numpy and the package imported.
ENTRY_RUN = """
import argparse, gc, importlib, json, os, runpy, sys
entry = sys.argv[1]
sys.argv = ["gjms-lab", *sys.argv[2:]]
collections, heap = [], []
def importing(phase, info):
    if phase == "start" and "numpy" in sys.modules:
        collections.append(info["generation"])
gc.callbacks.append(importing)
init = argparse.ArgumentParser.__init__
def recorded(self, *args, **kwargs):
    heap[:] = heap or [gc.isenabled(), gc.get_freeze_count(), len(collections)]
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = recorded
try:
    if entry == "-m":
        runpy.run_module("gjmslab.cli", run_name="__main__", alter_sys=True)
    else:
        module, function = entry.split(":")
        sys.exit(getattr(importlib.import_module(module), function)())
except SystemExit as exc:
    code = exc.code
task = "/proc/self/task"
print(json.dumps([code, len(os.listdir(task)) if os.path.isdir(task) else None, heap]))
"""

MULTIPLIER = ["multiplier", "--kind", "gjms", "--n", "3", "--s", "0.5", "--beta-max", "2",
              "--count", "3"]


# the layer modules perfbench/tracer.py reads from sys.modules straight after
# `import gjmslab.cli`
TRACED_LAYERS = ("special", "multipliers", "geometry", "grids", "spherical", "bubbles",
                 "quotients")

# Records every LAPACK gufunc numpy.linalg calls, then imports gjmslab.cli
# and runs gjmslab.cli.main on argv (none: import only); prints the calls,
# the loaded module names and the exit code.
LAPACK_PROBE = """
import json, sys
from numpy.linalg import _umath_linalg
calls = []
def recorder(name, fn):
    def record(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return record
for name in dir(_umath_linalg):
    if not name.startswith("_") and callable(getattr(_umath_linalg, name)):
        setattr(_umath_linalg, name, recorder(name, getattr(_umath_linalg, name)))
import gjmslab.cli
code = gjmslab.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([calls, sorted(sys.modules), code]))
"""


def test_cli_import_is_lean_and_loads_every_traced_layer():
    calls, modules, _ = probe(LAPACK_PROBE)
    assert calls == []
    assert not [m for m in modules if m.split(".")[:2] == ["numpy", "polynomial"]]
    assert "subprocess" not in modules
    assert {f"gjmslab.{layer}" for layer in TRACED_LAYERS} <= set(modules)


def test_lapack_probe_sees_an_eigensolve():
    # the probe's recorder is live: leggauss, which the rules replaced, makes
    # one LAPACK eigensolve
    code = LAPACK_PROBE.replace("import gjmslab.cli",
                                "from numpy.polynomial.legendre import leggauss; leggauss(16)")
    assert probe(code)[0] == ["eigvalsh_lo"]


@pytest.mark.parametrize("argv, lapack", [(KERNEL_DECAY, []), (README_ASYMPTOTICS, []),
                                          (BLOWDOWN, []),
                                          (SPLINE_SCAN, ["eigh_lo", "qr_complete", "qr_r_raw"])],
                         ids=["kernel-decay", "bubble-asymptotics", "blowdown", "spline-scan"])
def test_commands_make_only_their_lapack_calls(argv, lapack, tmp_path):
    # every least-squares fit is grids._least_squares, numpy only (numpy's
    # line and least-squares fits called lstsq, whose first call raised a
    # cold command's peak memory by about 1 MB); the clamped spline's
    # tridiagonal system is one numpy sweep (its dense solve raised a cold
    # blowdown's peak by about 0.4 MB), so the spline search's Newton steps,
    # a qr and an eigh each, are the only LAPACK left
    calls, _, code = probe(LAPACK_PROBE, *argv, "--out", str(tmp_path / "out.csv"))
    assert code == 0
    assert sorted(set(calls)) == lapack


def test_cli_import_loads_no_logging():
    # no module keeps a logger: nothing ever turned one on
    assert probe("import json, sys, gjmslab.cli; "
                 "print(json.dumps('logging' in sys.modules))") is False


def test_cli_import_loads_no_openssl():
    assert probe("import json, sys, gjmslab.cli; "
                 "print(json.dumps([m for m in ('_hashlib', 'hashlib') if m in sys.modules]))") == []


def test_manifest_outside_git_loads_no_openssl(tmp_path):
    # the manifest records the package's CRC-32 source digest, with no hashlib
    path = str(tmp_path / "m.csv")
    code = ("import json, sys, gjmslab.cli\n"
            "code = gjmslab.cli.main(sys.argv[1:])\n"
            "print(json.dumps([code] + [m for m in ('_hashlib', 'hashlib') if m in sys.modules]))")
    assert probe(code, "multiplier", "--kind", "gjms", "--n", "3", "--s", "1", "--beta-max", "2",
                 "--count", "3", "--out", path) == [0]
    with open(path + ".manifest.json") as fh:
        assert re.fullmatch(r"\d+\.\d+\.\d+\+crc32\.[0-9a-f]{8}", json.load(fh)["source"])


# Runs gjmslab.cli.main on argv and prints the exit code and whether
# subprocess is loaded afterwards.
SUBPROCESS_PROBE = """
import json, sys
import gjmslab.cli
code = gjmslab.cli.main(sys.argv[1:])
print(json.dumps([code, "subprocess" in sys.modules]))
"""


@pytest.mark.parametrize("argv", [README_ASYMPTOTICS, BUBBLE_SCAN, SPLINE_SCAN, KERNEL_DECAY,
                                  BLOWDOWN],
                         ids=["bubble-asymptotics", "bubble-gap-scan", "spline-gap-scan",
                              "kernel-decay", "blowdown"])
def test_benchmark_commands_load_no_subprocess(argv, tmp_path):
    # the manifest forks no git; odd n only, since scipy.special (even-n
    # Hankel paths) imports subprocess itself
    assert probe(SUBPROCESS_PROBE, *argv, "--out", str(tmp_path / "out.csv")) == [0, False]


def test_manifest_peak_is_the_process_peak(tmp_path):
    # the README bubble-asymptotics, run in a child: the manifest's max_rss_mb
    # is the child's own peak so far, at most its peak at exit
    path = str(tmp_path / "a.csv")
    proc = subprocess.Popen([sys.executable, "-c", PROBE, *README_ASYMPTOTICS, "--out", path],
                            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    assert proc.returncode == 0
    with open(path + ".manifest.json") as fh:
        recorded = json.load(fh)["max_rss_mb"]
    assert 0.0 < recorded <= usage.ru_maxrss / 1024.0


def test_import_loads_no_numpy():
    assert probe("import json, sys, gjmslab; print(json.dumps('numpy' in sys.modules))") is False


def test_library_import_leaves_environ():
    # importing the console script's function loads no numpy; neither it nor
    # gjmslab.cli nor a main() called from Python touches os.environ
    assert probe(LIBRARY_IMPORTS, console_script()) == [[False, True], [True, True], [True, True]]


@pytest.mark.parametrize("entry", ["-m", "console"])
@pytest.mark.parametrize("user", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"},
                                  {"OMP_NUM_THREADS": "2"}],
                         ids=["unset", "openblas-2", "goto-2", "omp-2"])
def test_entry_blas_threads(entry, user, tmp_path):
    # one BLAS thread unless the user set a count, which then stands; the
    # manifest records the three variables as the run saw them
    out = str(tmp_path / "m.csv")
    code, threads, _ = probe(ENTRY_RUN, console_script() if entry == "console" else entry,
                          *MULTIPLIER, "--out", out, env=child_env(**user))
    assert code == 0
    with open(out + ".manifest.json") as fh:
        recorded = json.load(fh)["blas_threads"]
    expected = dict.fromkeys(BLAS_THREAD_VARS, None)
    expected.update(user or {"OPENBLAS_NUM_THREADS": "1"})
    assert recorded == expected
    if threads is not None:
        assert threads == (1 if not user else min(2, len(os.sched_getaffinity(0))))


@pytest.mark.parametrize("entry", ["-m", "console"])
def test_entry_imports_without_collections_and_runs_on_a_frozen_heap(entry, tmp_path):
    code, _, (enabled, frozen, collections) = probe(
        ENTRY_RUN, console_script() if entry == "console" else entry, *KERNEL_DECAY,
        "--out", str(tmp_path / "k.csv"))
    assert code == 0
    assert enabled and frozen > 0
    assert collections == 0


# Imports gjmslab.cli and calls its main from Python; prints, after each
# step, whether the cyclic collector is on and how many objects are frozen.
LIBRARY_HEAP = """
import gc, json, sys
import gjmslab.cli
steps = [[gc.isenabled(), gc.get_freeze_count()]]
code = gjmslab.cli.main(sys.argv[1:])
steps.append([gc.isenabled(), gc.get_freeze_count()])
print(json.dumps([code, steps]))
"""


def test_library_import_and_main_leave_the_collector(tmp_path):
    assert probe(LIBRARY_HEAP, *MULTIPLIER, "--out", str(tmp_path / "m.csv")) == \
        [0, [[True, 0], [True, 0]]]


# The console script's wrapper: calls "module:function" (argv[1]) with the
# remaining arguments as the command line
CONSOLE_WRAPPER = """
import importlib, sys
module, function = sys.argv.pop(1).split(":")
sys.exit(getattr(importlib.import_module(module), function)())
"""


def test_entries_and_main_write_the_same_bytes(tmp_path):
    # the README kernel-decay through python -m gjmslab.cli, the console
    # script and an in-process main: the same CSV and summary bytes
    from gjmslab import cli

    routes = {"module": [sys.executable, "-m", "gjmslab.cli"],
              "console": [sys.executable, "-c", CONSOLE_WRAPPER, console_script()]}
    outputs = {}
    for name, command in routes.items():
        path = str(tmp_path / f"{name}.csv")
        done = subprocess.run(command + KERNEL_DECAY + ["--out", path], env=child_env(),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs[name] = path
    outputs["main"] = str(tmp_path / "main.csv")
    assert cli.main(KERNEL_DECAY + ["--out", outputs["main"]]) == 0

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    for suffix in ("", ".summary.json"):
        module, console, main = (read(path + suffix) for path in outputs.values())
        assert module == console == main
