"""Which scipy modules each gjms-lab command loads, in a fresh interpreter.

scipy is imported where it computes: scipy.special for the integer-order
Bessel J of even-n Hankel paths. Half-odd Bessel J (odd n) and the spline
search's Newton solve are numpy.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
EVEN_ASYMPTOTICS = ["bubble-asymptotics", "--n", "4", "--s", "1", "--delta", "0.2",
                    "--eps-ladder", "0.02,0.01,0.005"]
BUBBLE_SCAN = ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
               "--lambda-spec=0:0.25:2", "--family", "bubble"]
SPLINE_SCAN = ["gap-scan", "--kind", "gjms", "--n", "3", "--s", "1", "--lambda-spec=0",
               "--family", "spline", "--spline-radius", "3.5"]
KERNEL_DECAY = ["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
                "--r-spec", "2,3,4,5,6", "--eps-reg", "0.01"]
BLOWDOWN = ["blowdown", "--n", "3", "--s", "1", "--lambda", "0.3", "--n-spec", "4,16,64,256"]


def loaded_scipy(argv=()):
    """(exit code, scipy modules loaded) of one cold run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    code, modules = json.loads(out.stdout.splitlines()[-1])
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


@pytest.mark.parametrize("argv", [README_ASYMPTOTICS, BUBBLE_SCAN],
                         ids=["bubble-asymptotics", "bubble-gap-scan"])
def test_odd_n_bubble_paths_load_no_scipy(argv, tmp_path):
    assert run_cold(argv, tmp_path) == (0, set(), [])


def test_even_n_bubble_path_loads_only_scipy_special(tmp_path):
    code, modules, recorded = run_cold(EVEN_ASYMPTOTICS, tmp_path)
    assert code == 0
    assert recorded == ["scipy.special"]
    assert not {"scipy.optimize", "scipy.interpolate"} & modules


def test_spline_search_loads_no_scipy(tmp_path):
    assert run_cold(SPLINE_SCAN, tmp_path) == (0, set(), [])
