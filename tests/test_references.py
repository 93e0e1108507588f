"""The benchmark's reference gate as a tier-1 test: every command recorded in
perfbench/references.json, run in-process through gjmslab.cli.main, passes
perfbench/gate.check against its recorded outputs. The recorded files are
read, never written."""

import importlib.util
import json
import os

import pytest

from gjmslab import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate",
                                                  os.path.join(PERFBENCH, "gate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
with open(os.path.join(PERFBENCH, "references.json")) as fh:
    REFERENCES = json.load(fh)


@pytest.mark.parametrize("command", sorted(REFERENCES))
def test_command_passes_the_reference_gate(command, tmp_path):
    out = str(tmp_path / "out.csv")
    code = cli.main(command.split() + ["--out", out])
    ok, _, reason = gate.check(code, gate.read_outputs(out), REFERENCES[command])
    assert ok, reason
