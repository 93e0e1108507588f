"""Self-tests of the benchmark (not of the package).

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import re

import pytest

import gate
import layers
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _refs():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def _benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_gives_same_commands(workload):
    first = workloads.plan(workload, 7, 4)
    assert first == workloads.plan(workload, 7, 4)
    # a run repeats one drawn pass, each time in its own order
    assert all(sorted(p) == sorted(first[0]) for p in first)


def test_seeds_vary_the_commands():
    plans = {json.dumps(workloads.plan("gap-search", seed, 1)) for seed in range(8)}
    assert len(plans) > 1


def test_every_name_is_plain():
    bench = _benchmark_json()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(workloads.WORKLOADS) + list(run.END_TO_END) + list(layers.PER_LAYER)
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert sorted(m["name"] for m in bench["end_to_end"]) == sorted(run.END_TO_END)
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(layers.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_every_drawable_command_has_a_reference():
    refs = _refs()
    for workload in workloads.WORKLOADS:
        for command in workloads.all_commands(workload):
            assert workloads.command_id(command) in refs, command


def test_reference_reproduction_passes():
    for ref in _refs().values():
        ok, identical, reason = gate.check(ref["exit"], dict(ref["files"]), ref)
        assert ok and identical, reason


def _first_successful_csv():
    for key, ref in sorted(_refs().items()):
        if ref["exit"] == 0 and key.startswith("kernel-decay"):
            return ref
    raise AssertionError("no kernel-decay reference")


def test_corrupted_reference_counts_as_failure():
    ref = _first_successful_csv()
    outputs = dict(ref["files"])
    lines = ref["files"][""].splitlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-3))
    corrupted = dict(ref, files=dict(ref["files"], **{"": "\n".join(
        [lines[0], ",".join(fields)] + lines[2:]) + "\n"}))
    ok, identical, reason = gate.check(0, outputs, corrupted)
    assert not ok and not identical and "CSV row 1" in reason


def test_last_digit_change_passes_but_is_not_identical():
    ref = _first_successful_csv()
    lines = ref["files"][""].splitlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-9))
    outputs = dict(ref["files"], **{"": "\n".join([lines[0], ",".join(fields)] + lines[2:])
                                    + "\n"})
    ok, identical, _ = gate.check(0, outputs, ref)
    assert ok and not identical


def test_unexpected_exit_fails_and_known_failure_passes():
    ref = _first_successful_csv()
    assert not gate.check(2, {}, ref)[0]
    known = {"exit": 4, "files": {}}
    assert gate.check(4, {}, known)[0]
    assert not gate.check(3, {}, known)[0]


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, {}],
        ["spherical.phi_matrix", 1.0, 6.0, 0, {"cells": 6, "bytes": 48}],
        ["spherical.spherical_function", 1.5, 3.0, 1, {}],
        ["spherical.spherical_function", 3.0, 5.0, 1, {}],
        ["spherical.phi_matrix", 7.0, 7.5, 0, {"cells": 6, "bytes": 48}],
        ["grids.uniform_grid", 8.0, 9.0, 0, {}],
        ["grids.RadialGrid.integrate", 8.2, 8.4, 5, {}],
    ]
    m = layers.aggregate([spans], 1.0)
    assert m["spherical.phi_matrix.calls"] == 2
    assert m["spherical.phi_matrix.builds"] == 1
    assert m["spherical.phi_matrix.hit_ratio"] == 0.5
    assert m["spherical.phi_matrix.cells_built"] == 6
    assert m["spherical.spherical_function.self_s"] == pytest.approx(3.5)
    assert m["grids.busy_s"] == pytest.approx(1.0)   # nested grid span not counted twice
    assert m["grids.busy_frac"] == pytest.approx(0.1)


def test_two_traced_runs_give_identical_counts(tmp_path):
    root = os.path.dirname(HERE)
    checkout = run.Checkout(root, str(tmp_path))
    command = ("kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
               "--r-spec", "2,3,4,5", "--eps-reg", "0.01")
    counts = []
    for tag in ("one", "two"):
        results, _, span_lists = run.run_pass(checkout, [command], {}, tag, trace=True)
        assert results[0].code == 0
        metrics = layers.aggregate(span_lists, 1.0)
        counts.append({k: v for k, v in metrics.items() if layers.PER_LAYER[k] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["spherical.regularized_kernel.panels"] > 0
    assert counts[0]["special.bessel_j_scaled.calls"] == 0


def test_known_failure_is_still_held_to_its_data():
    ref = _refs()[workloads.command_id(workloads.README_ASYMPTOTICS)]
    assert ref["exit"] == 4
    assert gate.check(4, dict(ref["files"]), ref)[0]
    lines = ref["files"][""].splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) * 1.01)
    bad = dict(ref["files"], **{"": "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"})
    assert not gate.check(4, bad, ref)[0]
    # a fixed fit that exits 0 passes on its data alone
    assert gate.check(0, {"": ref["files"][""], ".summary.json": "{}"}, ref)[0]
