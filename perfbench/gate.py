"""Reference gate: compare one command's outputs with the outputs recorded
at the reference commit.

Tolerances come from the acceptance suite (tests/test_acceptance.py):

* computed values (masses, energies, kernel values, bounds, slopes): 1e-4
  relative, the bound criteria 4 and 8 put on the Plancherel identity and
  the bubble energy;
* optimizer results: quotients 1e-3 relative and gap margins 1e-3
  absolute, the margin criterion 10 demands.

Byte identity is reported but not required, so a route change that moves
the last digits passes. The optimizer's trial descriptor is free text and is
only part of the byte-identity report.
"""

import json
import math
import os

VALUE_RTOL = 1e-4
VALUE_ATOL = 0.0
COLUMN_TOL = {                   # column -> (rtol, atol)
    "quotient": (1e-3, 0.0),
    "margin_vs_Sest": (0.0, 1e-3),
}
UNCHECKED_COLUMNS = {"trial_descriptor"}
OUTPUT_SUFFIXES = ("", ".summary.json")   # the manifest holds a timestamp


def read_outputs(out_path):
    """{suffix: text} for every data file a command wrote."""
    found = {}
    for suffix in OUTPUT_SUFFIXES:
        path = out_path + suffix
        if os.path.exists(path):
            with open(path) as fh:
                found[suffix] = fh.read()
    return found


def record(exit_code, outputs):
    """The reference entry of one command."""
    return {"exit": exit_code, "files": outputs}


def _close(a, b, rtol, atol):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


def _number(tok):
    try:
        return float(tok)
    except ValueError:
        return None


def _compare_csv(got, ref):
    ref_lines, got_lines = ref.splitlines(), got.splitlines()
    if not ref_lines or got_lines[:1] != ref_lines[:1]:
        return "CSV header differs"
    # the last column (a trial descriptor) may itself hold commas
    cut = ref_lines[0].count(",")
    got_rows = [line.split(",", cut) for line in got_lines]
    ref_rows = [line.split(",", cut) for line in ref_lines]
    if len(got_rows) != len(ref_rows):
        return f"CSV has {len(got_rows) - 1} rows, reference {len(ref_rows) - 1}"
    header = ref_rows[0]
    for i, (g_row, r_row) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=1):
        if len(g_row) != len(r_row):
            return f"CSV row {i} has {len(g_row)} fields, reference {len(r_row)}"
        for col, g, r in zip(header, g_row, r_row):
            if col in UNCHECKED_COLUMNS:
                continue
            gv, rv = _number(g), _number(r)
            if gv is None or rv is None:
                if g != r:
                    return f"CSV row {i} {col}: {g!r} != {r!r}"
                continue
            rtol, atol = COLUMN_TOL.get(col, (VALUE_RTOL, VALUE_ATOL))
            if not _close(gv, rv, rtol, atol):
                return f"CSV row {i} {col}: {g} vs reference {r}"
    return None


def _compare_tree(got, ref, where):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return f"{where}: keys differ"
        for key in ref:
            err = _compare_tree(got[key], ref[key], f"{where}.{key}")
            if err:
                return err
        return None
    if isinstance(ref, bool) or isinstance(got, bool) or not isinstance(ref, (int, float)):
        return None if got == ref else f"{where}: {got!r} != {ref!r}"
    if not isinstance(got, (int, float)):
        return f"{where}: {got!r} is not a number"
    return None if _close(float(got), float(ref), VALUE_RTOL, VALUE_ATOL) \
        else f"{where}: {got!r} vs reference {ref!r}"


def check(exit_code, outputs, ref):
    """(gate_ok, byte_identical, reason) for one command.

    A command may exit 0 or with its recorded code; any other exit is a new
    failure. A command that failed at the reference commit is held only to
    its recorded data file, whatever it exits now: its summary carries the
    verdict that was failing.
    """
    if exit_code not in (0, ref["exit"]):
        return False, False, f"exit {exit_code}, reference exit {ref['exit']}"
    identical = exit_code == ref["exit"] and outputs == ref["files"]
    for suffix, ref_text in ref["files"].items():
        if ref["exit"] != 0 and suffix != "":
            continue
        if suffix not in outputs:
            return False, False, f"missing output {suffix or 'csv'}"
        if suffix == "":
            err = _compare_csv(outputs[suffix], ref_text)
        else:
            try:
                got = json.loads(outputs[suffix])
            except ValueError:
                return False, False, f"unparsable {suffix}"
            err = _compare_tree(got, json.loads(ref_text), suffix)
        if err:
            return False, False, err
    if exit_code == 0 and "" not in outputs:
        return False, False, "missing output csv"
    return True, identical, None
