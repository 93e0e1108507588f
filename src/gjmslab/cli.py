"""Batch driver: every experiment as a subcommand emitting diff-able CSV/JSON
plus a run manifest.

Exit codes: 0 success, 2 bad input (ParameterError, or a flag argparse
rejects), 3 I/O failure, 4 acceptance-fit failure, 5 numerical-contract
failure (NumericalError; BudgetExceeded is one). Re-running with identical
flags gives byte-identical data files; the timestamps live only in the
manifest sidecar.

Provenance: the manifest's "source" names the package by its version and the
CRC-32 of its module sources (_source_digest), read from the package's own
files. No command starts a child process or reads a git repository.

BLAS threads and heap: a command run as `gjms-lab` (the console script,
gjmslab.entry.main) or as `python -m gjmslab.cli` uses one BLAS thread,
unless the user has set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS, and imports with the cyclic collector off, then freezes
what the imports made and runs with the collector on (gjmslab.entry). The
manifest records the three variables as the run saw them. `import
gjmslab.cli` and a main() called from Python leave the environment, and so
the thread count, and the collector as they are.
"""

from .entry import BLAS_THREAD_VARS, begin_imports, end_imports

if __name__ == "__main__":
    begin_imports()   # python -m gjmslab.cli: before the command's imports

import argparse
import datetime
import json
import math
import os
import resource
import sys

import numpy as np

from . import __version__, spherical
from .bubbles import bubble_asymptotics
from .errors import GjmsLabError, NumericalError, ParameterError
from .grids import BLOCK_CELLS
from .multipliers import b_constant, gap_constant, multiplier, spectral_bottom
from .params import MultiplierKind, Params
from .quotients import BubbleFamily, SplineFamily, blowdown, gap_scan, \
    sharp_constant_estimate
from .spherical import DEFAULT_B_MAX, DEFAULT_TAIL_TOL, kernel_decay
from .special import SERIES_CAP, SERIES_TOL

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def _source_digest():
    """The source tree this package was loaded from: the package version and
    the CRC-32 over its module sources, file names included, as 8 hex digits
    ("0.1.0+crc32.89abcdef"). It reads only the package's own files, so it
    is the same inside or outside a git work tree and from any working
    directory, and any edit to a module changes it. numpy has loaded zlib
    already; hashlib would load OpenSSL (about 3.5 MB of resident memory)."""
    import zlib

    digest = 0
    for name in sorted(os.listdir(_PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(_PACKAGE_DIR, name), "rb") as fh:
                digest = zlib.crc32(name.encode() + b"\0" + fh.read(), digest)
    return f"{__version__}+crc32.{digest:08x}"


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _scipy_modules():
    """The public scipy subpackages (scipy.special, ...) loaded so far."""
    return sorted(name for name, module in list(sys.modules.items())
                  if name.startswith("scipy.") and name.count(".") == 1
                  and not name.startswith("scipy._") and hasattr(module, "__path__"))


def _max_rss_mb():
    """The process's peak resident memory so far, in MiB (getrusage reports
    kilobytes on Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def write_manifest(out_path, command, params, started_at):
    """The run's sidecar: flags, source digest, start and finish times (UTC,
    ISO 8601; finished when the manifest is written), tolerances, the scipy
    subpackages the run loaded, the BLAS thread variables as the run saw
    them (null when unset) and the peak resident memory up to the manifest
    (max_rss_mb)."""
    manifest = {
        "command": command,
        "params": {k: (v if not isinstance(v, (list, tuple)) else list(v))
                   for k, v in sorted(params.items())},
        "source": _source_digest(),
        "started_at": started_at,
        "finished_at": _now(),
        "tolerances": {"series_tol": SERIES_TOL, "series_cap": SERIES_CAP,
                       "tail_tol": DEFAULT_TAIL_TOL},
        "scipy_modules": _scipy_modules(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "max_rss_mb": _max_rss_mb(),
    }
    write_json(out_path + ".manifest.json", manifest)


def write_csv(out_path, header, rows):
    """The header, then each row of the iterable rows as it is formatted."""
    with open(out_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                      for row in rows)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_outputs(args, header, rows, summary=None):
    """The command's CSV, its summary JSON when it has one, and the manifest."""
    write_csv(args.out, header, rows)
    if summary is not None:
        write_json(args.out + ".summary.json", summary)
    write_manifest(args.out, args.subcommand, vars_of(args), args.started_at)


def finite_float(text):
    """float(text), or ValueError when it is nan or infinite; the argparse
    type of every float flag."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _parse_floats(spec):
    try:
        values = [finite_float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"could not parse a finite float list from {spec!r}")
    if not values:
        raise ParameterError("empty value list")
    return values


def _parse_lambda_spec(spec):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParameterError("lambda spec must be start:stop:count or a comma list")
        try:
            start, stop, count = finite_float(parts[0]), finite_float(parts[1]), int(parts[2])
        except ValueError:
            raise ParameterError(f"bad lambda spec {spec!r}")
        if count < 1:
            raise ParameterError("lambda count must be >= 1")
        if count > spherical.MAX_TABLE_CELLS:
            raise ParameterError(f"lambda_spec {spec!r} asks for too much work: a lambda grid "
                                 f"of {count:.3g} cells, more than {spherical.MAX_TABLE_CELLS:.0e}")
        return np.linspace(start, stop, count).tolist()
    return _parse_floats(spec)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    p = Params(args.n, args.s)
    payload = {
        "n": p.n,
        "s": p.s,
        "rho": p.rho,
        "two_star": p.two_star,
        "lambda0": spectral_bottom(MultiplierKind.GJMS, p),
        "lambda0_tilde": spectral_bottom(MultiplierKind.INTERTWINED, p),
        "b": b_constant(p.s),
        "gap": gap_constant(p.s),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_multiplier(args) -> int:
    p = Params(args.n, args.s)
    kind = MultiplierKind(args.kind)
    if args.count < 2 or args.beta_max <= 0:
        raise ParameterError("need count >= 2 and beta-max > 0")
    if args.count > spherical.MAX_TABLE_CELLS:
        raise ParameterError(f"count {args.count} asks for too much work: a table of "
                             f"{args.count:.3g} cells, more than {spherical.MAX_TABLE_CELLS:.0e}")
    betas = np.linspace(0.0, args.beta_max, args.count)
    values = np.empty_like(betas)   # every block priced before the file is opened
    blocks = [slice(j, j + BLOCK_CELLS) for j in range(0, args.count, BLOCK_CELLS)]
    for block in blocks:
        values[block] = multiplier(kind, p, betas[block])
    _write_outputs(args, ["beta", "value"], (row for block in blocks for row in
                                             zip(betas[block].tolist(), values[block].tolist())))
    return 0


def cmd_bubble_asymptotics(args) -> int:
    rows, summary = bubble_asymptotics(Params(args.n, args.s), args.delta,
                                       _parse_floats(args.eps_ladder))
    _write_outputs(args, ["eps", "crit_mass", "l2_mass", "energy"], rows, summary)
    if not all(block["passed"] for block in summary.values()):
        return 4
    return 0


def _family_from_args(args):
    if args.family == "bubble":
        return BubbleFamily()
    return SplineFamily(knots=args.spline_knots, radius=args.spline_radius,
                        grading=args.spline_grading)


def cmd_gap_scan(args) -> int:
    p = Params(args.n, args.s)
    kind = MultiplierKind(args.kind)
    lambdas = _parse_lambda_spec(args.lambda_spec)
    family = _family_from_args(args)
    s_est = sharp_constant_estimate(p)
    reports = gap_scan(kind, p, lambdas, family, b_max=args.b_max)
    rows = [(float(lam), rep.quotient, rep.quotient / s_est - 1.0, rep.trial_descriptor)
            for lam, rep in zip(lambdas, reports)]
    _write_outputs(args, ["lambda", "quotient", "margin_vs_Sest", "trial_descriptor"], rows)
    return 0


def cmd_kernel_decay(args) -> int:
    rows, summary = kernel_decay(MultiplierKind(args.kind), Params(args.n, args.s),
                                 _parse_floats(args.r_spec), args.eps_reg)
    _write_outputs(args, ["r", "k_eps", "log_abs_k"], rows, summary)
    return 0


def cmd_blowdown(args) -> int:
    rows, summary = blowdown(Params(args.n, args.s), args.lam, _parse_floats(args.n_spec))
    _write_outputs(args, ["N", "R_N", "bound", "scaled_bound"], rows, summary)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def vars_of(args):
    skip = {"func", "started_at"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def build_parser():
    parser = argparse.ArgumentParser(prog="gjms-lab",
                                     description="spectral/variational experiments driver")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--s", type=finite_float, required=True)

    sp = sub.add_parser("constants", help="closed-form spectral constants as JSON")
    add_common(sp)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("multiplier", help="spectral symbol samples as CSV")
    add_common(sp)
    sp.add_argument("--kind", choices=[kind.value for kind in MultiplierKind], required=True)
    sp.add_argument("--beta-max", type=finite_float, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=cmd_multiplier)

    sp = sub.add_parser("bubble-asymptotics", help="cut-off bubble mass/energy ladders")
    add_common(sp)
    sp.add_argument("--delta", type=finite_float, required=True)
    sp.add_argument("--eps-ladder", type=str, required=True)
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=cmd_bubble_asymptotics)

    sp = sub.add_parser("gap-scan", help="minimized Poincare-Sobolev quotients over lambda")
    add_common(sp)
    sp.add_argument("--kind", choices=["gjms", "intertwined"], required=True)
    sp.add_argument("--lambda-spec", type=str, required=True)
    sp.add_argument("--family", choices=["bubble", "spline"], required=True)
    sp.add_argument("--b-max", type=finite_float, default=DEFAULT_B_MAX)
    sp.add_argument("--spline-knots", type=int, default=SplineFamily.knots)
    sp.add_argument("--spline-radius", type=finite_float, default=SplineFamily.radius)
    sp.add_argument("--spline-grading", type=finite_float, default=SplineFamily.grading)
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=cmd_gap_scan)

    sp = sub.add_parser("kernel-decay", help="regularized radial kernel decay")
    add_common(sp)
    sp.add_argument("--kind", choices=[kind.value for kind in MultiplierKind], required=True)
    sp.add_argument("--r-spec", type=str, required=True)
    sp.add_argument("--eps-reg", type=finite_float, required=True)
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=cmd_kernel_decay)

    sp = sub.add_parser("blowdown", help="explicit multi-bump blow-down bound table")
    add_common(sp)
    sp.add_argument("--lambda", dest="lam", type=finite_float, required=True)
    sp.add_argument("--n-spec", type=str, required=True)
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=cmd_blowdown)

    return parser


def main(argv=None) -> int:
    started_at = _now()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.started_at = started_at
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 5
    except GjmsLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    end_imports()
    sys.exit(main())
