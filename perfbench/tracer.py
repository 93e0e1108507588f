"""Traced child: run one gjms-lab command with every public function of the
gjmslab layers wrapped in a span recorder.

    python3 perfbench/tracer.py SPANS.json -- <gjms-lab arguments>

Spans (name, start, end, parent, extra) stay in memory and are written to
SPANS.json when the command returns. The package is not modified: wrappers
replace the function objects in every gjmslab module namespace that binds
them, because modules import each other's functions by name (quotients
binds quadratic_form, spherical and multipliers bind log_abs_gamma_sq).
"""

import functools
import json
import sys
import time
import types

LAYERS = ("special", "multipliers", "geometry", "grids", "spherical", "bubbles",
          "quotients", "cli")


np = None   # bound by install(), after the timed package import


def _points(name, args):
    """Grid points a special-function call evaluates (None when not counted)."""
    if name == "special.log_abs_gamma_sq":
        return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)
    if name == "special.bessel_j_scaled":
        return int(np.asarray(args[1]).size)
    return None


def _trial_key(name, args):
    """Identity of the trial a quotient evaluation prices, lambda excluded."""
    if name == "quotients.bubble_quotient":
        kind, p, _lam, bp = args[:4]
        return repr((kind.value, p.n, p.s, bp.eps, bp.delta))
    if name == "quotients.spline_trial":
        family, theta, p = args[:3]
        return repr((family, p.n, p.s)) + np.asarray(theta, dtype=float).tobytes().hex()
    return None


class Recorder:
    """Span store: one list entry per call, parents by index."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            points = _points(name, args)
            if points is not None:
                span[4]["points"] = points
            key = _trial_key(name, args)
            if key is not None:
                span[4]["trial"] = key
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            size = getattr(result, "size", None)
            if isinstance(size, int) and hasattr(result, "nbytes"):
                span[4]["cells"] = size
                span[4]["bytes"] = int(result.nbytes)
            return result

        return functools.wraps(fn)(traced)


def _public_targets(modules):
    """{id: (span name, function, owner)} for every public function and
    method defined in a layer module; owner is None for module functions and
    (class, attribute, binder) for methods."""
    targets = {}
    for layer, mod in modules.items():
        for attr, value in vars(mod).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, types.FunctionType):
                targets[id(value)] = (f"{layer}.{attr}", value, None)
            elif isinstance(value, type):
                for meth, raw in vars(value).items():
                    if meth.startswith("_"):
                        continue
                    if isinstance(raw, types.FunctionType):
                        targets[id(raw)] = (f"{layer}.{attr}.{meth}", raw, (value, meth, None))
                    elif isinstance(raw, (classmethod, staticmethod)):
                        targets[id(raw)] = (f"{layer}.{attr}.{meth}", raw.__func__,
                                            (value, meth, type(raw)))
    return targets


def install(recorder):
    """Wrap every public layer function in every gjmslab namespace."""
    global np
    import numpy
    np = numpy
    modules = {layer: sys.modules[f"gjmslab.{layer}"] for layer in LAYERS}
    targets = _public_targets(modules)
    wrapped = {}
    for name, fn, owner in targets.values():
        traced = recorder.wrap(name, fn)
        if owner is None:
            wrapped[id(fn)] = traced
        else:
            cls, meth, binder = owner
            setattr(cls, meth, binder(traced) if binder else traced)
    namespaces = [sys.modules["gjmslab"]] + list(modules.values())
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            traced = wrapped.get(id(value))
            if traced is not None:
                setattr(ns, attr, traced)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <gjms-lab arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import gjmslab.cli
    t1 = time.perf_counter()
    recorder = Recorder()
    install(recorder)
    recorder.spans.append(["cli.import", t0, t1, -1, {}])
    try:
        code = gjmslab.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
