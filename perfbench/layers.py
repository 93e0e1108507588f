"""Per-layer metrics from the spans of one traced pass.

A span's busy time is its duration; its self time is the duration minus the
part its child spans cover. Busy time of a function or layer counts only
its outermost spans, so recursion and same-layer nesting are not counted
twice. Counts are taken at the layer boundaries from outside the package:

* a phi_matrix build is a phi_matrix call that reaches spherical_function;
  the others are cache hits. Cells and bytes built are computed from the
  shapes of the returned arrays, not measured;
* a kernel panel is a spherical_function call under regularized_kernel;
* a quotient evaluation is a bubble_quotient or spline_trial call under
  minimize_quotient; it is useful when it yields a finite quotient
  (bubble_quotient, or sobolev_quotient without a tail-guard reject).
"""

import statistics

# name -> unit, in the order the metrics are reported
PER_LAYER = {
    "cli.import_s": "s",
    "cli.output_s": "s",
    "special.log_abs_gamma_sq.calls": "count",
    "special.log_abs_gamma_sq.busy_s": "s",
    "special.log_abs_gamma_sq.points": "count",
    "special.bessel_j_scaled.calls": "count",
    "special.bessel_j_scaled.busy_s": "s",
    "special.bessel_j_scaled.points": "count",
    "multipliers.multiplier.calls": "count",
    "multipliers.multiplier.busy_s": "s",
    "grids.busy_s": "s",
    "grids.busy_frac": "ratio",
    "geometry.busy_s": "s",
    "geometry.busy_frac": "ratio",
    "spherical.phi_matrix.calls": "count",
    "spherical.phi_matrix.builds": "count",
    "spherical.phi_matrix.hit_ratio": "ratio",
    "spherical.phi_matrix.build_s": "s",
    "spherical.phi_matrix.cells_built": "count",
    "spherical.phi_matrix.bytes_built": "B",
    "spherical.spherical_function.calls": "count",
    "spherical.spherical_function.self_s": "s",
    "spherical.regularized_kernel.calls": "count",
    "spherical.regularized_kernel.busy_s": "s",
    "spherical.regularized_kernel.panels": "count",
    "spherical.quadratic_form.calls": "count",
    "spherical.quadratic_form.self_s": "s",
    "bubbles.fractional_energy.calls": "count",
    "bubbles.fractional_energy.busy_s": "s",
    "bubbles.bubble_energy_baseline.busy_s": "s",
    "bubbles.smooth_window.busy_s": "s",
    "quotients.evals": "count",
    "quotients.eval_s": "s",
    "quotients.useful_ratio": "ratio",
    "quotients.distinct_trial_ratio": "ratio",
    "quotients.budget_hits": "count",
    "trace.overhead_ratio": "ratio",
}

OUTPUT_FUNCTIONS = ("cli.write_csv", "cli.write_json", "cli.write_manifest")


def _layer_of(name):
    return name.split(".", 1)[0]


def _ratio(num, den):
    return num / den if den else 0.0


class _Command:
    """Indexes of one command's spans: children, spans by name, and for each
    span a bit mask of the names and layers it runs inside (itself included).
    Spans are stored in call order, so a parent precedes its children."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        self.by_name = {}
        self.bits = {}
        self.inside = []
        for i, (name, _, _, parent, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            own = self._bit(name) | self._bit("layer:" + _layer_of(name))
            if parent >= 0:
                self.children[parent].append(i)
                own |= self.inside[parent]
            self.inside.append(own)

    def _bit(self, key):
        return self.bits.setdefault(key, 1 << len(self.bits))

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def under(self, i, key):
        """Whether span i runs inside a span of `key` (a name or "layer:x")."""
        parent = self.spans[i][3]
        return parent >= 0 and bool(self.inside[parent] & self.bits.get(key, 0))

    def named(self, name):
        return self.by_name.get(name, [])

    def busy(self, key):
        """Summed duration of the outermost spans of `key`."""
        if key.startswith("layer:"):
            layer = key[len("layer:"):]
            idx = [i for i, s in enumerate(self.spans) if _layer_of(s[0]) == layer]
        else:
            idx = self.named(key)
        return sum(self.duration(i) for i in idx if not self.under(i, key))


def aggregate(commands, overhead_ratio):
    """Per-layer metric values for one traced pass.

    commands: the span lists of the pass's commands, one per command.
    """
    total = {name: 0.0 for name in PER_LAYER}
    import_s = []
    command_s = 0.0
    evals = useful = distinct = 0
    for spans in commands:
        c = _Command(spans)

        def add(key, value):
            total[key] += value

        for i in c.named("cli.import"):
            import_s.append(c.duration(i))
        for i in c.named("cli.main"):
            command_s += c.duration(i)
        # the output functions do not nest in one another
        add("cli.output_s", sum(c.busy(fn) for fn in OUTPUT_FUNCTIONS))

        for fn in ("special.log_abs_gamma_sq", "special.bessel_j_scaled"):
            idx = c.named(fn)
            add(f"{fn}.calls", len(idx))
            add(f"{fn}.points", sum(c.spans[i][4].get("points", 0) for i in idx))
            add(f"{fn}.busy_s", c.busy(fn))
        for fn in ("multipliers.multiplier", "spherical.regularized_kernel",
                   "bubbles.fractional_energy"):
            add(f"{fn}.calls", len(c.named(fn)))
            add(f"{fn}.busy_s", c.busy(fn))
        for fn in ("bubbles.bubble_energy_baseline", "bubbles.smooth_window"):
            add(f"{fn}.busy_s", c.busy(fn))
        for layer in ("grids", "geometry"):
            add(f"{layer}.busy_s", c.busy("layer:" + layer))

        for fn in ("spherical.spherical_function", "spherical.quadratic_form"):
            idx = c.named(fn)
            add(f"{fn}.calls", len(idx))
            add(f"{fn}.self_s", sum(c.self_time(i) for i in idx))

        for i in c.named("spherical.phi_matrix"):
            add("spherical.phi_matrix.calls", 1)
            built = any(c.spans[k][0] == "spherical.spherical_function" for k in c.children[i])
            if built:
                extra = c.spans[i][4]
                add("spherical.phi_matrix.builds", 1)
                add("spherical.phi_matrix.build_s", c.duration(i))
                add("spherical.phi_matrix.cells_built", extra.get("cells", 0))
                add("spherical.phi_matrix.bytes_built", extra.get("bytes", 0))
        add("spherical.regularized_kernel.panels", sum(
            1 for i in c.named("spherical.spherical_function")
            if c.under(i, "spherical.regularized_kernel")))

        def in_search(i):
            return c.under(i, "quotients.minimize_quotient")

        attempts = [i for i in c.named("quotients.bubble_quotient")
                    + c.named("quotients.spline_trial") if in_search(i)]
        priced = [i for i in c.named("quotients.bubble_quotient")
                  + c.named("quotients.sobolev_quotient") if in_search(i)]
        evals += len(attempts)
        useful += sum(1 for i in priced if "error" not in c.spans[i][4])
        distinct += len({c.spans[i][4]["trial"] for i in attempts})
        add("quotients.eval_s", sum(c.duration(i) for i in attempts)
            + sum(c.duration(i) for i in c.named("quotients.sobolev_quotient") if in_search(i)))
        add("quotients.budget_hits", sum(
            1 for i in c.named("quotients.minimize_quotient")
            if c.spans[i][4].get("error") == "BudgetExceeded"))

    calls = total["spherical.phi_matrix.calls"]
    total["spherical.phi_matrix.hit_ratio"] = _ratio(
        calls - total["spherical.phi_matrix.builds"], calls)
    total["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    total["grids.busy_frac"] = _ratio(total["grids.busy_s"], command_s)
    total["geometry.busy_frac"] = _ratio(total["geometry.busy_s"], command_s)
    total["quotients.evals"] = evals
    total["quotients.useful_ratio"] = _ratio(useful, evals)
    total["quotients.distinct_trial_ratio"] = _ratio(distinct, evals)
    total["trace.overhead_ratio"] = overhead_ratio
    return {name: (int(v) if PER_LAYER[name] in ("count", "B") else v)
            for name, v in total.items()}
