"""Workload menus and the seeded command plan.

Every workload is a fixed list of slots. A slot is either one fixed command
(a README example, or a command known to fail at the recorded commit) or a
menu of interchangeable variants. The seed picks one variant per menu slot
once per run, and a run repeats that one pass several times, each time in
a seeded order. Variants of one slot run the same code at the same grid
sizes, so a pass costs the same whatever the seed: the seed changes the
inputs, not the amount of work.

Each menu is finite, so every command any seed can produce has a recorded
reference (see record_references.py).
"""

import random

README_LADDER = "0.05,0.025,0.0125,0.00625"

# The README bubble-asymptotics example. It exits 4 at the recorded commit:
# its L2 slope is 1.872 against the target 2 +- 0.1.
README_ASYMPTOTICS = ("bubble-asymptotics", "--n", "5", "--s", "1", "--delta", "0.2",
                      "--eps-ladder", README_LADDER)
# The spline gap scan (gjms, R = 3.5) the roadmap times. It exits 2 at the
# recorded commit: the spline search stops at 501 evaluations.
SPLINE_BUDGET_FAILURE = ("gap-scan", "--kind", "gjms", "--n", "3", "--s", "1",
                         "--lambda-spec=0", "--family", "spline",
                         "--spline-radius", "3.5")


def _blowdown():
    # blow-down needs the intertwined calibration trial at b_max = 8, which
    # closes its spectral tail only at (n, s) = (3, 1); lambda sets the size
    # of the phi_matrix build, so it stays at the README's 0.3 and the seed
    # draws the N table, which is closed-form and costs nothing
    return [("blowdown", "--n", "3", "--s", "1", "--lambda", "0.3", "--n-spec", spec)
            for spec in ("4,16,64,256", "2,8,32,128,512", "3,9,27,81,243")]


def _kernel_decay():
    return [("kernel-decay", "--kind", "intertwined", "--n", n, "--s", s,
             "--r-spec", radii, "--eps-reg", "0.01")
            for n, s in (("3", "0.6"), ("5", "0.7"))
            for radii in ("2,3,4,5,6", "2,3.5,4.5,5,6")]


def _bubble_scans():
    # two lambda of the README bubble gap-scan grid (0:0.25:6) per command
    return [("gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
             "--lambda-spec=" + lam, "--family", "bubble")
            for lam in ("0:0.25:2", "0.05:0.2:2", "0.1:0.15:2")]


# A slot is ("fixed", command) or ("menu", [commands]).
WORKLOADS = {
    "spectral-build": [("menu", _blowdown()), ("menu", _kernel_decay())],
    "gap-search": [("fixed", README_ASYMPTOTICS), ("menu", _bubble_scans()),
                   ("fixed", SPLINE_BUDGET_FAILURE)],
}


# Wall time of one pass at the reference commit, on the 2-CPU Xeon the
# benchmark was tuned on. A run repeats the pass the whole number of times
# nearest to seconds / NOMINAL_PASS_S, and at least MIN_PASSES times, so a
# run of a long pass measures longer than asked. The count is fixed per
# workload rather than set by how fast the machine happens to be, because
# the end-to-end timings take the fastest repeat of each command, and a
# count that grew on a fast machine would itself lower them.
NOMINAL_PASS_S = {"spectral-build": 7.5, "gap-search": 16.5}
MIN_PASSES = 3


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def plan(workload, seed, count):
    """`count` passes of the seed's commands, each in its own seeded order;
    a seed always yields the same commands in the same orders."""
    rng = random.Random(f"{workload}:{seed}")
    commands = [body if kind == "fixed" else rng.choice(body)
                for kind, body in WORKLOADS[workload]]
    return [rng.sample(commands, len(commands)) for _ in range(count)]


def all_commands(workload):
    """Every command a seed can produce for the workload."""
    out = []
    for kind, body in WORKLOADS[workload]:
        out.extend([body] if kind == "fixed" else body)
    return out


def command_id(command):
    """The reference key of a command: its flags without --out."""
    return " ".join(command)
