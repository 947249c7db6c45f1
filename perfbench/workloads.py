"""Seeded job generator for the three benchmark workloads.

A job list is a sequence of passes of ``PASS_BLOCKS`` blocks, and every
block holds one job of each template of the workload. Two random streams
fill a template:

* the *plan* stream depends only on the block's place in its pass, not on
  the seed. It makes the choices that set a job's cost: group, cost
  budget, measure support, sizes, truncation threshold. Every pass of every
  seed has the same job mix, so a run of whole passes has the same mix;
* the *seeded* stream runs on through all passes and picks the values:
  measure weights, cylinder-function values, cocycle levels, G-space
  permutations, sampler seeds, and the job order inside each block.

Every job is sized with a cheap predicted-cost formula (an upper bound on
the work, in microseconds, calibrated on a 2.1 GHz virtual machine) against
a per-job budget, so no job dominates a run. The formulas also keep two
measured traps out:

* float64 convolution truncates at 1e-4 or coarser; free:2 at ``1e-6`` and
  ``--n-max 14`` took 23 s, the atom bound ``1/threshold`` is what caps it;
* heisenberg Monte Carlo uses ``--ball-radius`` = ``--steps`` (a walk of n
  steps stays in the radius-n ball; a smaller ball exits 1).

This module uses only the standard library, so generating the inputs does
not depend on the program under test.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

WORKLOADS = ("exact", "identities", "approx")
PASS_BLOCKS = 16     # blocks per pass: one period of the plan stream
PASSES = 4           # passes generated; a run cycles them if it needs more

# Calibration of the cost formulas (microseconds).
US_CLI = 1500             # argparse, report building and JSON emit
US_EXACT_PAIR = 15        # one Fraction product + checked Group.mul + dict
US_FLOAT_PAIR = 6         # the same in float64
US_TABLE_EVAL = 10        # one f_k term: mul + two norms + Fraction ops
US_FRACTION_ADD = 3       # one Cesaro sum term in phi_from_fk
US_STEP = 1.0             # one sampled walk step
US_TRAJECTORY = 25        # substream() plus per-trajectory bookkeeping
US_BALL_ELEMENT = 15      # one BFS element (4-6 checked products)
US_POOL = 25000           # starting and joining a 2-process pool


@dataclass(frozen=True)
class Job:
    """One benchmark job: a CLI argv or a library call, plus its checks.

    ``args`` is the argv (``{cache}`` and ``{work}`` are filled in at run
    time) for ``kind == "cli"``, or the keyword arguments of a library call
    named by ``kind``. ``check`` names the result check; jobs sharing a
    ``twin`` label must agree on the ``check``-specific projection.
    """
    kind: str
    args: Tuple
    check: str
    cost_us: int
    twin: Optional[str] = None
    files: Tuple[Tuple[str, str], ...] = field(default=())

    @property
    def key(self) -> str:
        blob = json.dumps([self.kind, list(self.args), list(self.files)],
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- elements and measures -----------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Lamplighter and heisenberg elements of word norm 1 and 2, as
# (element string, inverse string, norm); closed under inversion.
_LAMPLIGHTER = [
    ("{}|1", "{}|-1", 1), ("{}|-1", "{}|1", 1), ("{0}|0", "{0}|0", 1),
    ("{}|2", "{}|-2", 2), ("{}|-2", "{}|2", 2),
    ("{1}|1", "{0}|-1", 2), ("{0}|-1", "{1}|1", 2),
    ("{0}|1", "{-1}|-1", 2), ("{-1}|-1", "{0}|1", 2),
]
_HEISENBERG_GENS = [
    ("1,0,0", "-1,0,0", 1), ("-1,0,0", "1,0,0", 1),
    ("0,1,0", "0,-1,0", 1), ("0,-1,0", "0,1,0", 1),
]
_HEISENBERG = _HEISENBERG_GENS + [
    ("2,0,0", "-2,0,0", 2), ("-2,0,0", "2,0,0", 2),
    ("0,2,0", "0,-2,0", 2), ("0,-2,0", "0,2,0", 2),
    ("1,1,1", "-1,-1,0", 2), ("-1,-1,0", "1,1,1", 2),
    ("1,1,0", "-1,-1,1", 2), ("-1,-1,1", "1,1,0", 2),
    ("1,-1,-1", "-1,1,0", 2), ("-1,1,0", "1,-1,-1", 2),
    ("1,-1,0", "-1,1,-1", 2), ("-1,1,-1", "1,-1,0", 2),
]


def _free_word(word) -> str:
    return "".join(_LETTERS[x - 1] if x > 0 else _LETTERS[-x - 1].upper()
                   for x in word)


def _candidates(gid: str, max_norm: int = 2) -> List[Tuple[str, str, int]]:
    """Non-identity elements of norm <= max_norm with inverse and norm."""
    if gid.startswith("zd:"):
        d = int(gid[3:])
        out = []
        rng = range(-max_norm, max_norm + 1)
        vecs = [()]
        for _ in range(d):
            vecs = [v + (x,) for v in vecs for x in rng]
        for v in vecs:
            n = sum(abs(x) for x in v)
            if 0 < n <= max_norm:
                out.append((",".join(map(str, v)),
                            ",".join(str(-x) for x in v), n))
        return out
    if gid.startswith("free:"):
        k = int(gid[5:])
        letters = [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]
        words = [(x,) for x in letters]
        if max_norm >= 2:
            words += [(x, y) for x in letters for y in letters if y != -x]
        return [(_free_word(w), _free_word(tuple(-x for x in reversed(w))),
                 len(w)) for w in words]
    table = _LAMPLIGHTER if gid == "lamplighter" else _HEISENBERG
    return [c for c in table if c[2] <= max_norm]


def random_measure(plan: random.Random, rng: random.Random, gid: str,
                   atoms: int, symmetric: bool, max_norm: int = 2):
    """A measure spec with `atoms` rational atoms (fewer if the group has
    fewer candidates). `plan` picks the support and the multiset of weights,
    which set the cost of exact arithmetic; `rng` assigns the weights to the
    atoms (an inverse pair shares one weight when `symmetric`). Returns
    (spec, atom count, largest atom norm)."""
    order = _candidates(gid, max_norm)
    plan.shuffle(order)
    taken, parts, norm = set(), [], 0     # parts: atoms sharing one weight
    for elem, inv, n in order:
        part = sorted({elem, inv}) if symmetric else [elem]
        if elem in taken or (taken and len(taken) + len(part) > atoms):
            continue
        taken.update(part)
        parts.append(part)
        norm = max(norm, n)
    weights = [plan.randint(1, 5) for _ in parts]
    rng.shuffle(weights)
    total = sum(w * len(part) for w, part in zip(weights, parts))
    spec = sorted(f"{e}={w}/{total}" for w, part in zip(weights, parts)
                  for e in part)
    return ";".join(spec), len(taken), norm


# -- cost formulas -------------------------------------------------------------

def ball_volume(gid: str, r: float) -> float:
    """Upper bound on the number of elements of word norm <= r."""
    if r <= 0:
        return 1
    if gid.startswith("zd:"):
        d = int(gid[3:])
        return (2 * r + 1) ** d
    if gid.startswith("free:"):
        k = int(gid[5:])
        return 1 + 2 * k * ((2 * k - 1) ** r - 1) / max(2 * k - 2, 1)
    if gid == "lamplighter":
        return 5 * 1.8 ** r
    return 1 + 0.6 * r ** 4 + 30 * r        # heisenberg


@functools.lru_cache(maxsize=None)
def support_total(gid: str, m: int, norm: int, steps: int,
                  threshold: float = 0.0) -> float:
    """Upper bound on sum_{j=0..steps} |supp mu^{*j}| (m atoms of norm <=
    `norm`; atoms below `threshold` dropped)."""
    if steps < 0:
        return 0.0
    j = steps
    bound = min(float(m) ** j, ball_volume(gid, j * norm),
                1 / threshold if threshold else math.inf)
    if gid.startswith("zd:"):
        bound = min(bound, math.comb(j + m - 1, m - 1))
    return support_total(gid, m, norm, steps - 1, threshold) + max(bound, 1)


def power_cost(gid: str, m: int, norm: int, n: int,
               threshold: float = 0.0) -> float:
    """Microseconds for mu^{*1..n} along the linear chain."""
    per_pair = US_FLOAT_PAIR if threshold else US_EXACT_PAIR
    return support_total(gid, m, norm, n - 1, threshold) * m * per_pair


def phi_cost(gid: str, m: int, norm: int, n: int, r_eval: int,
             threshold: float = 0.0) -> float:
    points = ball_volume(gid, r_eval)
    return power_cost(gid, m, norm, n - 1, threshold) \
        + points * support_total(gid, m, norm, n - 1, threshold) \
        * US_TABLE_EVAL + points * n * n / 2 * US_FRACTION_ADD


def largest(cost_fn, lo: int, hi: int, budget: float) -> int:
    """Largest size in lo..hi whose predicted cost fits the budget (lo if
    none does); costs grow with the size."""
    best = lo
    for size in range(lo + 1, hi + 1):
        if cost_fn(size) > budget:
            break
        best = size
    return best


# -- templates -----------------------------------------------------------------
#
# Every template takes the plan stream, the seeded stream and a block tag.

EXACT_GROUPS = ("zd:1", "zd:2", "zd:3", "free:2", "free:3", "lamplighter")
ALL_GROUPS = EXACT_GROUPS + ("heisenberg",)
HEIS_RADIUS = 8       # one heisenberg ball per exact run: written, then read


def _budget(plan: random.Random) -> float:
    return plan.choice((50e3, 100e3, 200e3))


def _measure(plan, rng, gid, max_norm=2):
    """(spec, atoms, largest atom norm) with a planned atom count and
    symmetry."""
    atoms, symmetric = plan.randint(2, 6), plan.random() < 0.5
    return random_measure(plan, rng, gid, atoms, symmetric, max_norm)


def _t_drift_exact(plan, rng, tag):
    gid = plan.choice(EXACT_GROUPS)
    spec, m, norm = _measure(plan, rng, gid)
    n = largest(lambda s: power_cost(gid, m, norm, s), 1, 40, _budget(plan))
    return Job("cli", ("drift", "--group", gid, "--measure=" + spec,
                       "--mode", "exact", "--n-max", str(n)),
               "drift_exact", US_CLI + power_cost(gid, m, norm, n))


def _t_drift_free_srw(plan, rng, tag):
    k = plan.choice((2, 3))
    gid = f"free:{k}"
    n = largest(lambda s: power_cost(gid, 2 * k, 1, s), 1, 12, _budget(plan))
    return Job("cli", ("drift", "--group", gid, "--measure", "srw",
                       "--mode", "exact", "--n-max", str(n)),
               "drift_free_srw", US_CLI + power_cost(gid, 2 * k, 1, n))


def _t_drift_heisenberg(plan, rng, tag):
    spec, m, norm = _measure(plan, rng, "heisenberg")
    n = largest(lambda s: power_cost("heisenberg", m, norm, s), 1,
                HEIS_RADIUS // norm, _budget(plan))
    return Job("cli", ("drift", "--group", "heisenberg", "--measure=" + spec,
                       "--mode", "exact", "--n-max", str(n),
                       "--ball-radius", str(HEIS_RADIUS),
                       "--cache-dir", "{cache}"),
               "drift_exact",
               US_CLI + power_cost("heisenberg", m, norm, n))


def _t_entropy_exact(plan, rng, tag):
    gid = plan.choice(ALL_GROUPS)
    spec, m, norm = _measure(plan, rng, gid)
    n = largest(lambda s: power_cost(gid, m, norm, s), 1, 40, _budget(plan))
    return Job("cli", ("entropy", "--group", gid, "--measure=" + spec,
                       "--mode", "exact", "--n-max", str(n)),
               "entropy", US_CLI + power_cost(gid, m, norm, n))


def _t_phi_exact(plan, rng, tag):
    gid = plan.choice(EXACT_GROUPS)
    spec, m, norm = _measure(plan, rng, gid)
    r_eval = max(norm, plan.randint(1, 3))   # phi at the atoms: r_eval >= norm
    n = largest(lambda s: phi_cost(gid, m, norm, s, r_eval), 1, 24,
                _budget(plan))
    return Job("cli", ("phi", "--group", gid, "--measure=" + spec,
                       "--mode", "exact", "--method", "convolution",
                       "--n", str(n), "--r-eval", str(r_eval)),
               "phi", US_CLI + phi_cost(gid, m, norm, n, r_eval))


def _t_phi_heisenberg(plan, rng, tag):
    # _run_phi caches the ball of radius r_eval + n, which covers the
    # shifted support only for norm-1 atoms; r_eval + n = HEIS_RADIUS
    # reuses the drift jobs' ball.
    spec, m, norm = _measure(plan, rng, "heisenberg", max_norm=1)
    budget = _budget(plan)
    r_eval = 1
    for r in (3, 2):
        if phi_cost("heisenberg", m, norm, HEIS_RADIUS - r, r) <= budget:
            r_eval = r
            break
    n = HEIS_RADIUS - r_eval
    return Job("cli", ("phi", "--group", "heisenberg", "--measure=" + spec,
                       "--mode", "exact", "--method", "convolution",
                       "--n", str(n), "--r-eval", str(r_eval),
                       "--cache-dir", "{cache}"),
               "phi", US_CLI + phi_cost("heisenberg", m, norm, n, r_eval))


def _t_adjoint(plan, rng, tag):
    gid = plan.choice(EXACT_GROUPS)
    spec, m, norm = random_measure(plan, rng, gid, plan.randint(2, 6), False)
    n = largest(lambda s: 2 * power_cost(gid, m, norm, s), 1, 40,
                _budget(plan))
    return Job("adjoint_drift_equality",
               (("group", gid), ("measure", spec), ("n_max", n)),
               "adjoint", 2 * power_cost(gid, m, norm, n))


# Boundary checks with a measured cost table (microseconds), so the plan
# picks among sizes that all stay below a third of a second.
_COCYCLE_BALL = {(2, 1): 3e3, (3, 1): 16e3, (4, 1): 34e3, (2, 2): 330e3}
_NORMALIZATION = {(2, 3): 15e3, (2, 4): 100e3, (3, 2): 9e3, (3, 3): 205e3,
                  (4, 2): 30e3}
_C_SEQ = {(2, 3): 41e3, (3, 2): 13e3, (4, 2): 42e3}
_HARMONIC = {(2, 1, 1): 15e3, (2, 1, 2): 150e3, (2, 2, 1): 47e3,
             (3, 1, 1): 124e3}
_STATIONARITY = {(2, 4): 16e3, (2, 5): 42e3, (2, 6): 134e3, (3, 3): 29e3,
                 (3, 4): 130e3, (4, 3): 80e3}
_SPAN = {(2, 3, 2): 16e3, (2, 3, 3): 60e3, (2, 4, 2): 35e3, (2, 4, 3): 170e3,
         (3, 2, 2): 31e3, (3, 3, 2): 163e3, (4, 2, 2): 111e3}


def _pick(plan, table):
    key = plan.choice(sorted(table))
    return key, table[key]


def _t_cocycle_ball(plan, rng, tag):
    # radius 2 costs a third of a second; one block in four carries it
    table = dict(_COCYCLE_BALL)
    if plan.random() >= 0.25:
        del table[(2, 2)]
    (k, radius), cost = _pick(plan, table)
    level = 2 * radius + rng.randint(0, 4)
    return Job("check_cocycle_identity_ball",
               (("k", k), ("radius", radius), ("level", level)),
               "identity", cost)


def _t_normalization(plan, rng, tag):
    (k, power), cost = _pick(plan, _NORMALIZATION)
    level = power + rng.randint(0, 3)
    return Job("check_cocycle_normalization",
               (("k", k), ("k_power", power), ("level", level)),
               "identity", cost)


def _t_c_seq(plan, rng, tag):
    (k, n), cost = _pick(plan, _C_SEQ)
    return Job("cli", ("c-seq", "--k", str(k), "--n-max", str(n)),
               "c_seq", US_CLI + cost)


def _t_harmonicity(plan, rng, tag):
    (k, level, radius), cost = _pick(plan, _HARMONIC)
    letters = [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]
    words = [(x,) for x in letters]
    if level == 2:
        words = [(x, y) for x in letters for y in letters if y != -x]
    values = tuple((_free_word(w), f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}")
                   for w in words)
    return Job("check_harmonicity",
               (("k", k), ("level", level), ("radius", radius),
                ("values", values)), "zero", cost)


def _t_stationarity(plan, rng, tag):
    (k, level), cost = _pick(plan, _STATIONARITY)
    return Job("check_boundary_stationarity", (("k", k), ("level", level)),
               "zero", cost)


def _t_span_rank(plan, rng, tag):
    (k, level, radius), cost = _pick(plan, _SPAN)
    return Job("cli", ("span-rank", "--k", str(k), "--level", str(level),
                       "--radius", str(radius)), "span_rank", US_CLI + cost)


def _t_radial_phi(plan, rng, tag):
    # 100-400 KB reports: ball(r_eval) entries with n-step denominators
    k = plan.choice((2, 3))
    r_eval = plan.choice((5, 6)) if k == 2 else 4
    n = plan.randint(40, 150) if k == 2 else plan.randint(30, 100)
    n += rng.randint(0, 4)
    points = ball_volume(f"free:{k}", r_eval)
    cost = US_CLI + n * n * r_eval * 4 + points * n * 0.6
    return Job("cli", ("phi", "--group", f"free:{k}", "--n", str(n),
                       "--r-eval", str(r_eval)), "phi", cost)


def _t_phi_routes(plan, rng, tag):
    """Radial and convolution phi at small n (twins: values must agree)."""
    k = plan.choice((2, 3))
    r_eval = plan.randint(1, 2)
    gid = f"free:{k}"
    n = largest(lambda s: phi_cost(gid, 2 * k, 1, s, r_eval), 1, 6,
                plan.choice((25e3, 50e3)))
    base = ("phi", "--group", gid, "--n", str(n), "--r-eval", str(r_eval))
    twin = f"{tag}-routes"
    return [Job("cli", base, "phi", US_CLI + n * n * r_eval * 4, twin=twin),
            Job("cli", base + ("--method", "convolution"), "phi",
                US_CLI + phi_cost(gid, 2 * k, 1, n, r_eval), twin=twin)]


def _t_seminorm(plan, rng, tag):
    gid = plan.choice(("zd:2", "zd:3", "free:2", "free:3", "lamplighter",
                       "heisenberg"))
    # |ball|^2 checked products at ~7 us each
    radius = largest(lambda r: ball_volume(gid, r) ** 2 * 7, 1, 8,
                     _budget(plan))
    return Job("check_value_seminorm", (("group", gid), ("radius", radius)),
               "seminorm", ball_volume(gid, radius) ** 2 * 7)


def random_space(rng: random.Random, size: int, labels=("t",),
                 transitive: bool = False) -> str:
    """A finite G-space file: random permutations, one per label; with
    `transitive`, the first is a single cycle through every point."""
    lines = [f"size {size}"]
    for i, label in enumerate(labels):
        perm = list(range(size))
        if transitive and i == 0:
            order = perm[:]
            rng.shuffle(order)
            for a, b in zip(order, order[1:] + order[:1]):
                perm[a] = b
        else:
            rng.shuffle(perm)
        seen, cycles = set(), []
        for start in range(size):
            if start in seen:
                continue
            cyc, i = [], start
            while i not in seen:
                seen.add(i)
                cyc.append(i)
                i = perm[i]
            if len(cyc) > 1:
                cycles.append("(" + " ".join(map(str, cyc)) + ")")
        lines.append(f"gen {label} {''.join(cycles) or '()'}")
    return "\n".join(lines) + "\n"


def _t_gspace(plan, rng, tag):
    sub = plan.choice(("stationary", "ergodicity", "factor"))
    labels = ("t",) if plan.random() < 0.5 else ("t", "s")
    # the factor map needs ergodic factors
    files = tuple((f"{tag}-{axis}.gsp",
                   random_space(rng, plan.randint(3, 9), labels,
                                transitive=sub == "factor"))
                  for axis in "xy")
    args = (sub, "--space", "{work}/" + files[0][0])
    if sub != "stationary":
        args += ("--space2", "{work}/" + files[1][0])
    return Job("cli", args, "gspace", US_CLI + 3000, files=files)


def _mc_size(plan, gid, steps_range):
    """(trajectories, steps, cost) of a walk job within a planned budget."""
    budget = _budget(plan)
    steps = plan.randint(*steps_range)
    per_traj = US_TRAJECTORY + steps * US_STEP
    extra = 2 * ball_volume(gid, steps) * US_BALL_ELEMENT \
        if gid == "heisenberg" else 0
    trajectories = max(50, int((budget - extra) / per_traj) // 50 * 50)
    return trajectories, steps, extra + trajectories * per_traj


def _mc_job(plan, rng, gid, workers=1, twin=None):
    if gid == "heisenberg":
        trajectories, steps, cost = _mc_size(plan, gid, (4, 8))
    else:
        trajectories, steps, cost = _mc_size(plan, gid, (20, 200))
    spec = "srw"
    if plan.random() < 0.5:
        # heisenberg walks stay in the radius-`steps` ball only with
        # norm-1 atoms
        spec = _measure(plan, rng, gid, 1 if gid == "heisenberg" else 2)[0]
    args = ("drift", "--group", gid, "--measure=" + spec, "--n-max", "0",
            "--trajectories", str(trajectories), "--steps", str(steps),
            "--seed", str(rng.randrange(1 << 30)),
            "--workers", str(workers), "--cache-dir", "{cache}")
    if plan.random() < 0.5:
        cps = sorted({max(1, steps // 4), max(1, steps // 2), steps})
        args += ("--checkpoints", ",".join(map(str, cps)))
    if gid == "heisenberg":
        args += ("--ball-radius", str(steps))
    return Job("cli", args, "mc", cost + (US_POOL if workers > 1 else 0),
               twin=twin)


def _t_mc_twins(plan, rng, tag):
    """The same walk job at 1 and 2 workers."""
    gid = plan.choice(ALL_GROUPS)
    states = plan.getstate(), rng.getstate()
    one = _mc_job(plan, rng, gid, workers=1, twin=f"{tag}-twins")
    plan.setstate(states[0])
    rng.setstate(states[1])
    two = _mc_job(plan, rng, gid, workers=2, twin=f"{tag}-twins")
    return [one, two]


def _t_hitting(plan, rng, tag):
    k = plan.choice((2, 3))
    level = plan.randint(1, 3)
    trajectories, steps, cost = _mc_size(plan, f"free:{k}", (50, 200))
    return Job("validate_hitting_measure",
               (("k", k), ("level", level), ("trajectories", trajectories),
                ("steps", steps), ("seed", rng.randrange(1 << 30))),
               "hitting", cost)


def _t_endpoints(plan, rng, tag):
    gid = plan.choice(("zd:1", "zd:2", "lamplighter", "free:2"))
    trajectories, steps, cost = _mc_size(plan, gid, (10, 60))
    spec = _measure(plan, rng, gid)[0]
    return Job("endpoint_counts",
               (("group", gid), ("measure", spec),
                ("trajectories", trajectories), ("steps", steps),
                ("seed", rng.randrange(1 << 30))),
               "endpoints", cost)


def _float_job(plan, rng, sub):
    gid = plan.choice(EXACT_GROUPS)
    spec, m, norm = _measure(plan, rng, gid)
    thr = plan.choice((1e-4, 3e-4, 1e-3, 1e-2))
    budget = _budget(plan)
    args = (sub, "--group", gid, "--measure=" + spec, "--mode", "float64",
            "--truncation", repr(thr))
    if sub == "phi":
        r_eval = max(norm, plan.randint(1, 3))
        n = largest(lambda s: phi_cost(gid, m, norm, s, r_eval, thr), 1, 24,
                    budget)
        return Job("cli", args + ("--method", "convolution", "--n", str(n),
                                  "--r-eval", str(r_eval)),
                   "phi", US_CLI + phi_cost(gid, m, norm, n, r_eval, thr))
    n = largest(lambda s: power_cost(gid, m, norm, s, thr), 1, 60, budget)
    return Job("cli", args + ("--n-max", str(n)),
               "drift_float" if sub == "drift" else "entropy",
               US_CLI + power_cost(gid, m, norm, n, thr))


TEMPLATES = {
    "exact": [_t_drift_free_srw, _t_drift_exact, _t_drift_exact,
              _t_drift_heisenberg, _t_entropy_exact, _t_entropy_exact,
              _t_phi_exact, _t_phi_exact, _t_phi_heisenberg, _t_adjoint,
              _t_adjoint],
    "identities": [_t_cocycle_ball, _t_normalization, _t_c_seq,
                   _t_harmonicity, _t_stationarity, _t_span_rank,
                   _t_radial_phi, _t_radial_phi, _t_phi_routes, _t_seminorm,
                   _t_gspace],
    "approx": [
        *(lambda plan, rng, tag, gid=gid: _mc_job(plan, rng, gid)
          for gid in ("zd:2", "free:2", "lamplighter", "heisenberg")),
        _t_mc_twins, _t_hitting, _t_endpoints,
        lambda plan, rng, tag: _float_job(plan, rng, "drift"),
        lambda plan, rng, tag: _float_job(plan, rng, "entropy"),
        lambda plan, rng, tag: _float_job(plan, rng, "phi")],
}


def pass_length(workload: str) -> int:
    """Jobs per pass."""
    return len(generate(workload, 0, passes=1))


def generate(workload: str, seed: int, passes: int = PASSES) -> List[Job]:
    """The job list of `workload` for `seed`: `passes` passes in order."""
    if workload not in TEMPLATES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs: List[Job] = []
    for b in range(passes * PASS_BLOCKS):
        plan = random.Random(f"{workload}:plan:{b % PASS_BLOCKS}")
        block: List[Job] = []
        for i, template in enumerate(TEMPLATES[workload]):
            made = template(plan, rng, f"b{b}t{i}")
            block.extend(made if isinstance(made, list) else [made])
        rng.shuffle(block)
        jobs.extend(block)
    return jobs
