"""Seeded inputs, timed operations and output checks for the benchmark.

Inputs come from fixed pools whose outputs were recorded as goldens under
``bench/goldens``.  Each pool item is generated from its own fixed seed by
the pure-Python generators below, which use no ``rodtopo`` code, so a
change to the library cannot change its own inputs.  The run seed only
chooses which pool items a run visits and in which order.

Every workload exposes the same surface to ``run.py``: ``items`` (the seeded
inputs, timed pass after pass), ``run(item)`` (the timed operation),
``check(item, out)`` (golden comparison, untimed), ``note(item, out)``
(input-property census, untimed) and ``report(samples)`` (the metrics under
the names used in the benchmark's README).  The number of items follows
from ``--seconds`` and a nominal operation cost, so that a run makes about
``passes`` passes over them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import time
from math import gcd
from pathlib import Path

from rodtopo import cli, intlin, plumbing, roddiagram, topology
from rodtopo.errors import RodTopoError

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"

EXACT_POOL = 3000
CHAIN_POOL = 64  # chains per run length
RUN_LENGTHS = (10, 20, 40, 80)
CHAIN_RANK = 4
VERIFY_DIAGRAM = "diagrams/two-horizon-one-corner.json"
VERIFY_REL_TOL = 1e-9  # float drift allowed in the recorded verifier figures


# ----------------------------------------------------------------------
# input generation (independent of rodtopo)


def _det2(v, w):
    g = 0
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            g = gcd(g, v[i] * w[j] - v[j] * w[i])
    return g


def _primitive(rng, n):
    while True:
        v = [rng.randint(-3, 3) for _ in range(n)]
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 1:
            return v


def _admissible_next(rng, v):
    """Random primitive w with Det_2(v, w) = 1 (a basis pair)."""
    while True:
        w = _primitive(rng, len(v))
        if _det2(v, w) == 1:
            return w


def corpus_diagram(rng):
    """JSON text of a random admissible half-plane diagram: rank 2-4,
    3-12 rods, admissible corners, horizons flanked by axis rods, and a
    30% chance that the rods flanking a horizon are equal (a merge fill)."""
    n = rng.randint(2, 4)
    target = rng.randint(3, 12)
    rods = [_primitive(rng, n)]
    last_axis = rods[0]
    while len(rods) < target:
        prev = rods[-1]
        if prev is None:
            v = list(last_axis) if rng.random() < 0.3 else _primitive(rng, n)
        elif len(rods) < target - 1 and rng.random() < 0.35:
            v = None
        else:
            v = _admissible_next(rng, prev)
        if v is not None:
            last_axis = v
        rods.append(v)
    payload = {
        "n": n,
        "shape": "half_plane",
        "rods": [{"kind": "horizon"} if v is None else {"kind": "axis", "v": v} for v in rods],
    }
    return json.dumps(payload, sort_keys=True)


def admissible_chain(rng, n, length):
    chain = [_primitive(rng, n)]
    while len(chain) < length:
        chain.append(_admissible_next(rng, chain[-1]))
    return chain


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name):
    with open(GOLDENS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def plan(seconds, nominal_s, passes, max_items):
    """Number of items such that ``passes`` passes over them take about
    ``seconds`` when one operation costs ``nominal_s``."""
    return min(max_items, max(1, round(seconds / (passes * nominal_s))))


class InputDrift(Exception):
    """The regenerated inputs differ from the ones the goldens were recorded on."""


# ----------------------------------------------------------------------
# exact-corpus


def exact_pool():
    return [corpus_diagram(random.Random(f"exact-corpus/{i}")) for i in range(EXACT_POOL)]


def corpus_files():
    return sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "diagrams").glob("*.json"))


class _Emitter:
    """Hashes each report the way the CLI serialises it; a RodTopoError or
    ValueError (what the CLI turns into exit code 1) becomes a recorded
    rejection, anything else propagates as an unexpected failure."""

    def __init__(self):
        self.h = hashlib.sha256()

    def emit(self, payload):
        self.h.update(json.dumps(payload, sort_keys=True).encode())
        self.h.update(b"\n")

    def attempt(self, fn, *args):
        try:
            return fn(*args)
        except (RodTopoError, ValueError) as e:
            self.emit({"rejected": type(e).__name__, "message": str(e)})
            return None


def _rows(M):
    return [list(r) for r in M.to_lists()]


def exact_pipeline(text):
    """The library calls the exact CLI subcommands make, in cli.py order.

    Returns (digest, diagram, plan); diagram or plan is None when that
    step was rejected.
    """
    out = _Emitter()
    diagram = out.attempt(roddiagram.parse, text)
    if diagram is None:
        return out.h.hexdigest()[:16], None, None
    out.emit({"valid": True, "diagram": diagram.to_json_dict()})

    A = diagram.structure_matrix()
    res = out.attempt(intlin.hermite_normal_form, A)
    if res is not None:
        out.emit({"H": _rows(res.H), "Q": _rows(res.Q), "pivots": [list(p) for p in res.pivots]})
    res = out.attempt(intlin.smith_normal_form, A)
    if res is not None:
        out.emit({"S": _rows(res.S), "U": _rows(res.U), "V": _rows(res.V),
                  "divisors": list(res.divisors)})
    for k in range(1, min(A.rows, A.cols) + 1):
        out.emit({"k": k, "value": out.attempt(intlin.determinant_divisor, A, k)})

    corners = []
    for i, j in diagram.corners():
        d = roddiagram.det2(diagram.rods[i].structure, diagram.rods[j].structure)
        corners.append({"rods": [i, j], "det2": d, "admissible": d == 1})
    out.emit({"corners": corners})
    for h, left, right in diagram.horizon_flankings():
        cs = out.attempt(roddiagram.cross_section_topology, diagram.rods[left].structure,
                         diagram.rods[right].structure, diagram.n)
        if cs is not None:
            out.emit({"rod": h, "cross_section": cs.to_json_dict()})
    pi1 = out.attempt(topology.fundamental_group, diagram)
    if pi1 is not None:
        out.emit({"pi1": pi1.to_json_dict(), "simply_connected": pi1.trivial})
    end = out.attempt(roddiagram.asymptotic_end, diagram)
    if end is not None:
        out.emit({"end": end.to_json_dict()})
    end = out.attempt(topology.end_pi1, diagram)
    if end is not None:
        out.emit({"end_pi1": end.to_json_dict()})

    doc = out.attempt(plumbing.doc_decomposition, diagram)
    if doc is not None:
        out.emit(doc.to_json_dict())
    plan = out.attempt(topology.compactify, diagram)
    if plan is not None:
        out.emit(plan.to_json_dict())
        out.emit({"simply_connected": topology.is_simply_connected(plan.diagram)})
        c = out.attempt(topology.classify, plan.diagram, False)
        if c is not None:
            out.emit(c.to_json_dict())
    return out.h.hexdigest()[:16], diagram, plan


def stratified_sample(pool, n, rng):
    """Indices of about ``n`` pool diagrams, drawn from every (rank, rod
    count) stratum in proportion to its size and then shuffled.  The seed
    picks the diagrams while the size mix, which sets most of an
    operation's cost, stays the same from seed to seed."""
    strata = {}
    for i, text in enumerate(pool):
        d = json.loads(text)
        strata.setdefault((d["n"], len(d["rods"])), []).append(i)
    picks = []
    for key in sorted(strata):
        members = strata[key]
        picks += rng.sample(members, min(len(members), round(n * len(members) / len(pool))))
    rng.shuffle(picks)
    return picks


class ExactCorpus:
    name = "exact-corpus"
    nominal_s = 0.004
    passes = 8
    trace_ops = 200

    def __init__(self, seed, seconds, tmpdir, golden=None):
        self.seed = seed
        golden = golden or load_golden(self.name)
        pool = exact_pool()
        if sha256("\n".join(pool)) != golden["inputs_sha256"]:
            raise InputDrift("exact-corpus pool differs from the recorded one")
        self.expected = {}
        files = []
        for rel, rec in golden["files"].items():
            text = (ROOT / rel).read_text(encoding="utf-8")
            if sha256(text) != rec["sha256"]:
                raise InputDrift(f"{rel} differs from the recorded input")
            files.append(text)
            self.expected[text] = rec["digest"]
        self.expected.update(zip(pool, golden["digests"]))
        n = plan(seconds, self.nominal_s, self.passes, EXACT_POOL)
        self.items = files + [pool[i] for i in stratified_sample(pool, n, random.Random(seed))]
        self.warmup_items = files
        self.census = {"ranks": {}, "rods": 0, "horizons": 0, "fills": {},
                       "compactified": 0, "augmented": 0, "longest_component": 0}

    def run(self, text):
        return exact_pipeline(text)

    def check(self, text, out):
        return out[0] == self.expected[text]

    def note(self, text, out):
        _, diagram, plan = out
        c = self.census
        if diagram is None:
            return
        c["ranks"][diagram.n] = c["ranks"].get(diagram.n, 0) + 1
        c["rods"] += len(diagram.rods)
        c["horizons"] += len(diagram.horizon_indices())
        c["longest_component"] = max(c["longest_component"],
                                     max(len(comp) for comp in diagram.axis_components()))
        if plan is not None:
            c["compactified"] += 1
            c["augmented"] += bool(plan.waypoints)
            for fill in plan.horizon_fills + (plan.end_cap,):
                c["fills"][fill.kind] = c["fills"].get(fill.kind, 0) + 1

    def report(self, samples):
        ms = sorted(1e3 * t for t in samples)
        return {
            "diagrams_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
            "diagram_p50_ms": (statistics.median(ms), "ms"),
            "diagram_p99_ms": (percentile(ms, 0.99), "ms"),
        }

    def census_lines(self):
        c = self.census
        diagrams = sum(c["ranks"].values())
        gaps = sum(c["fills"].values())
        return {
            "rank_mix": {n: round(k / diagrams, 4) for n, k in sorted(c["ranks"].items())},
            "horizon_share_of_rods": round(c["horizons"] / c["rods"], 4),
            "gap_fill_share": {k: round(v / gaps, 4) for k, v in sorted(c["fills"].items())},
            "augmented_share": round(c["augmented"] / max(c["compactified"], 1), 4),
            "longest_axis_component": c["longest_component"],
        }


# ----------------------------------------------------------------------
# long-runs


def chain_pool():
    return {
        L: [admissible_chain(random.Random(f"long-runs/{L}/{i}"), CHAIN_RANK, L)
            for i in range(CHAIN_POOL)]
        for L in RUN_LENGTHS
    }


def round_trip(chain):
    """decompose -> plumbing_to_rods -> decompose; returns (first, second,
    whether the round trip is the identity)."""
    tp = plumbing.decompose_component(chain)
    rods = plumbing.plumbing_to_rods(tp.bundles, tp.plumbing_vectors)
    tp2 = plumbing.decompose_component(rods)
    ok = tuple(rods) == tp.rods_hnf and (tp2.bundles, tp2.plumbing_vectors) == (
        tp.bundles, tp.plumbing_vectors)
    return tp, tp2, ok


def round_trip_digest(tp, tp2):
    return sha256(json.dumps([tp.to_json_dict(), tp2.to_json_dict()], sort_keys=True))[:16]


class LongRuns:
    """One operation is one pass over the L mix: a chain of each length in
    RUN_LENGTHS, each timed on its own for the per-length medians and as
    the parts of the operation's time."""

    name = "long-runs"
    nominal_s = 0.45
    passes = 8
    trace_ops = 1

    def __init__(self, seed, seconds, tmpdir, golden=None):
        self.seed = seed
        golden = golden or load_golden(self.name)
        pool = chain_pool()
        if sha256(json.dumps(pool, sort_keys=True)) != golden["inputs_sha256"]:
            raise InputDrift("long-runs pool differs from the recorded one")
        self.pool = pool
        self.expected = {int(L): d for L, d in golden["digests"].items()}
        n = plan(seconds, self.nominal_s, self.passes, CHAIN_POOL)
        rng = random.Random(seed)
        picks = [rng.sample(range(CHAIN_POOL), n) for _ in RUN_LENGTHS]
        self.items = [tuple(zip(RUN_LENGTHS, chosen)) for chosen in zip(*picks)]
        self.warmup_items = self.items[:1]
        self.chain_times = {L: [] for L in RUN_LENGTHS}
        self.census = {"dependent_triples": 0, "triples": 0}

    def run(self, item):
        out = []
        for L, i in item:
            t0 = time.perf_counter()
            tp, tp2, ok = round_trip(self.pool[L][i])
            out.append(((t0, time.perf_counter()), tp, tp2, ok))
        return out

    def part_times(self, out):
        return tuple(interval for interval, _, _, _ in out)

    def check(self, item, out):
        return all(ok and round_trip_digest(tp, tp2) == self.expected[L][i]
                   for (L, i), (_, tp, tp2, ok) in zip(item, out))

    def note(self, item, out):
        for (L, _), ((t0, t1), tp, _, _) in zip(item, out):
            self.chain_times[L].append(t1 - t0)
            self.census["triples"] += len(tp.bundles)
            self.census["dependent_triples"] += sum(b.p == 0 for b in tp.bundles)

    def report(self, samples):
        med = {L: 1e3 * statistics.median(ts) for L, ts in self.chain_times.items()}
        logs = [(math.log(L), math.log(m)) for L, m in med.items()]
        mx = statistics.mean(x for x, _ in logs)
        my = statistics.mean(y for _, y in logs)
        slope = sum((x - mx) * (y - my) for x, y in logs) / sum((x - mx) ** 2 for x, _ in logs)
        out = {f"run_p50_ms.L{L}": (m, "ms") for L, m in med.items()}
        out["scaling_exponent"] = (slope, "1")
        return out

    def census_lines(self):
        c = self.census
        return {
            "rank_mix": {CHAIN_RANK: 1.0},
            "horizon_share_of_rods": 0.0,
            "L_mix": {L: len(ts) for L, ts in self.chain_times.items()},
            "longest_axis_component": max(RUN_LENGTHS),
            "dependent_triple_share": round(c["dependent_triples"] / max(c["triples"], 1), 4),
        }


# ----------------------------------------------------------------------
# tension-verify


def verify_figures(report):
    """The recorded verifier figures: verdict, annulus sups, decay slope."""
    return {
        "passed": report["passed"],
        "annuli": [[a["sup_coarse"], a["sup_fine"]] for a in report["annuli"]],
        "mean_slope": report["decay"]["mean_slope"],
    }


def figures_match(got, want, rel_tol=VERIFY_REL_TOL):
    if got["passed"] != want["passed"] or len(got["annuli"]) != len(want["annuli"]):
        return False
    pairs = [(g, w) for ga, wa in zip(got["annuli"], want["annuli"]) for g, w in zip(ga, wa)]
    pairs.append((got["mean_slope"], want["mean_slope"]))
    return all(math.isclose(g, w, rel_tol=rel_tol, abs_tol=0.0) for g, w in pairs)


class TensionVerify:
    name = "tension-verify"
    trace_ops = 1

    def __init__(self, seed, seconds, tmpdir, golden=None):
        self.seed = seed
        self.golden = golden or load_golden(self.name)
        text = (ROOT / VERIFY_DIAGRAM).read_text(encoding="utf-8")
        if sha256(text) != self.golden["sha256"]:
            raise InputDrift(f"{VERIFY_DIAGRAM} differs from the recorded input")
        self.out_path = os.path.join(tmpdir, "model-verify.json")
        self.items = [VERIFY_DIAGRAM]
        self.warmup_items = self.items
        self.diagram = roddiagram.parse(text)

    def run(self, path):
        return cli.main(["model-verify", path, "--format", "json", "--out", self.out_path])

    def check(self, path, code):
        if code != 0:
            return False
        with open(self.out_path, encoding="utf-8") as fh:
            got = verify_figures(json.load(fh))
        return figures_match(got, self.golden["figures"])

    def note(self, path, code):
        pass

    def report(self, samples):
        return {"verify_s": (statistics.median(samples), "s")}

    def census_lines(self):
        d = self.diagram
        plan = topology.compactify(d)
        fills = [f.kind for f in plan.horizon_fills + (plan.end_cap,)]
        return {
            "rank_mix": {d.n: 1.0},
            "horizon_share_of_rods": round(len(d.horizon_indices()) / len(d.rods), 4),
            "gap_fill_share": {k: round(fills.count(k) / len(fills), 4) for k in sorted(set(fills))},
            "augmented_share": float(bool(plan.waypoints)),
            "longest_axis_component": max(len(c) for c in d.axis_components()),
        }


WORKLOADS = {w.name: w for w in (ExactCorpus, LongRuns, TensionVerify)}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]
