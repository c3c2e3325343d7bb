"""Catalogues and seeded schedules of the hfw benchmark workloads.

Every operation a run can perform is one entry of a fixed catalogue with a
stable id, and every id has a golden digest in ``golden.json``.  A seed only
samples and orders entries; it never invents inputs.  This module is pure
standard library and never imports ``hfw``, so a worker builds its schedule
before the timed set-up starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
BASES_PATH = os.path.join(HERE, "data", "mutant_bases.json")
SPEC_DIR = os.path.join("bench", "out", "specs")

WORKLOADS = ("tables", "symbolic", "requests")
# the hfw modules that per-layer metrics are reported for
MODULES = ("hypercore", "sgntrop", "constructions", "realalg", "valtheory", "compat", "cli")


@dataclass(frozen=True)
class Entry:
    """One catalogue operation.

    ``op`` names the call, ``structure`` the resident structure it runs on
    (None for requests) and ``args`` its parameters; requests carry the
    ``hfw`` argv with the spec as an object in place of the spec path.
    """

    id: str
    family: str
    op: str
    structure: str | None = None
    args: tuple = ()
    spec: dict | None = None
    once: bool = False  # takes seconds: measured once per run, not in every pass


@dataclass(frozen=True)
class Plan:
    """What one run of a workload measures.

    ``entries`` are the distinct operations of the run's mix and ``weights``
    says how often each occurs in it; the seed fixes both.  A run measures
    every entry, repeatedly where time allows, and the metrics weigh each
    entry's least time by its weight, so the mix does not depend on how
    fast the host is.  ``resident`` structures are built during the timed
    set-up.  Entries flagged ``once`` take seconds each and are measured once
    per run; the rest are measured once per pass, each pass in a fresh
    seeded order.
    """

    workload: str
    resident: tuple
    entries: tuple
    weights: dict
    rng: random.Random

    @property
    def once(self) -> list[Entry]:
        return [e for e in self.entries if e.once]

    def passes(self):
        """Yield the entries measured in every pass, forever, each pass in a
        fresh seeded order."""
        pool = [e for e in self.entries if not e.once]
        while True:
            self.rng.shuffle(pool)
            yield list(pool)


# ---------------------------------------------------------------------------
# tables: warm finite-table oracles


def primes(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]


def _cyclic_subgroup(p: int, g: int) -> frozenset[int]:
    out, x = {1}, g % p
    while x != 1:
        out.add(x)
        x = x * g % p
    return frozenset(out)


def factor_subgroups(max_p: int, min_size: int, max_size: int) -> list[tuple[int, int, int]]:
    """(p, g, carrier size) for every proper subgroup <g> of F_p^x, g its
    smallest generator, whose factor F_p/<g> has a carrier in the size range."""
    out = []
    for p in primes(max_p)[1:]:
        seen = set()
        for g in range(2, p):
            T = _cyclic_subgroup(p, g)
            if T in seen:
                continue
            seen.add(T)
            size = (p - 1) // len(T) + 1
            if min_size <= size <= max_size:
                out.append((p, g, size))
    return out


# Number of orderings of each candidate table, which fixes how many
# compatibility and lifting entries it has; every candidate not listed has
# none.  record_golden.py checks this against the library before it writes
# any golden digest.
TABLE_ORDERINGS = {"sign": 1}

# enumerate_valuation_hyperrings refuses carriers above this size
RING_ENUMERATION_CAP = 12

TABLE_NAMED = ("sign", "krasner", "fp_squares(5)", "fp_squares(7)")


def table_size(name: str) -> int:
    if name.startswith("F") and "/<" in name:
        p, g = (int(x) for x in name[1:-1].split("/<"))
        return (p - 1) // len(_cyclic_subgroup(p, g)) + 1
    if name.startswith("F"):
        return int(name[1:])
    return {"sign": 3, "krasner": 2, "fp_squares(5)": 3, "fp_squares(7)": 3}[name]


def table_candidates() -> list[str]:
    factors = ["F%d/<%d>" % (p, g) for p, g, _ in factor_subgroups(61, 5, 13)]
    return factors + ["F%d" % p for p in primes(13)] + list(TABLE_NAMED)


def table_entries(name: str) -> list[Entry]:
    ops = ["check_hyperfield", "check_double_distributivity", "enumerate_orderings",
           "is_real", "residue_hyperfield", "enumerate_hyperideals"]
    if table_size(name) <= RING_ENUMERATION_CAP:
        ops.append("enumerate_valuation_hyperrings")
    out = [Entry("tables/%s/%s" % (name, op), op, op, name) for op in ops]
    for i in range(2):  # the two trivial ideals {0} and the carrier
        out.append(Entry("tables/%s/quotient/%d" % (name, i), "quotient_hyperring",
                         "quotient_hyperring", name, (i,)))
    for i in range(TABLE_ORDERINGS.get(name, 0)):
        out.append(Entry("tables/%s/compat/%d" % (name, i), "compatibility_report",
                         "compatibility_report", name, (i,)))
        out.append(Entry("tables/%s/lift/%d" % (name, i), "lift_ordering",
                         "lift_ordering", name, (i,)))
    return out


# ---------------------------------------------------------------------------
# symbolic: warm signed-value structures

SYMBOLIC_RESIDENT = ("sgntrop(1)", "sgntrop(2)", "sgntrop(3)",
                     "q_p_units(2)", "q_p_units(3)", "q_p_units(5)", "q_p_units(7)")


def _cones(k: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(k):
        out = [c + (s,) for c in out for s in (1, -1)]
    return out


def _cone_label(images) -> str:
    return "".join("+" if s > 0 else "-" for s in images)


def _sym(name, family, op, *args, once=False) -> Entry:
    parts = [str(a) if not isinstance(a, tuple) else _cone_label(a) for a in args]
    return Entry("/".join(["symbolic", name, op] + parts), family, op, name, args, once=once)


def symbolic_entries() -> list[Entry]:
    """The symbolic catalogue.  Windows shrink with rank so that no entry
    takes much over a second, except rank-2 axioms at B = 3 and the rank-2
    correspondence, which are measured once per run; rank-3 compatibility
    and correspondence are left out (see NOTES.md)."""
    out = []
    s1 = "sgntrop(1)"
    for B in range(2, 7):
        out.append(_sym(s1, "rank1", "st_axiom_check", B))
        out.append(_sym(s1, "rank1", "sym_orderings", B))
        out.append(_sym(s1, "rank1", "window_cone_pattern_count", B))
    for which in ("trivial", "canonical"):
        out.append(_sym(s1, "rank1", "sym_is_valuation", which, 4))
    for P in _cones(1):
        out.append(_sym(s1, "rank1", "sym_natural_ring", P, 4))
        out.append(_sym(s1, "rank1", "sym_natural_ideal", P, 4))
        for W in (2, 4, 6):
            out.append(_sym(s1, "rank1", "compatibility_report", P, W))
    out.append(_sym(s1, "rank1", "sym_residue"))
    for W in range(1, 5):
        out.append(_sym(s1, "rank1", "baer_krull_table", W))
    for p in (2, 3, 5, 7):
        q = "q_p_units(%d)" % p
        for B in (2, 3, 4):
            out.append(_sym(q, "rank1", "st_axiom_check", B))
        for W in (2, 4, 6):
            out.append(_sym(q, "rank1", "sym_orderings", W))
        for which in ("trivial", "canonical"):
            out.append(_sym(q, "rank1", "sym_is_valuation", which, 4))
        out.append(_sym(q, "rank1", "sym_natural_ring", (1,), 4))
        out.append(_sym(q, "rank1", "sym_natural_ideal", (1,), 4))
        out.append(_sym(q, "rank1", "sym_residue"))
        for B in (2, 4):
            out.append(_sym(q, "rank1", "window_cone_pattern_count", B))
        for W in (2, 4):
            out.append(_sym(q, "rank1", "compatibility_report", (1,), W))
            out.append(_sym(q, "rank1", "baer_krull_table", W))
    s2 = "sgntrop(2)"
    for B in (2, 3):
        out.append(_sym(s2, "rank2", "st_axiom_check", B, once=B == 3))
    out.append(_sym(s2, "rank2", "baer_krull_table", 2, once=True))
    for W in (2, 3):
        out.append(_sym(s2, "rank2", "sym_orderings", W))
        out.append(_sym(s2, "rank2", "window_cone_pattern_count", W))
        for which in ("trivial", "canonical"):
            out.append(_sym(s2, "rank2", "sym_is_valuation", which, W))
    for P in _cones(2):
        out.append(_sym(s2, "rank2", "sym_natural_ring", P, 4))
        out.append(_sym(s2, "rank2", "sym_natural_ideal", P, 4))
        for W in (2, 3):
            out.append(_sym(s2, "rank2", "compatibility_report", P, W))
    out.append(_sym(s2, "rank2", "sym_residue"))
    s3 = "sgntrop(3)"
    out.append(_sym(s3, "rank3", "st_axiom_check", 1))
    for W in (1, 2):
        out.append(_sym(s3, "rank3", "sym_orderings", W))
        out.append(_sym(s3, "rank3", "window_cone_pattern_count", W))
    for which in ("trivial", "canonical"):
        out.append(_sym(s3, "rank3", "sym_is_valuation", which, 1))
    for P in _cones(3):
        out.append(_sym(s3, "rank3", "sym_natural_ring", P, 2))
        out.append(_sym(s3, "rank3", "sym_natural_ideal", P, 2))
    out.append(_sym(s3, "rank3", "sym_residue"))
    return out


# ---------------------------------------------------------------------------
# requests: cold front-door requests through hfw.cli.main

REQUEST_BUILTINS = ("sign", "krasner", "fp_squares(5)", "fp_squares(7)", "fp_squares(11)",
                    "fp_squares(13)", "q_pos", "sgntrop(1)",
                    "q_p_units(2)", "q_p_units(3)", "q_p_units(5)", "q_p_units(7)")
COMMANDS = ("check", "factor", "orderings", "valuations", "compat", "baer-krull")

# Requests that exit 3 on the parent commit: cmd_compat fixes the witness
# height at 20, and a value gap g needs t > p^g.  They stay in the catalogue
# and run as a probe in every requests run (see NOTES.md).
KNOWN_FAILURES = ("requests/builtin/compat/q_p_units(3)",
                  "requests/builtin/compat/q_p_units(5)",
                  "requests/builtin/compat/q_p_units(7)")

FACTOR_FP_MAX_P = 31
Q_SQUARES_HEIGHTS = (10, 15, 20, 25, 30, 35, 40)
SGNTROP2_WINDOWS = (2, 3)
# the independent counts of hyperfields of orders 2, 3 and 4
ENUMERATION_COUNTS = {2: 2, 3: 5, 4: 7}


def _req(id_, family, argv, spec=None, once=False) -> Entry:
    return Entry("requests/" + id_, family, "cli", None, tuple(argv), spec, once)


def load_bases() -> list[dict]:
    with open(BASES_PATH) as fh:
        return json.load(fh)


def mutant_spec(base: dict, x: int, y: int, bits: int) -> dict:
    """The base table with add cell (x, y) replaced by the subset ``bits``."""
    add = [[list(cell) for cell in row] for row in base["add"]]
    add[x][y] = [b for b in range(len(base["carrier"])) if bits >> b & 1]
    return dict(base, kind="table", name=base["name"] + "*", add=add)


def mutant_entries(bases: list[dict]) -> list[Entry]:
    out = []
    for base in bases:
        n = len(base["carrier"])
        for x in range(n):
            for y in range(n):
                orig = sum(1 << b for b in base["add"][x][y])
                for bits in range(1, 1 << n):
                    if bits == orig:
                        continue
                    out.append(_req("mutant/%s/%d,%d/%d" % (base["name"], x, y, bits), "mutant",
                                    ["check"], mutant_spec(base, x, y, bits)))
    return out


def request_entries() -> list[Entry]:
    out = []
    for name in REQUEST_BUILTINS:
        for cmd in COMMANDS:
            out.append(_req("builtin/%s/%s" % (cmd, name), "builtin", [cmd],
                            {"kind": "builtin", "name": name}))
    out += mutant_entries(load_bases())
    for p, g, size in factor_subgroups(FACTOR_FP_MAX_P, 3, 12):
        for cmd in COMMANDS:
            out.append(_req("factor_fp/%s/F%d/<%d>" % (cmd, p, g), "factor_fp", [cmd],
                            {"kind": "factor_fp", "p": p, "generators": [g]}))
    for n in (2, 3, 4):
        out.append(_req("enumerate/%d" % n, "enumerate", ["enumerate", "--order", str(n)]))
    # a fixed few per run, each measured once: the order-5 enumeration and the
    # sgntrop(2) requests
    out.append(_req("enumerate/5", "enumerate", ["enumerate", "--order", "5"], once=True))
    for h in Q_SQUARES_HEIGHTS:
        for cmd in ("check", "factor", "orderings"):
            out.append(_req("q_squares/%s/%d" % (cmd, h), "q_squares", [cmd, "--height", str(h)],
                            {"kind": "builtin", "name": "q_squares"}))
    for w in SGNTROP2_WINDOWS:
        for cmd in ("orderings", "valuations", "compat"):
            out.append(_req("sgntrop2/%s/%d" % (cmd, w), "sgntrop2", [cmd, "--window", str(w)],
                            {"kind": "builtin", "name": "sgntrop(2)"}, once=True))
    return out


def known_failure_entries() -> list[Entry]:
    wanted = set(KNOWN_FAILURES)
    return [e for e in request_entries() if e.id in wanted]


# ---------------------------------------------------------------------------


# The mix is synthetic, not measured from real use; see NOTES.md ("Traffic
# mix") for the rule behind these numbers.  A requests run's mix holds this
# many requests of each recurring kind, besides one of each once entry.
REQUESTS_PER_KIND = 100
# mutant checks measured per run, one from each of this many equal slices of
# the mutant catalogue
MUTANT_SAMPLE = 100


def stratified(pool: list, k: int, rng: random.Random) -> list:
    """One entry drawn from each of ``k`` equal consecutive slices of ``pool``."""
    n = len(pool)
    return [pool[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]


def plan(workload: str, seed: int) -> Plan:
    rng = random.Random("%s:%d" % (workload, seed))
    entries = [e for e in all_entries(workload) if e.id not in KNOWN_FAILURES]
    weights = {e.id: 1.0 for e in entries}
    if workload == "requests":
        # every recurring kind weighs REQUESTS_PER_KIND, shared by its entries
        families: dict = {}
        for e in entries:
            if not e.once:
                families.setdefault(e.family, []).append(e)
        families["mutant"] = stratified(families["mutant"], MUTANT_SAMPLE, rng)
        entries = [e for e in entries if e.once] + [e for pool in families.values() for e in pool]
        weights = {e.id: 1.0 if e.once else REQUESTS_PER_KIND / len(families[e.family])
                   for e in entries}
    resident = {"tables": table_candidates(), "symbolic": SYMBOLIC_RESIDENT, "requests": ()}
    return Plan(workload, tuple(resident[workload]), tuple(entries), weights, rng)


def all_entries(workload: str) -> list[Entry]:
    if workload == "tables":
        return [e for name in table_candidates() for e in table_entries(name)]
    if workload == "symbolic":
        return symbolic_entries()
    return request_entries()


def spec_path(spec: dict) -> str:
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return os.path.join(SPEC_DIR, hashlib.sha256(blob.encode()).hexdigest()[:16] + ".json")


def request_argv(entry: Entry) -> list[str]:
    """The argv for hfw.cli.main, with the spec written out to its file."""
    argv = list(entry.args)
    if entry.spec is None:
        return argv
    path = spec_path(entry.spec)
    if not os.path.exists(path):
        os.makedirs(SPEC_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(entry.spec, fh, sort_keys=True)
    return argv[:1] + [path] + argv[1:]


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
