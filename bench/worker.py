"""One benchmark process, started by run.py in a fresh interpreter.

Modes:
  setup   time the import of hfw and the build of the resident structures
  run     set up, then measure the closed loop in whole passes for the
          given seconds
  trace   set up, run every entry once untraced and once more under
          cProfile, and derive the per-layer metrics

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import inspect
import json
import os
import pstats
import resource
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402  (pure; does not import hfw)

# Any single operation running longer than this counts as failed.  The
# slowest catalogue entry takes about 7 s on a 2-core x86 machine.
OP_LIMIT_S = 60.0
SETUP_BUDGET_S = 60.0
# The traced run does a fixed amount of work, whatever --seconds is; see
# NOTES.md for how long it takes and how much room this leaves.
TRACE_BUDGET_S = 160.0
# A run measures every repeated entry at least this often, so that each
# has a warm timing, whatever the host's speed.
MIN_PASSES = 2

# Call counters read from the profile: metric -> functions, as dotted paths
# below the hfw package.  A path that no longer resolves counts zero.
COUNTERS = {
    "hypercore.add_calls": ["hypercore.FiniteHyperstructure.add"],
    "hypercore.set_add_calls": ["hypercore.FiniteHyperstructure.set_add"],
    "hypercore.tables_built": ["hypercore.FiniteHyperstructure.__post_init__"],
    "hypercore.battery_calls": ["hypercore.check_canonical_hypergroup",
                                "hypercore.check_hyperring", "hypercore.check_hyperfield"],
    "hypercore.iso_tests": ["hypercore.is_isomorphism"],
    "sgntrop.add_calls": ["sgntrop.SignedValueHyperfield.add"],
    "sgntrop.set_add_calls": ["sgntrop.SignedValueHyperfield.set_add"],
    "sgntrop.part_add_calls": ["sgntrop.SignedValueHyperfield._part_add"],
    "sgntrop.window_sweeps": ["sgntrop.SignedValueHyperfield.window_elements"],
    "sgntrop.eq_key_calls": ["sgntrop.STSet.__eq__", "sgntrop.STSet._key"],
    "constructions.squarefree_calls": ["constructions.squarefree_part"],
    "constructions.enum_candidates": ["constructions._derive_add_table"],
    "constructions.factor_sum_calls": ["constructions.q_factor_sum"],
    "realalg.enumerate_orderings_calls": ["realalg.enumerate_orderings"],
    "realalg.is_ordering_calls": ["realalg.is_ordering"],
    "valtheory.enumerate_rings_calls": ["valtheory.enumerate_valuation_hyperrings"],
    "valtheory.ring_checks": ["valtheory.is_valuation_hyperring"],
    "compat.report_calls": ["compat.compatibility_report"],
    "compat.sym_revalidations": ["sgntrop.sym_is_valuation", "sgntrop.sym_is_ordering"],
}
# cumulative (not self) seconds of single functions
CUMULATIVE = {
    "constructions.squarefree_s": "constructions.squarefree_part",
    "cli.load_s": "cli.load_spec",
}
CLI_COMMANDS = ("check", "factor", "orderings", "valuations", "compat", "baer-krull", "enumerate")


def budget_s(mode: str, seconds: float) -> float:
    """The longest a worker in ``mode`` may take, from its start.

    A run's loop may overshoot --seconds on a slow host, where its minimum
    number of passes takes longer, so it gets twice --seconds and one
    operation's limit.  An operation still running when
    the budget ends is stopped and counts as failed, and operations not
    started by then count as failed too, so a slow tree yields a result
    rather than a killed process."""
    if mode == "setup":
        return SETUP_BUDGET_S
    if mode == "run":
        return 2 * seconds + OP_LIMIT_S
    return TRACE_BUDGET_S


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that ran past its time limit.

    A BaseException, so that no handler inside hfw swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Set-up and per-operation execution with result checking."""

    def __init__(self, plan: catalog.Plan, budget: float = float("inf")):
        self.plan = plan
        self.golden = catalog.load_golden()[plan.workload]
        started = time.perf_counter()
        self.deadline = started + budget
        import ops  # imports hfw

        self.ops = ops
        self.resident = ops.build_resident(plan.workload, plan.resident)
        self.setup_s = time.perf_counter() - started
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, entry: catalog.Entry, profiler: cProfile.Profile | None = None) -> dict:
        """Run one entry; return its record with latency and verdict."""
        ops = self.ops
        rec = {"id": entry.id, "family": entry.family, "s": 0.0, "status": "ok"}
        prepared = ops.prepare(entry)
        error = result = None
        limit = min(OP_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            return dict(rec, status="failed", error="not started: the run's time budget ran out",
                        module=ops.home_module(entry))
        signal.setitimer(signal.ITIMER_REAL, limit)
        started = time.perf_counter()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                result = ops.execute(self.resident, entry, prepared)
            finally:
                if profiler is not None:
                    profiler.disable()
        except (Exception, OpTimeout) as exc:  # every failure is counted, none stops the run
            error = exc
        finally:
            rec["s"] = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
        if isinstance(error, OpTimeout):
            return dict(rec, status="failed", error="stopped after %.1f s, its time limit" % limit,
                        module=ops.module_of_traceback(error.__traceback__) or ops.home_module(entry))
        if error is not None:
            return dict(rec, status="failed", error="%s: %s" % (type(error).__name__, error),
                        module=ops.raising_module(entry, prepared, error))
        problem = ops.independent_check(entry, result)
        if problem is None:
            if entry.id not in self.golden:
                problem = "no golden digest for this entry"
            elif self.golden[entry.id] is None:
                return dict(rec, status="unverified")
            elif ops.digest(result) != self.golden[entry.id]:
                problem = "result digest %s differs from golden %s" % (
                    ops.digest(result), self.golden[entry.id])
        if problem is not None:
            return dict(rec, status="failed", error=problem, module=ops.home_module(entry))
        return rec


def closed_loop(runner: Runner, seconds: float) -> tuple[list[dict], int]:
    """Measure the plan's entries; return every record and the number of passes.

    The first pass runs every repeated entry, then each once entry runs, so
    that it finds the memo tables the same whatever the seed's order.  More
    passes follow, each in a fresh order, while the next is expected to end
    within ``seconds`` of the start, and at least MIN_PASSES in all."""
    started = time.perf_counter()
    passes = runner.plan.passes()
    records = [runner.run(e) for e in next(passes)]
    count, last = 1, time.perf_counter() - started
    for e in runner.plan.once:
        # a long operation starts from a collected heap, so that where its
        # own collections fall does not depend on the seed's order
        gc.collect()
        records.append(runner.run(e))
    while count < MIN_PASSES or time.perf_counter() + last - started <= seconds:
        pass_started = time.perf_counter()
        records += [runner.run(e) for e in next(passes)]
        count, last = count + 1, time.perf_counter() - pass_started
    return records, count


def probe(runner: Runner) -> list[dict]:
    """Known-failure requests, run once outside the measured loop."""
    if runner.plan.workload != "requests":
        return []
    return [runner.run(e) for e in catalog.known_failure_entries()]


def _resolve(path: str):
    import hfw

    obj = hfw
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(inspect.unwrap(obj), "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno, code.co_name)


def layer_metrics(profiler: cProfile.Profile, hfw_dir: str, modules) -> dict:
    """Self time and calls per module, and the named counters, from a profile."""
    stats = pstats.Stats(profiler).stats
    out = {}
    for m in modules:
        path = os.path.join(hfw_dir, m + ".py")
        rows = [v for k, v in stats.items() if os.path.abspath(k[0]) == path]
        out[m + ".self_s"] = sum(r[2] for r in rows)
        out[m + ".calls"] = sum(r[1] for r in rows)

    def calls(path):
        key = _resolve(path)
        return stats[key][1] if key in stats else 0

    for metric, paths in COUNTERS.items():
        out[metric] = sum(calls(p) for p in paths)
    adds = out["sgntrop.add_calls"]
    rows_built = calls("sgntrop.SignedValueHyperfield._row")
    out["sgntrop.row_hit_ratio"] = 1.0 - rows_built / adds if adds else 0.0
    for metric, path in CUMULATIVE.items():
        key = _resolve(path)
        out[metric] = stats[key][3] if key in stats else 0.0
    return out


def cli_p50(records: list[dict], entries: dict) -> dict:
    """Median latency per hfw command over the requests among the records."""
    out = {}
    for cmd in CLI_COMMANDS:
        lat = [r["s"] for r in records if entries[r["id"]].op == "cli" and entries[r["id"]].args[0] == cmd]
        out["cli.%s.p50_ms" % cmd] = statistics.median(lat) * 1e3 if lat else 0.0
    return out


def error_counts(records: list[dict], modules) -> dict:
    """Failed operations per raising module; a module outside ``modules``
    still counts in the failed total but has no metric of its own."""
    out = {m + ".errors": 0 for m in modules}
    for r in records:
        key = r.get("module", "") + ".errors"
        if r["status"] == "failed" and key in out:
            out[key] += 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)
    plan = catalog.plan(args.workload, args.seed)
    runner = Runner(plan, budget_s(args.mode, args.seconds))
    out = {"setup_s": runner.setup_s}
    out["weights"] = plan.weights
    if args.mode == "run":
        records, passes = closed_loop(runner, args.seconds)
        out.update(records=records, passes=passes, probe=probe(runner))
    elif args.mode == "trace":
        entries = next(plan.passes()) + plan.once
        untraced = [runner.run(e) for e in entries]
        # rebuild, so that the traced pass starts from the same cold memo
        # tables as the untraced one
        runner.resident = runner.ops.build_resident(plan.workload, plan.resident)
        profiler = cProfile.Profile()
        traced, spans = [], []
        for e in entries:
            started = time.perf_counter()
            traced.append(runner.run(e, profiler))
            spans.append({"workload": plan.workload, "op": e.id,
                          "start": started, "end": time.perf_counter()})
        ops = runner.ops
        probed = probe(runner)
        by_id = {e.id: e for e in entries + catalog.known_failure_entries()}
        layers = layer_metrics(profiler, ops.HFW_DIR, catalog.MODULES)
        layers.update(error_counts(untraced + probed, catalog.MODULES))
        layers.update(cli_p50(untraced, by_id))
        layers["trace_overhead"] = sum(r["s"] for r in traced) / sum(r["s"] for r in untraced)
        out.update(records=untraced + traced, probe=probed, layers=layers, spans=spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
