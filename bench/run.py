"""The hfw benchmark: seeded workloads, end to end or traced.

    python3 bench/run.py --workload tables|symbolic|requests|all --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  Every process it starts is a fresh
interpreter with PYTHONHASHSEED=0, HFW_SEED unset and PYTHONPATH=src, runs
on one thread, and is waited for.  The closed loop (one client; the next
operation starts when the previous one returns) runs in one process and
measures every operation of the seed's mix in whole passes; each
operation's least time, weighted by the mix, gives the latencies.  The
set-up time is the median over several fresh processes.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one fixed pass of the same seed
under cProfile.  The lines before it are a readable report.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import worker as worker_mod  # noqa: E402  (does not import hfw)

SRC = os.path.join("src", "hfw")
# fresh interpreters that only time set-up, besides the measuring one
SETUP_PROCESSES = 4
# A worker stops its own operations when its budget runs out; a worker
# still alive this long after that is hung and is killed.
HUNG_GRACE_S = 20
# p90 needs ten samples beyond it; a run that times fewer operations
# without a failure is not correct
MIN_SAMPLES = 100


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HFW_SEED", None)  # incomparability_witnesses samples pairs from it
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = "src"
    return env


def worker(args, workload: str, mode: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    timeout = worker_mod.budget_s(mode, args.seconds) + HUNG_GRACE_S
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checked-out commit, or 'unknown' outside a git checkout."""
    if not os.path.exists(".git"):  # do not let git search the parent directories
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def module_lines() -> dict:
    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            out[os.path.splitext(os.path.basename(path))[0]] = sum(1 for _ in fh)
    return out


def weighted_percentile(pairs: list[tuple[float, float]], q: float) -> float:
    """The least value whose share of the total weight, counting every value
    up to it, reaches q percent; pairs are (value, weight)."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    reached = 0.0
    for value, weight in pairs:
        reached += weight
        if reached >= q / 100 * total * (1 - 1e-12):
            return value
    return pairs[-1][0]


def least_times(main: dict) -> dict:
    """Each operation's least time over its measurements, for the
    operations none of whose measurements failed."""
    failed = {r["id"] for r in main["records"] if r["status"] == "failed"}
    out: dict = {}
    for r in main["records"]:
        if r["id"] not in failed:
            out[r["id"]] = min(out.get(r["id"], r["s"]), r["s"])
    return out


def end_to_end(main: dict, setup: list[float]) -> dict:
    # each operation counts with its weight in the mix and its least time
    pairs = [(s, main["weights"][i]) for i, s in least_times(main).items()]
    ops_per_s = sum(w for _, w in pairs) / sum(s * w for s, w in pairs) if pairs else 0.0
    pairs = pairs or [(0.0, 1.0)]  # every operation failed: the run is not correct
    return {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "latency_p50_ms": {"value": weighted_percentile(pairs, 50) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": weighted_percentile(pairs, 90) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(main: dict, lines: dict) -> dict:
    out = {}
    for name, value in sorted(main["layers"].items()):
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_ms"):
            unit = "ms"
        elif name.endswith("ratio") or name == "trace_overhead":
            unit = "ratio"
        else:
            unit = "count"
        out[name] = {"value": value, "unit": unit}
    for m in catalog.MODULES:
        out[m + ".lines"] = {"value": lines.get(m, 0), "unit": "count"}
    unverified = sum(1 for r in main["records"] + main["probe"] if r["status"] == "unverified")
    out["unverified"] = {"value": unverified, "unit": "count"}
    return out


def report(args, workload: str, main: dict, setup: list[float], metrics: dict,
           lines: dict) -> list[str]:
    records = main["records"]
    failed = [r for r in records if r["status"] == "failed"]
    out = [
        "hfw benchmark: workload=%s seed=%d trace=%d seconds=%s"
        % (workload, args.seed, args.trace, args.seconds),
        "environment: python %s, nproc %s, commit %s, PYTHONHASHSEED=0, HFW_SEED unset"
        % (platform.python_version(), os.cpu_count(), git_commit()),
        "module lines: %s (total %d)"
        % (", ".join("%s %d" % kv for kv in lines.items()), sum(lines.values())),
        "error_rate %.6f (failed / attempted)" % (len(failed) / len(records)),
        "setup_s samples: %s" % ", ".join("%.4f" % s for s in setup),
    ]
    if args.trace:
        out.append("per-layer numbers come from one traced pass of %d operations; no layer "
                   "queues work on one thread, so wait time is omitted" % (len(records) // 2))
    else:
        least = least_times(main)
        p90 = metrics["latency_p90_ms"]["value"] / 1e3
        out.append(
            "closed loop, one client on one thread; %d passes, %d measurements, %d failed, "
            "%d unverified; latencies are the least time of each of %d operations (%d beyond "
            "p90), weighted by the mix (total weight %g)"
            % (main["passes"], len(records), len(failed),
               sum(r["status"] == "unverified" for r in records), len(least),
               sum(s > p90 for s in least.values()), sum(main["weights"].values())))
    for name, m in metrics.items():
        out.append("  %-36s %14.6f %s" % (name, m["value"], m["unit"]))
    for r in failed[:20]:
        out.append("failed %s [%s]: %s" % (r["id"], r["module"], r["error"]))
    for r in main["probe"]:
        out.append("known-failure probe %s: %s%s"
                   % (r["id"], r["status"], ": " + r["error"] if "error" in r else ""))
    return out


def run_workload(args, workload: str) -> dict:
    """Measure one workload, print its report, and return its result object."""
    main_run = worker(args, workload, "trace" if args.trace else "run")
    setup = [main_run["setup_s"]] + [worker(args, workload, "setup")["setup_s"]
                                     for _ in range(SETUP_PROCESSES)]
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", "spans-%s-%d.json" % (workload, args.seed))
        with open(path, "w") as fh:
            json.dump(main_run["spans"], fh)
    lines = module_lines()
    metrics = per_layer(main_run, lines) if args.trace else end_to_end(main_run, setup)
    print("\n".join(report(args, workload, main_run, setup, metrics, lines)), flush=True)
    records = main_run["records"]
    failed = sum(1 for r in records if r["status"] == "failed")
    correct = failed == 0
    if not args.trace and len(least_times(main_run)) < MIN_SAMPLES:
        print("not correct: fewer than %d operations timed" % MIN_SAMPLES, flush=True)
        correct = False
    return {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=catalog.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print("bench: no hfw sources at %s; run from the repository root" % SRC, file=sys.stderr)
        return 2
    workloads = catalog.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(args, w) for w in workloads}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    if args.workload == "all":
        # one line for all workloads, each metric named <workload>.<metric>
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
