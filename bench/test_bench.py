"""Self-tests of the benchmark itself.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

# a seed used nowhere while the benchmark was written
UNSEEN_SEED = 8_675_309


@pytest.fixture(scope="module")
def symbolic_runner():
    return worker.Runner(catalog.plan("symbolic", 1))


def _entry(workload: str, entry_id: str) -> catalog.Entry:
    (entry,) = [e for e in catalog.all_entries(workload) if e.id == entry_id]
    return entry


def test_golden_check_rejects_corrupted_result(symbolic_runner, monkeypatch):
    entry = _entry("symbolic", "symbolic/sgntrop(1)/sym_residue")
    assert symbolic_runner.run(entry)["status"] == "ok"
    real = symbolic_runner.ops.execute

    def corrupted(resident, e, prepared):
        result = real(resident, e, prepared)
        result["classes"] = result["classes"][::-1] + ["extra"]
        return result

    monkeypatch.setattr(symbolic_runner.ops, "execute", corrupted)
    rec = symbolic_runner.run(entry)
    assert rec["status"] == "failed"
    assert "differs from golden" in rec["error"]


def test_independent_check_rejects_wrong_correspondence_size(symbolic_runner, monkeypatch):
    entry = _entry("symbolic", "symbolic/sgntrop(1)/baer_krull_table/2")
    real = symbolic_runner.ops.execute

    def dropped_row(resident, e, prepared):
        result = real(resident, e, prepared)
        result["rows"] = result["rows"][1:]
        return result

    monkeypatch.setattr(symbolic_runner.ops, "execute", dropped_row)
    rec = symbolic_runner.run(entry)
    assert rec["status"] == "failed" and "correspondence" in rec["error"]


def test_injected_exception_counts_in_error_rate_and_module(monkeypatch):
    runner = worker.Runner(catalog.Plan("tables", ("sign",), (), {}, None))
    from hfw import hypercore

    def broken(self, A, B):
        raise RuntimeError("injected")

    monkeypatch.setattr(hypercore.FiniteHyperstructure, "set_add", broken)
    records = [runner.run(_entry("tables", "tables/sign/check_hyperfield")),
               runner.run(_entry("tables", "tables/sign/enumerate_orderings"))]
    assert [r["status"] for r in records] == ["failed", "ok"]
    assert records[0]["module"] == "hypercore"
    errors = worker.error_counts(records, catalog.MODULES)
    assert errors["hypercore.errors"] == 1
    assert sum(errors.values()) == 1


def test_time_budget_stops_and_skips_operations():
    runner = worker.Runner(catalog.Plan("symbolic", ("sgntrop(2)",), (), {}, None), budget=0.5)
    slow = _entry("symbolic", "symbolic/sgntrop(2)/st_axiom_check/3")  # several seconds
    stopped, skipped = runner.run(slow), runner.run(slow)
    assert stopped["status"] == "failed" and "time limit" in stopped["error"]
    assert stopped["module"] == "sgntrop" and stopped["s"] < 2
    assert skipped["status"] == "failed" and "not started" in skipped["error"]


def test_known_failure_is_attributed_to_compat():
    runner = worker.Runner(catalog.Plan("requests", (), (), {}, None))
    (rec,) = [r for r in worker.probe(runner)
              if r["id"] == "requests/builtin/compat/q_p_units(3)"]
    if rec["status"] == "unverified":
        pytest.skip("the known failure has been fixed")
    assert rec["status"] == "failed" and rec["module"] == "compat"
    assert "no difference witness" in rec["error"]


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_unseen_seed_covers_every_family(workload):
    plan = catalog.plan(workload, UNSEEN_SEED)
    families = {e.family for e in catalog.all_entries(workload)
                if e.id not in catalog.KNOWN_FAILURES}
    assert {e.family for e in plan.entries} == families
    resident = set(plan.resident)
    assert all(e.structure in resident for e in plan.entries if e.structure)


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_same_seed_same_schedule(workload):
    def ids(seed):
        plan = catalog.plan(workload, seed)
        passes = plan.passes()
        return [e.id for e in plan.entries] + [e.id for _ in range(3) for e in next(passes)]

    assert ids(5) == ids(5)
    assert ids(5) != ids(6)


def test_requests_mix_weighs_every_kind_the_same():
    plan = catalog.plan("requests", UNSEEN_SEED)
    kinds: dict = {}
    for e in plan.entries:
        if not e.once:
            kinds[e.family] = kinds.get(e.family, 0.0) + plan.weights[e.id]
    assert kinds == pytest.approx({k: catalog.REQUESTS_PER_KIND for k in kinds})
    assert all(plan.weights[e.id] == 1.0 for e in plan.once)


def test_metrics_use_least_time_weighted_by_mix():
    main = {"weights": {"a": 3.0, "b": 1.0, "c": 1.0},
            "records": [{"id": "a", "s": 0.2, "status": "ok"}, {"id": "a", "s": 0.1, "status": "ok"},
                        {"id": "b", "s": 1.0, "status": "ok"},
                        {"id": "c", "s": 0.1, "status": "failed"}],
            "peak_rss_mb": 1.0}
    metrics = run.end_to_end(main, [0.5])
    assert metrics["ops_per_s"]["value"] == pytest.approx(4 / (3 * 0.1 + 1.0))
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(100.0)
    assert metrics["latency_p90_ms"]["value"] == pytest.approx(1000.0)


def test_every_entry_has_a_golden_digest():
    golden = catalog.load_golden()
    for workload in catalog.WORKLOADS:
        ids = {e.id for e in catalog.all_entries(workload)}
        assert ids == set(golden[workload])
        assert {i for i, d in golden[workload].items() if d is None} == (
            set(catalog.KNOWN_FAILURES) if workload == "requests" else set())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
