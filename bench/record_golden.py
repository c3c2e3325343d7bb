"""Record the benchmark's fixed inputs and golden digests from the current sources.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 bench/record_golden.py

Writes ``bench/data/mutant_bases.json`` (the tables whose single-cell mutants
the requests workload checks) and ``bench/golden.json`` (one digest per
catalogue entry; null for the known failures).  Run it only on a commit whose
outputs are trusted: every later run is compared against what it writes.
It refuses to write when an independent check or a catalogue constant
disagrees with the library.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402


def mutant_bases() -> list[dict]:
    from hfw import constructions

    tables = [constructions.sign_hyperfield(), constructions.krasner_hyperfield(),
              constructions.fp_squares(5).structure,
              constructions.factor_hyperfield(13, [5]).structure]
    tables += constructions.enumerate_hyperfields(3) + constructions.enumerate_hyperfields(4)
    return [F.to_json() for F in tables]


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0" or "HFW_SEED" in os.environ:
        sys.exit("record with PYTHONHASHSEED=0 and HFW_SEED unset, as the benchmark runs")
    os.makedirs(os.path.dirname(catalog.BASES_PATH), exist_ok=True)
    with open(catalog.BASES_PATH, "w") as fh:
        json.dump(mutant_bases(), fh, indent=None, sort_keys=True)
        fh.write("\n")

    import ops

    for name in catalog.table_candidates():
        count = len(ops.Table(name).cones)
        if count != catalog.TABLE_ORDERINGS.get(name, 0):
            sys.exit("TABLE_ORDERINGS is wrong for %s: the library finds %d" % (name, count))

    golden = {}
    for workload in catalog.WORKLOADS:
        entries = catalog.all_entries(workload)
        names = sorted({e.structure for e in entries if e.structure})
        resident = ops.build_resident(workload, names)
        digests = {}
        for e in entries:
            prepared = ops.prepare(e)
            try:
                result = ops.execute(resident, e, prepared)
            except ops.RequestFailed as exc:
                if e.id not in catalog.KNOWN_FAILURES:
                    sys.exit("%s failed: %s" % (e.id, exc))
                digests[e.id] = None
                continue
            if e.id in catalog.KNOWN_FAILURES:
                sys.exit("%s is listed as a known failure but succeeded" % e.id)
            problem = ops.independent_check(e, result)
            if problem:
                sys.exit("%s: %s" % (e.id, problem))
            digests[e.id] = ops.digest(result)
        golden[workload] = digests
        print("%s: %d entries" % (workload, len(digests)), flush=True)
    with open(catalog.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
