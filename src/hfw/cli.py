"""Batch front door: load or construct a structure, run the analyses, and
emit a report.

Exit codes: 0 clean, 1 a check failed, 2 malformed spec or unsupported
command/structure combination, 3 an internal cross-check broke (with
diagnostics).  With --json the stdout payload is deterministic byte for byte
for the same inputs; timing goes to the text rendering only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .compat import (
    baer_krull_table,
    compatibility_reports,
    convexity_check,
    incomparability_witnesses,
)
from .constructions import (
    QSubgroup,
    enumerate_hyperfields,
    factor_hyperfield,
    factor_subgroup,
    fp_squares,
    krasner_hyperfield,
    q_class_mul,
    q_class_neg,
    q_factor_class,
    q_factor_sum,
    q_zero_class,
    sign_hyperfield,
    squares_product_closure_check,
)
from .hypercore import (
    DomainError,
    FiniteHyperstructure,
    InternalCheckError,
    check_double_distributivity,
    check_hyperfield,
)
from .realalg import (
    factor_ordering_count_check,
    is_real,
    natural_hull,
    one_sum_sequence,
    rational_cone_count,
)
from .sgntrop import (
    ALL,
    SignedValueHyperfield,
    canonical_valuation,
    q_punits_hyperfield,
    signed_tropical,
    st_axiom_check,
    sym_is_valuation,
    sym_natural_ring,
    sym_orderings,
    sym_residue,
    sym_ring_of,
    trivial_valuation,
)
from .valtheory import (
    enumerate_valuation_hyperrings,
    inclusion_reversal_check,
    induced_valuation_on_factor,
    residue_hyperfield,
    sym_valuation_from_ring,
    valuation_report,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_INTERNAL = 3

DEFAULT_HEIGHT = 100
DEFAULT_WINDOW = 6
# the largest rank any test or benchmark runs; a window sweep over Z^k holds
# (2B+1)^k values, so larger ranks cannot finish
MAX_SGNTROP_RANK = 3
# the largest table carrier every command finishes on within 10 s on a 2-core
# VM: at 23 elements the cone search (C(21, 10) candidate subgroups) took
# 4.6-5.0 s on F_p/T tables and 31 s on a table whose nonzero products are all 1
MAX_TABLE_CARRIER = 22


@dataclass
class Loaded:
    """A structure the commands can run on: a finite table, a signed-value
    structure, or a bounded view of a rational factor."""

    label: str
    finite: FiniteHyperstructure | None = None
    sym: SignedValueHyperfield | None = None
    subgroup: QSubgroup | None = None


_BUILTIN_RE = re.compile(r"^([a-z_0-9]+?)(?:\((\d+)\))?$")


def _positives_factor_structure() -> FiniteHyperstructure:
    """Materialise the factor of Q by the positives from the class oracle."""
    T = QSubgroup("positives")
    classes = [q_zero_class(T), q_factor_class(1, T), q_factor_class(-1, T)]
    idx = {c: i for i, c in enumerate(classes)}
    add_rows = []
    for a in classes:
        row = []
        for b in classes:
            S = q_factor_sum(a, b, T)
            if not S.complete:
                raise InternalCheckError("positives factor sum is not closed form")
            row.append(frozenset(i for i, c in enumerate(classes) if S.contains(c)))
        add_rows.append(tuple(row))
    F = FiniteHyperstructure(
        name="q/positives",
        labels=tuple(c.label() for c in classes),
        zero=0,
        one=1,
        neg_table=tuple(idx[q_class_neg(c, T)] for c in classes),
        mul_table=tuple(tuple(idx[q_class_mul(a, b, T)] for b in classes) for a in classes),
        add_table=tuple(add_rows),
    )
    rep = check_hyperfield(F)
    if not rep.ok:
        raise InternalCheckError("positives factor is not a hyperfield: %s" % rep.summary())
    return F


def _load_builtin(name: str, spec: dict) -> Loaded:
    m = _BUILTIN_RE.match(name)
    if not m:
        raise DomainError("unrecognised builtin name %r" % name)
    core, arg = m.group(1), m.group(2)
    if core == "sign":
        return Loaded("sign", finite=sign_hyperfield())
    if core == "krasner":
        return Loaded("krasner", finite=krasner_hyperfield())
    if core == "sgntrop":
        k = int(arg) if arg else spec.get("k", 1)
        if not 1 <= k <= MAX_SGNTROP_RANK:
            raise DomainError("sgntrop(k) takes 1 <= k <= %d, not %d" % (MAX_SGNTROP_RANK, k))
        return Loaded("sgntrop(%d)" % k, sym=signed_tropical(k))
    if core == "q_pos":
        return Loaded("q_pos", finite=_positives_factor_structure(),
                      subgroup=QSubgroup("positives"))
    if core == "q_squares":
        return Loaded("q_squares", subgroup=QSubgroup("squares"))
    if core == "q_p_units":
        p = int(arg) if arg else spec.get("p", 2)
        return Loaded("q_p_units(%d)" % p, sym=q_punits_hyperfield(p),
                      subgroup=QSubgroup("punits", p))
    if core == "fp_squares":
        p = int(arg) if arg else spec.get("p", 5)
        return Loaded("fp_squares(%d)" % p, finite=fp_squares(p).structure)
    raise DomainError("unrecognised builtin name %r" % name)


def _check_carrier(size: int) -> None:
    if size > MAX_TABLE_CARRIER:
        raise DomainError("table carriers take at most %d elements, not %d" % (MAX_TABLE_CARRIER, size))


def load_spec(spec: dict) -> Loaded:
    if not isinstance(spec, dict):
        raise DomainError("spec must be a JSON object")
    kind = spec.get("kind")
    if kind == "builtin":
        name = spec.get("name")
        if not isinstance(name, str):
            raise DomainError("builtin spec needs a string name")
        if not all(isinstance(spec.get(key, 0), int) for key in ("k", "p")):
            raise DomainError("builtin spec fields k and p must be integers")
        return _load_builtin(name, spec)
    if kind == "factor_fp":
        p = spec.get("p")
        gens = spec.get("generators")
        if not isinstance(p, int) or not isinstance(gens, list) or not all(isinstance(g, int) for g in gens):
            raise DomainError("factor_fp spec needs integer p and a list of integer generators")
        _check_carrier((p - 1) // len(factor_subgroup(p, gens)) + 1)
        fh = factor_hyperfield(p, gens)
        return Loaded(fh.structure.name, finite=fh.structure)
    if kind == "table":
        if isinstance(spec.get("carrier"), list):
            _check_carrier(len(spec["carrier"]))
        body = {k: v for k, v in spec.items() if k != "kind"}
        F = FiniteHyperstructure.from_json(body)
        if F.zero == F.one:
            raise DomainError("a table's zero and one must differ")
        return Loaded(F.name, finite=F)
    raise DomainError("unknown spec kind %r" % kind)


def _digest(spec: dict | None, args) -> str:
    payload = {
        "spec": spec,
        "command": args.command,
        "height": args.height,
        "window": args.window,
        "order": args.order,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# commands: each returns (findings dict, failed flag)


def cmd_check(loaded: Loaded, args) -> tuple[dict, bool]:
    if loaded.finite is not None:
        rep = check_hyperfield(loaded.finite)
        dd = check_double_distributivity(loaded.finite)
        findings = {
            "axioms": rep.to_json(),
            "double_distributivity_inclusion": dd.inclusion_ok,
            "equality_failures": dd.equality_failure_count,
        }
        return findings, not (rep.ok and dd.inclusion_ok)
    if loaded.sym is not None:
        B = min(args.window, 4)
        rep = st_axiom_check(loaded.sym, B=B)
        findings = {"axioms": rep.to_json(), "window": B}
        return findings, not rep.ok
    # bounded battery for the squares factor of Q
    T = loaded.subgroup
    pairs, violations, _ = squares_product_closure_check(min(args.height, 100))
    sample = [q_factor_class(m, T) for m in (1, 2, 3, 5, 6, 7, -1, -2, -3)]
    sym_ok = True
    zero_ok = True
    for x in sample:
        for y in sample:
            S1 = q_factor_sum(x, y, T, args.height)
            S2 = q_factor_sum(y, x, T, args.height)
            for c in sample + [q_zero_class(T)]:
                if S1.contains(c) != S2.contains(c):
                    sym_ok = False
        Sz = q_factor_sum(x, q_class_neg(x, T), T, args.height)
        if not Sz.contains(q_zero_class(T)):
            zero_ok = False
    findings = {
        "product_closure_ok": not violations,
        "pairs_checked": pairs,
        "commutativity_sampled_ok": sym_ok,
        "zero_in_x_minus_x_ok": zero_ok,
        "height": args.height,
    }
    return findings, not (not violations and sym_ok and zero_ok)


def cmd_factor(loaded: Loaded, args) -> tuple[dict, bool]:
    if loaded.finite is not None:
        return {"table": loaded.finite.to_json()}, False
    if loaded.sym is not None:
        H = loaded.sym
        B = min(args.window, 2)
        rows = []
        window = H.window_elements(B, include_zero=True)
        for x in window:
            for y in window:
                rows.append([str(x), str(y), str(H.add(x, y))])
        samples = []
        if loaded.subgroup is not None:
            for a in (12, Fraction(-3, 2), Fraction(7, 8), 5):
                samples.append([str(a), q_factor_class(a, loaded.subgroup).label()])
        return {"window_rows": rows, "class_samples": samples, "window": B}, False
    T = loaded.subgroup
    samples = [[str(a), q_factor_class(a, T).label()]
               for a in (1, 2, 3, 5, 6, 7, 18, Fraction(-3, 2))]
    sums = []
    for m, n in ((1, 1), (1, 2), (2, 3), (1, -1)):
        x, y = q_factor_class(m, T), q_factor_class(n, T)
        S = q_factor_sum(x, y, T, args.height)
        labels = S.member_labels()
        shown = list(labels[:10])
        if len(labels) > 10:
            shown.append("... %d members at height %d" % (len(labels), args.height))
        sums.append({
            "x": x.label(), "y": y.label(), "members": shown,
            "rule": S.rule, "complete": S.complete,
        })
    return {"class_samples": samples, "sample_sums": sums, "height": args.height}, False


def cmd_orderings(loaded: Loaded, args) -> tuple[dict, bool]:
    if loaded.finite is not None:
        F = loaded.finite
        rrep = is_real(F)  # its cones are enumerated and validated
        # one_sum_sequence refuses sums that do not cycle within its limit,
        # so it runs only where a cone needs it
        seq = one_sum_sequence(F) if rrep.orderings else None
        entries = []
        for P in rrep.orderings:
            ring, ideal = natural_hull(F, P, seq)
            entries.append({
                "cone": sorted(F.label(a) for a in P),
                "archimedean": len(ring) == F.size,
                "natural_ring": sorted(F.label(a) for a in ring),
                "natural_ideal": sorted(F.label(a) for a in ideal),
            })
        findings = {"count": len(entries), "real": rrep.real, "realness_witness": rrep.witness,
                    "orderings": entries}
    elif loaded.sym is not None:
        H = loaded.sym
        entries = [{"cone": P.label(), "archimedean": sym_natural_ring(H, P) is ALL}
                   for P in sym_orderings(H, min(args.window, 6))]
        findings = {"count": len(entries), "real": bool(entries), "orderings": entries}
    else:
        count = rational_cone_count(loaded.subgroup, args.height)
        return {
            "base_cones_containing_subgroup": count,
            "note": "factor side is identified with the base count through the cone correspondence",
        }, False
    if loaded.subgroup is not None:
        findings["count_comparison"] = factor_ordering_count_check("Q", loaded.subgroup, args.height).to_json()
    return findings, False


def cmd_valuations(loaded: Loaded, args) -> tuple[dict, bool]:
    if loaded.finite is not None:
        F = loaded.finite
        records = [residue_hyperfield(F, O) for O in enumerate_valuation_hyperrings(F)]
        entries = []
        for res in records:
            entry = valuation_report(F, res.valuation)
            entry["ring"] = sorted(F.label(a) for a in res.ring)
            entry["residue"] = {"name": res.structure.name, "size": res.structure.size}
            entries.append(entry)
        findings = {
            "ring_count": len(records),
            "inclusion_reversal_ok": inclusion_reversal_check(records),
            "valuations": entries,
        }
        return findings, False
    if loaded.sym is not None:
        H = loaded.sym
        entries = []
        for v in (trivial_valuation(), canonical_valuation(H)):
            rep = sym_is_valuation(H, v, B=min(args.window, 4))
            ring = sym_ring_of(H, v)
            back = sym_valuation_from_ring(H, ring)
            entry = {
                "valuation": v.label(),
                "axioms_ok": rep.ok,
                "ring": "ALL" if ring is ALL else str(ring),
                "round_trip_ok": back.prefix == v.prefix,
            }
            if v.prefix == H.k and H.k > 0:
                entry["residue_classes"] = len(sym_residue(H).class_names)
            entries.append(entry)
        findings = {"valuations": entries}
        if loaded.subgroup is not None and loaded.subgroup.kind == "punits":
            Hf, vf = induced_valuation_on_factor(loaded.subgroup.p, loaded.subgroup)
            findings["induced_on_factor"] = {"structure": Hf.name, "valuation": vf.label()}
        failed = not all(e["axioms_ok"] and e["round_trip_ok"] for e in entries)
        return findings, failed
    raise DomainError("valuation enumeration needs a finite or signed-value structure")


def cmd_compat(loaded: Loaded, args) -> tuple[dict, bool]:
    if loaded.finite is not None:
        F = loaded.finite
        reports = [rep for O in enumerate_valuation_hyperrings(F)
                   for rep in compatibility_reports(F, residue_hyperfield(F, O)).values()]
    elif loaded.sym is not None:
        H = loaded.sym
        window = min(args.window, 4 if H.k > 1 else 6)
        by_cone = compatibility_reports(H, canonical_valuation(H), window)
        reports = list(by_cone.values())
    else:
        raise DomainError("compatibility runs on a finite or signed-value structure")
    cells = [rep.to_json() for rep in reports]
    findings: dict = {"cells": cells, "all_compatible": all(c["compatible"] for c in cells)}
    if loaded.subgroup is not None and loaded.subgroup.kind == "punits":
        (P,) = by_cone
        conv = convexity_check(H, P, sym_ring_of(H, canonical_valuation(H)))
        findings["ring_convexity"] = conv.to_json()
        findings["incomparable_pairs"] = [
            w.to_json() for w in incomparability_witnesses(5, p=loaded.subgroup.p)
        ]
    return findings, False


def cmd_baer_krull(loaded: Loaded, args) -> tuple[dict, bool]:
    H = loaded.sym if loaded.sym is not None else loaded.finite
    if H is None:
        raise DomainError("the correspondence runs on a finite or signed-value structure")
    return {"table": baer_krull_table(H, window=min(args.window, 4)).to_json()}, False


def cmd_enumerate(args) -> tuple[dict, bool]:
    n = args.order
    if n is None:
        raise DomainError("enumerate needs --order N")
    if not 2 <= n <= 5:
        raise DomainError("enumeration supports orders 2 through 5")
    per_order = []
    failed = False
    for size in range(2, n + 1):
        found = enumerate_hyperfields(size)
        entries = []
        for F in found:
            ok = check_hyperfield(F).ok
            failed = failed or not ok
            rrep = is_real(F)
            entries.append({
                "name": F.name,
                "axioms_ok": ok,
                "real": rrep.real,
                "orderings": len(rrep.orderings),
            })
        per_order.append({"order": size, "count": len(found), "structures": entries})
    return {"orders": per_order}, failed


# ---------------------------------------------------------------------------
# rendering


def _render_text(payload: dict, elapsed: float) -> str:
    lines = ["command: %s" % payload["command"], "inputs: %s" % payload["inputs"]]

    def scalarish(v) -> bool:
        return not isinstance(v, (dict, list)) or (
            isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)
        )

    def flat(v) -> str:
        if isinstance(v, list):
            return "[" + ", ".join(str(x) for x in v) + "]"
        return str(v)

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if scalarish(v):
                    lines.append("%s%s: %s" % (pad, k, flat(v)))
                else:
                    lines.append("%s%s:" % (pad, k))
                    walk(v, indent + 1)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                if scalarish(v):
                    lines.append("%s- %s" % (pad, flat(v)))
                else:
                    lines.append("%s- entry %d:" % (pad, i))
                    walk(v, indent + 1)

    walk(payload["findings"], 1)
    lines.append("elapsed: %.2fs" % elapsed)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfw",
        description="hyperfield workbench: axiom checks, orderings, valuations, compatibility",
    )
    parser.add_argument("command", choices=[
        "check", "factor", "orderings", "valuations", "compat", "baer-krull", "enumerate",
    ])
    parser.add_argument("spec", nargs="?", help="path to a structure spec JSON file")
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--height", type=int, default=DEFAULT_HEIGHT,
                        help="height bound for rational searches (default %d)" % DEFAULT_HEIGHT)
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help="value window for symbolic sweeps (default %d)" % DEFAULT_WINDOW)
    parser.add_argument("--order", type=int, default=None,
                        help="carrier size bound for enumerate")
    return parser


_COMMANDS = {
    "check": cmd_check,
    "factor": cmd_factor,
    "orderings": cmd_orderings,
    "valuations": cmd_valuations,
    "compat": cmd_compat,
    "baer-krull": cmd_baer_krull,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    spec_obj = None
    try:
        for flag in ("window", "height"):
            if getattr(args, flag) < 1:
                raise DomainError("--%s must be at least 1" % flag)
        if args.command == "enumerate":
            findings, failed = cmd_enumerate(args)
        else:
            if not args.spec:
                raise DomainError("command %r needs a spec file" % args.command)
            try:
                with open(args.spec) as fh:
                    spec_obj = json.load(fh)
            except OSError as exc:
                raise DomainError("cannot read spec: %s" % exc) from exc
            except json.JSONDecodeError as exc:
                raise DomainError("spec is not valid JSON: %s" % exc) from exc
            loaded = load_spec(spec_obj)
            findings, failed = _COMMANDS[args.command](loaded, args)
    except DomainError as exc:
        print("spec error: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    except InternalCheckError as exc:
        print("internal cross-check failed: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    payload = {
        "command": args.command,
        "inputs": _digest(spec_obj, args),
        "findings": findings,
    }
    if args.as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(_render_text(payload, time.monotonic() - started))
    return EXIT_FAIL if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
