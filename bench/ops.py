"""Calls into hfw for the benchmark: resident structures, one function per
catalogue operation, canonical results and the independent checks.

Importing this module imports every hfw module; the worker times that import
as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import traceback

import hfw
import hfw.cli as cli
from hfw import compat, constructions, hypercore, realalg, sgntrop, valtheory

import catalog

HFW_DIR = os.path.dirname(os.path.abspath(hfw.__file__))


# ---------------------------------------------------------------------------
# resident structures


class Table:
    """A finite hyperfield with the derived objects its entries take as
    arguments, each list in a canonical order (sorted by members)."""

    def __init__(self, name: str):
        F = _build_table(name)
        self.F = F
        self.whole = frozenset(F.elements())
        self.ideals = [frozenset({F.zero}), self.whole]
        self.cones = sorted(realalg.enumerate_orderings(F), key=sorted)
        self.v = self.residue_cones = None
        if self.cones:  # only a table with orderings has compatibility and lifting entries
            self.v = valtheory.valuation_from_hyperring(F, self.whole)
            res = valtheory.residue_hyperfield(F, self.whole)
            self.residue_cones = sorted(realalg.enumerate_orderings(res.structure), key=sorted)


def _build_table(name: str):
    if name == "sign":
        return constructions.sign_hyperfield()
    if name == "krasner":
        return constructions.krasner_hyperfield()
    if name.startswith("fp_squares("):
        return constructions.fp_squares(int(name[len("fp_squares("):-1])).structure
    if "/<" in name:
        p, g = (int(x) for x in name[1:-1].split("/<"))
        return constructions.factor_hyperfield(p, [g]).structure
    return constructions.prime_field_hyperfield(int(name[1:]))


def _build_sym(name: str):
    arg = int(name[name.index("(") + 1:-1])
    if name.startswith("sgntrop("):
        return sgntrop.signed_tropical(arg)
    return sgntrop.q_punits_hyperfield(arg)


def build_resident(workload: str, names) -> dict:
    build = Table if workload == "tables" else _build_sym
    return {name: build(name) for name in names}


# ---------------------------------------------------------------------------
# operations; each returns a JSON-able canonical result


def _labelled_sets(F, sets) -> list:
    return sorted(sorted(F.label(a) for a in S) for S in sets)


def _table_op(t: Table, op: str, args: tuple):
    F = t.F
    if op == "check_hyperfield":
        return hypercore.check_hyperfield(F).to_json()
    if op == "check_double_distributivity":
        return hypercore.check_double_distributivity(F).to_json()
    if op == "enumerate_orderings":
        return _labelled_sets(F, realalg.enumerate_orderings(F))
    if op == "is_real":
        rep = realalg.is_real(F)
        return {"real": rep.real, "closure": sorted(F.label(a) for a in rep.square_sum_closure),
                "rounds": rep.rounds, "witness": rep.witness}
    if op == "enumerate_valuation_hyperrings":
        return _labelled_sets(F, valtheory.enumerate_valuation_hyperrings(F))
    if op == "residue_hyperfield":
        res = valtheory.residue_hyperfield(F, t.whole)
        return {"structure": res.structure.to_json(), "parent_class": list(res.parent_class)}
    if op == "enumerate_hyperideals":
        return _labelled_sets(F, constructions.enumerate_hyperideals(F))
    if op == "quotient_hyperring":
        q = constructions.quotient_hyperring(F, t.ideals[args[0]])
        return {"structure": q.structure.to_json(), "class_of": list(q.class_of)}
    if op == "compatibility_report":
        return compat.compatibility_report(F, t.v, t.cones[args[0]]).to_json()
    if op == "lift_ordering":
        return _labelled_sets(F, compat.lift_ordering(F, t.v, t.residue_cones[args[0]]))
    raise KeyError(op)


def _sym_valuation(H, which: str):
    return sgntrop.trivial_valuation() if which == "trivial" else sgntrop.canonical_valuation(H)


def _sym_op(H, op: str, args: tuple):
    if op == "st_axiom_check":
        return sgntrop.st_axiom_check(H, B=args[0]).to_json()
    if op == "sym_orderings":
        return sorted(P.label() for P in sgntrop.sym_orderings(H, args[0]))
    if op == "sym_is_valuation":
        return sgntrop.sym_is_valuation(H, _sym_valuation(H, args[0]), args[1]).to_json()
    if op in ("sym_natural_ring", "sym_natural_ideal"):
        shape = getattr(sgntrop, op)(H, sgntrop.SymOrdering(args[0]), args[1])
        return "ALL" if shape is sgntrop.ALL else str(shape)
    if op == "sym_residue":
        res = sgntrop.sym_residue(H)
        return {"classes": list(res.class_names), "structure": res.structure.to_json()}
    if op == "window_cone_pattern_count":
        return compat.window_cone_pattern_count(H, args[0])
    if op == "compatibility_report":
        v = sgntrop.canonical_valuation(H)
        return compat.compatibility_report(H, v, sgntrop.SymOrdering(args[0]), args[1]).to_json()
    if op == "baer_krull_table":
        return compat.baer_krull_table(H, window=args[0]).to_json()
    raise KeyError(op)


class RequestFailed(Exception):
    """A request exited 2 or 3; carries the exit code and stderr."""

    def __init__(self, code: int, stderr: str):
        super().__init__("exit %d: %s" % (code, stderr.strip()))
        self.code = code


def request(argv: list[str]) -> dict:
    """One front-door request, in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--json"])
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code = exc.code
    if code not in (cli.EXIT_OK, cli.EXIT_FAIL):
        raise RequestFailed(code, err.getvalue())
    return {"exit": code, "stdout": out.getvalue()}


def prepare(entry: catalog.Entry):
    """Per-entry work done outside the timed region: the argv of a request,
    with its spec file written."""
    return catalog.request_argv(entry) if entry.op == "cli" else None


def execute(resident: dict, entry: catalog.Entry, prepared):
    if entry.op == "cli":
        return request(prepared)
    target = resident[entry.structure]
    if isinstance(target, Table):
        return _table_op(target, entry.op, entry.args)
    return _sym_op(target, entry.op, entry.args)


def digest(result) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# independent checks, each decided without the golden file

# single-cell mutants the axiom battery cannot reject: the Krasner cell
# 1+1 = {0,1} replaced by {0} is the field F_2 (acceptance criterion 01)
MUTATION_ESCAPES = {"krasner": {(1, 1, 0b01)}}
MUTATION_TABLE_BASES = ("sign", "krasner", "F_5/sq")


def independent_check(entry: catalog.Entry, result) -> str | None:
    """A second verdict on the result where one is cheap; returns a message
    when the result contradicts it."""
    if entry.op == "cli":
        argv = entry.args
        if argv[0] == "enumerate":
            counts = {o["order"]: o["count"] for o in json.loads(result["stdout"])["findings"]["orders"]
                      if o["order"] in catalog.ENUMERATION_COUNTS}
            want = {n: c for n, c in catalog.ENUMERATION_COUNTS.items() if n <= int(argv[2])}
            if counts != want:
                return "enumeration counts %s, expected %s" % (counts, want)
        if entry.family == "mutant":
            head, cell, bits = entry.id.rsplit("/", 2)
            base = head[len("requests/mutant/"):]
            if base in MUTATION_TABLE_BASES:
                x, y = (int(v) for v in cell.split(","))
                escape = (x, y, int(bits)) in MUTATION_ESCAPES.get(base, ())
                want = cli.EXIT_OK if escape else cli.EXIT_FAIL
                if result["exit"] != want:
                    return "mutant verdict exit %d, coverage table says %d" % (result["exit"], want)
        if argv[0] == "baer-krull":
            return _correspondence_size(json.loads(result["stdout"])["findings"]["table"],
                                        entry.spec.get("name"))
        return None
    if entry.op == "baer_krull_table":
        return _correspondence_size(result, entry.structure)
    return None


def _rank(name: str | None) -> int:
    """Rank of the value group; finite tables have the trivial group."""
    if name and name.startswith("sgntrop("):
        return int(name[len("sgntrop("):-1])
    if name and name.startswith("q_p_units("):
        return 1
    return 0


def _correspondence_size(table: dict, name: str | None) -> str | None:
    chars = 2 ** _rank(name)
    want = table["residue_cone_count"] * chars
    if table["character_count"] != chars or len(table["rows"]) != want:
        return "correspondence has %d rows and %d characters, expected %d and %d" % (
            len(table["rows"]), table["character_count"], want, chars)
    return None


# ---------------------------------------------------------------------------
# attributing a failure to the module that raised it


def module_of_traceback(tb) -> str | None:
    """The innermost hfw module in a traceback."""
    found = None
    for frame, _ in traceback.walk_tb(tb):
        path = os.path.abspath(frame.f_code.co_filename)
        if os.path.dirname(path) == HFW_DIR:
            found = os.path.splitext(os.path.basename(path))[0]
    return found


def raising_module(entry: catalog.Entry, prepared, exc: BaseException) -> str:
    """The module a failed operation's exception came from.

    A request that exits 2 or 3 had its exception caught inside cli.main, so
    the command is dispatched once more without that handler to see where it
    was raised.
    """
    if isinstance(exc, RequestFailed):
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                args = cli.build_parser().parse_args(prepared)
                if args.command == "enumerate":
                    cli.cmd_enumerate(args)
                else:
                    with open(args.spec) as fh:
                        cli._COMMANDS[args.command](cli.load_spec(json.load(fh)), args)
        except SystemExit:  # argparse refused the argv
            return "cli"
        except Exception as again:  # noqa: BLE001 - attribution only
            return module_of_traceback(again.__traceback__) or "cli"
        return "cli"
    return module_of_traceback(exc.__traceback__) or home_module(entry)


def home_module(entry: catalog.Entry) -> str:
    """The module that defines the public function an entry calls."""
    for mod in (hypercore, realalg, valtheory, constructions, sgntrop, compat):
        fn = getattr(mod, entry.op, None)
        if fn is not None:
            return fn.__module__.rsplit(".", 1)[-1]
    return "cli"
