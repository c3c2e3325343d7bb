import importlib
import json
import os
import subprocess
import sys

import pytest

from hfw import cli, realalg, valtheory
from hfw.cli import main
from hfw.constructions import factor_hyperfield, fp_squares


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orderings_sign(spec_file, capsys):
    path = spec_file({"kind": "builtin", "name": "sign"})
    code, out, err = run(capsys, "orderings", path, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    findings = payload["findings"]
    assert findings["count"] == 1
    (cone,) = findings["orderings"]
    assert cone["archimedean"] is True
    assert findings["real"] is True


def test_orderings_enumerates_cones_once(spec_file, capsys, count_calls):
    """The cones is_real enumerates are the ones reported, and their natural
    rings and ideals come from one unit-sum sequence."""
    path = spec_file({"kind": "builtin", "name": "sign"})
    calls, (code, out, err) = count_calls([realalg.enumerate_orderings, realalg.one_sum_sequence],
                                          lambda: run(capsys, "orderings", path, "--json"))
    assert code == 0 and json.loads(out)["findings"]["count"] == 1
    assert calls == {("enumerate_orderings", "sign"): 1, ("one_sum_sequence", "sign"): 1}


@pytest.mark.parametrize("name, structure", [("sign", "sign"), ("fp_squares(7)", "F_7/sq")])
@pytest.mark.parametrize("command", ["valuations", "compat", "baer-krull"])
def test_each_ring_checked_once_per_command(spec_file, capsys, count_calls, command, name, structure):
    """A finite hyperfield has one valuation ring, its carrier: one command
    checks it in one ring pass, checks its valuation at most once and
    enumerates the cones of each structure at most once."""
    path = spec_file({"kind": "builtin", "name": name})
    calls, (code, _, _) = count_calls([valtheory._ring_pass, valtheory.is_valuation, realalg.enumerate_orderings],
                                      lambda: run(capsys, command, path, "--json"))
    assert code == 0
    assert calls[("_ring_pass", structure)] == 1
    assert calls[("is_valuation", structure)] <= 1
    assert all(n == 1 for (fn, _), n in calls.items() if fn == "enumerate_orderings")


_TABLE_ZERO_IS_ONE = {"kind": "table", "name": "zero ring", "carrier": ["0"], "zero": 0, "one": 0,
                      "neg": [0], "mul": [[0]], "add": [[[0]]]}
# one element above the carrier limit, with every nonzero product 1: at 23
# elements its cone search took 31 s
_N = cli.MAX_TABLE_CARRIER + 1
_TABLE_TOO_LARGE = {"kind": "table", "name": "products are 1", "carrier": [str(i) for i in range(_N)],
                    "zero": 0, "one": 1, "neg": list(range(_N)),
                    "mul": [[int(a > 0 and b > 0) for b in range(_N)] for a in range(_N)],
                    "add": [[[a]] * _N for a in range(_N)]}
# every nonzero product 1 and x + y = {x}: not a hyperring, so its carrier is
# no valuation hyperring and the correspondence has nothing to run along
_TABLE_NOT_HYPERRING = {"kind": "table", "name": "left sums", "carrier": ["0", "1", "2"],
                        "zero": 0, "one": 1, "neg": [0, 1, 2],
                        "mul": [[int(a > 0 and b > 0) for b in range(3)] for a in range(3)],
                        "add": [[[a]] * 3 for a in range(3)]}


def _table_z(n: int) -> dict:
    """Z/n as a table: single-valued sums, not a hyperfield for composite n."""
    return {"kind": "table", "name": "Z/%d" % n, "carrier": [str(a) for a in range(n)], "zero": 0, "one": 1,
            "neg": [-a % n for a in range(n)], "mul": [[a * b % n for b in range(n)] for a in range(n)],
            "add": [[[(a + b) % n] for b in range(n)] for a in range(n)]}


@pytest.mark.parametrize("command, spec, flags", [
    ("check", {"kind": "builtin", "name": "sgntrop", "k": "x"}, []),
    ("check", {"kind": "builtin", "name": "fp_squares", "p": "x"}, []),
    ("check", {"kind": "factor_fp", "p": 7, "generators": ["a"]}, []),
    ("orderings", _TABLE_ZERO_IS_ONE, []),
    ("valuations", _TABLE_ZERO_IS_ONE, []),
    ("compat", _TABLE_ZERO_IS_ONE, []),
    ("check", {"kind": "builtin", "name": "sgntrop(1)"}, ["--window", "-3"]),
    ("compat", {"kind": "builtin", "name": "sgntrop(1)"}, ["--window", "-1"]),
    ("check", {"kind": "builtin", "name": "q_squares"}, ["--height", "0"]),
    ("check", {"kind": "builtin", "name": "sgntrop(4)"}, []),
    ("check", {"kind": "builtin", "name": "sgntrop", "k": 10**6}, []),
    ("check", {"kind": "builtin", "name": "fp_squares", "p": 10**10}, []),
    ("orderings", {"kind": "factor_fp", "p": 67, "generators": [1]}, []),
    ("orderings", _TABLE_TOO_LARGE, []),
    ("baer-krull", _TABLE_NOT_HYPERRING, []),
    ("valuations", _table_z(4), []),
    ("compat", _table_z(4), []),
    ("valuations", _table_z(6), []),
    ("compat", _table_z(6), []),
])
def test_malformed_input_exits_2_without_traceback(spec_file, command, spec, flags):
    path = spec_file(spec)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hfw.cli", command, path, *flags],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "spec error" in proc.stderr
    if spec.get("name", "").startswith("Z/"):
        assert "%s is not a hyperfield" % spec["name"] in proc.stderr, proc.stderr


# runs hfw after allocating argv[1] small tuples, which moves the addresses,
# and so the identity hashes, of the objects allocated after them
_PADDED_MAIN = "import sys; pad = [(i,) for i in range(int(sys.argv[1]))]; " \
               "from hfw.cli import main; sys.exit(main(sys.argv[2:]))"


def test_symbolic_output_does_not_depend_on_hash_seed(spec_file):
    """Interned values hash by identity, so the order in which a set of them
    iterates can change between runs; no printed output may follow it.  The
    two runs differ in PYTHONHASHSEED and in heap layout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    for name in ("sgntrop(2)", "q_p_units(3)"):
        path = spec_file({"kind": "builtin", "name": name})
        for command in ("check", "factor", "compat", "baer-krull"):
            procs = [subprocess.Popen(
                [sys.executable, "-c", _PADDED_MAIN, pad, command, path, "--window", "3", "--json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONHASHSEED=seed,
                         PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))))
                for seed, pad in (("0", "0"), ("1", "1001"))]
            (out0, err0), (out1, _) = (proc.communicate(timeout=120) for proc in procs)
            assert [proc.returncode for proc in procs] == [0, 0], err0
            assert out0 == out1, (name, command)


def test_compat_tropical_all_cells_compatible(spec_file, capsys):
    path = spec_file({"kind": "builtin", "name": "sgntrop(1)"})
    code, out, err = run(capsys, "compat", path, "--json")
    assert code == 0
    cells = json.loads(out)["findings"]["cells"]
    assert len(cells) == 2
    assert all(c["compatible"] for c in cells)
    assert {c["ordering"] for c in cells} == {"P(+)", "P(-)"}


def test_compat_punits_reports_failure_without_failing(spec_file, capsys):
    # an incompatible cell is a correct mathematical answer, not an error
    path = spec_file({"kind": "builtin", "name": "q_p_units(2)"})
    code, out, err = run(capsys, "compat", path, "--json")
    assert code == 0
    findings = json.loads(out)["findings"]
    canonical = [c for c in findings["cells"] if c["valuation"] != "trivial"]
    assert canonical and all(not c["compatible"] for c in canonical)
    assert findings["ring_convexity"]["convex"] is True
    assert len(findings["incomparable_pairs"]) == 5


def test_enumerate_counts(capsys):
    code, out, err = run(capsys, "enumerate", "--order", "2", "--json")
    assert code == 0
    findings = json.loads(out)["findings"]
    assert findings["orders"][-1]["count"] == 2
    names = [s["name"] for s in findings["orders"][-1]["structures"]]
    assert len(names) == 2


def test_enumerate_rejects_large_order(capsys):
    code, out, err = run(capsys, "enumerate", "--order", "9")
    assert code == 2
    assert "spec error" in err


def test_check_builtin_passes(spec_file, capsys):
    path = spec_file({"kind": "builtin", "name": "krasner"})
    code, out, err = run(capsys, "check", path, "--json")
    assert code == 0
    findings = json.loads(out)["findings"]
    assert findings["axioms"]["ok"] is True
    assert findings["double_distributivity_inclusion"] is True


def test_check_broken_table_fails(spec_file, capsys):
    # krasner with 1+1 = {1} instead of {0,1}: reversibility breaks
    path = spec_file({
        "kind": "table",
        "name": "broken",
        "carrier": ["0", "1"],
        "zero": "0",
        "one": "1",
        "neg": {"0": "0", "1": "1"},
        "mul": [["0", "0"], ["0", "1"]],
        "add": [[["0"], ["1"]], [["1"], ["1"]]],
    })
    code, out, err = run(capsys, "check", path, "--json")
    assert code == 1
    findings = json.loads(out)["findings"]
    assert findings["axioms"]["ok"] is False


def test_bad_spec_kind(spec_file, capsys):
    path = spec_file({"kind": "wat"})
    code, out, err = run(capsys, "check", path)
    assert code == 2 and "spec error" in err


def test_missing_spec_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/nope.json")
    assert code == 2 and "spec error" in err


def test_missing_spec_argument(capsys):
    code, out, err = run(capsys, "orderings")
    assert code == 2 and "needs a spec" in err


def test_valuations_unsupported_for_squares_factor(spec_file, capsys):
    path = spec_file({"kind": "builtin", "name": "q_squares"})
    code, out, err = run(capsys, "valuations", path)
    assert code == 2


def test_json_output_is_deterministic(spec_file, capsys):
    path = spec_file({"kind": "builtin", "name": "sign"})
    _, out1, _ = run(capsys, "compat", path, "--json")
    _, out2, _ = run(capsys, "compat", path, "--json")
    assert out1 == out2


def test_factor_fp_spec_matches_builtin(spec_file, capsys):
    path = spec_file({"kind": "factor_fp", "p": 5, "generators": [4]})
    code, out, err = run(capsys, "check", path, "--json")
    assert code == 0
    findings = json.loads(out)["findings"]
    assert findings["axioms"]["ok"] is True
    # the table route and the builtin constructor agree cell by cell
    built = factor_hyperfield(5, [4]).structure
    ref = fp_squares(5).structure
    assert findings["axioms"]["structure"] == built.name
    assert built.add_table == ref.add_table
    assert built.neg_table == ref.neg_table


def test_text_rendering_smoke(spec_file, capsys):
    path = spec_file({"kind": "builtin", "name": "sign"})
    code, out, err = run(capsys, "orderings", path)
    assert code == 0
    assert "orderings" in out
    assert "elapsed" in out


def test_baer_krull_command(spec_file, capsys):
    path = spec_file({"kind": "builtin", "name": "sgntrop(2)"})
    code, out, err = run(capsys, "baer-krull", path, "--json")
    assert code == 0
    findings = json.loads(out)["findings"]["table"]
    assert findings["residue_cone_count"] == 1
    assert findings["character_count"] == 4
    assert len(findings["rows"]) == 4


BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def test_front_door_matches_benchmark_goldens(tmp_path, monkeypatch):
    """Every builtin, factor_fp, sgntrop(2) and enumerate request of the
    benchmark catalogue gives, through cli.main --json, the digest recorded
    in bench/golden.json; requests recorded as known failures are skipped."""
    monkeypatch.delenv("HFW_SEED", raising=False)
    monkeypatch.syspath_prepend(BENCH_DIR)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/, write nothing there
    catalog = importlib.import_module("catalog")
    ops = importlib.import_module("ops")
    golden = catalog.load_golden()["requests"]
    checked = 0
    families = ("builtin", "factor_fp", "sgntrop2", "enumerate")
    for i, entry in enumerate(catalog.request_entries()):
        if entry.family not in families or golden[entry.id] is None:
            continue
        argv = list(entry.args)
        if entry.spec is not None:
            spec = tmp_path / ("%d.json" % i)
            spec.write_text(json.dumps(entry.spec, sort_keys=True))
            argv.insert(1, str(spec))
        assert ops.digest(ops.request(argv)) == golden[entry.id], entry.id
        checked += 1
    assert checked == sum(1 for e in catalog.request_entries()
                          if e.family in families) - len(catalog.KNOWN_FAILURES)
