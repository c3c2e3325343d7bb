import json
import sys
from collections import Counter

import pytest

from hfw.constructions import (
    enumerate_hyperfields,
    field_f2,
    fp_squares,
    krasner_hyperfield,
    sign_hyperfield,
)
from hfw.sgntrop import q_punits_hyperfield, signed_tropical


@pytest.fixture(scope="session")
def finite_builtins():
    """The finite structures every battery runs over."""
    return [
        sign_hyperfield(),
        krasner_hyperfield(),
        field_f2(),
        fp_squares(5).structure,
        fp_squares(7).structure,
    ]


@pytest.fixture(scope="session")
def mutation_targets():
    """The four finite structures the mutation sweep quantifies over."""
    return [
        sign_hyperfield(),
        krasner_hyperfield(),
        fp_squares(5).structure,
        fp_squares(7).structure,
    ]


@pytest.fixture(scope="session")
def tropical1():
    return signed_tropical(1)


@pytest.fixture(scope="session")
def tropical2():
    return signed_tropical(2)


@pytest.fixture(scope="session")
def punits2():
    return q_punits_hyperfield(2)


@pytest.fixture(scope="session")
def punits3():
    return q_punits_hyperfield(3)


@pytest.fixture(scope="session")
def enumerated_small():
    """Hyperfields of orders 2 through 4, one list per order."""
    return {n: enumerate_hyperfields(n) for n in (2, 3, 4)}


@pytest.fixture()
def spec_file(tmp_path):
    def write(obj, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


@pytest.fixture()
def count_calls():
    """count(funcs, thunk) runs thunk and returns the calls of each of funcs,
    keyed by (function name, name of the structure F it was called on), with
    thunk's result.  Calls are matched by code object, however the caller
    imported them."""

    def count(funcs, thunk) -> tuple[Counter, object]:
        names = {f.__code__: f.__name__ for f in funcs}
        calls: Counter = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                calls[names[frame.f_code], getattr(frame.f_locals.get("F"), "name", None)] += 1

        sys.setprofile(profile)
        try:
            result = thunk()
        finally:
            sys.setprofile(None)
        return calls, result

    return count
