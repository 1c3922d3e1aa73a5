import os
import random
from pathlib import Path

import pytest

import pcsp
from pcsp.polymorphisms import BoolFunction
from pcsp.structures import Instance, Template, build_family

NEQ = build_family("neq")


def packed(f: BoolFunction) -> int:
    """A Boolean table as one int, entry i at bit i.  Ints order tables as
    the polymorphism enumerators emit them: from the highest entry down."""
    assert f.domain_size == 2
    return int(f.table[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2)


def unpacked(arity: int, bits: int) -> BoolFunction:
    """The Boolean function of the given arity whose table packs to bits."""
    digits = format(bits, f"0{2 ** arity}b")[::-1].encode("ascii")
    return BoolFunction(arity, digits.translate(bytes.maketrans(b"01", b"\0\1")))


def template(*pairs) -> Template:
    return Template(tuple(pairs))


def with_neq(a, b) -> Template:
    return Template(((a, b), (NEQ, NEQ)))


def child_env() -> dict:
    """Environment for a child interpreter that must import this pcsp, also
    when the suite found it through pytest's `pythonpath` setting alone."""
    src = str(Path(pcsp.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_instance(t: Template, rng: random.Random, max_vars=8, max_cons=10,
                    allow_repeats=False) -> Instance:
    nv = rng.randint(2, max_vars)
    cons = []
    for _ in range(rng.randint(1, max_cons)):
        ri = rng.randrange(len(t.pairs))
        k = t.pairs[ri][0].arity
        if allow_repeats or k > nv:
            tup = tuple(rng.randrange(nv) for _ in range(k))
        else:
            tup = tuple(rng.sample(range(nv), k))
        cons.append((ri, tup))
    return Instance(nv, tuple(cons))
