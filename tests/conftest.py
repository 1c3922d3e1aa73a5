import os
import random
from pathlib import Path

import pytest

import pcsp
from pcsp.structures import Instance, Template, build_family

NEQ = build_family("neq")


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
