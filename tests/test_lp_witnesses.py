"""Pinned `pcsp solve --witness` output on the LP recipes.

The majority-shape recipes round an LP vertex, so the witness printed for a
Yes answer, and inside the promise gap the answer itself, depend on which
vertex the simplex returns.  These seeded instances (planted ones, plus
random ones that are A-unsatisfiable but B-satisfiable) fix that output
exactly, so a change to the simplex that moves a pivot shows here.
"""

import random

import pytest

from pcsp.structures import Instance, build_family, format_instance, format_template
from conftest import with_neq
from test_cli import invoke

TEMPLATES = {
    "two_sat": with_neq(build_family("atmost", 1, 3), build_family("atmost", 1, 3)),
    "majority24": with_neq(build_family("atmost", 2, 4), build_family("atmost", 3, 4)),
    "exact_item1": with_neq(build_family("exact", 2, 5), build_family("atmost", 3, 5)),
}


def planted_instance(name: str, n: int, m: int, seed: int) -> Instance:
    """m constraints on distinct variables, all satisfied on the A side by a
    hidden random assignment."""
    rng = random.Random(f"planted/{name}/{n}/{m}/{seed}")
    t = TEMPLATES[name]
    hidden = [rng.randrange(2) for _ in range(n)]
    cons = []
    while len(cons) < m:
        ri = rng.randrange(len(t.pairs))
        a = t.pairs[ri][0]
        tup = tuple(rng.sample(range(n), a.arity))
        if a.contains(tuple(hidden[v] for v in tup)):
            cons.append((ri, tup))
    return Instance(n, tuple(cons))


def random_instance(name: str, n: int, m: int, seed: int) -> Instance:
    rng = random.Random(f"random/{name}/{n}/{m}/{seed}")
    t = TEMPLATES[name]
    cons = []
    for _ in range(m):
        ri = rng.randrange(len(t.pairs))
        cons.append((ri, tuple(rng.sample(range(n), t.pairs[ri][0].arity))))
    return Instance(n, tuple(cons))


GENERATORS = {"planted": planted_instance, "random": random_instance}

# (template, generator, n, m, seed) -> the witness bits of a YES answer, or
# None for NO.  The random majority24 and exact_item1 instances lie in the
# promise gap (no A-side solution, some B-side one, checked by enumerating
# all 2^n assignments); of the random two_sat ones (A = B) the first is
# satisfiable and the second is not.  The bounded-variable simplex with
# disequality presolve re-recorded eight of the witnesses (all YES before and
# after); every answer stayed the same.
EXPECTED = {
    ("exact_item1", "planted", 20, 18, 1): "01101000101100100000",
    ("exact_item1", "planted", 30, 27, 1): "001011110000010000110010100010",
    ("exact_item1", "planted", 40, 36, 1): "0110110101001101111000101010001101001110",
    ("exact_item1", "random", 20, 20, 10): "00110100011000010110",
    ("exact_item1", "random", 20, 22, 110): "00011011001000000101",
    ("exact_item1", "random", 24, 26, 19): "010000001001110110101000",
    ("exact_item1", "random", 24, 30, 3): None,
    ("majority24", "planted", 20, 18, 1): "00000000100101001001",
    ("majority24", "planted", 30, 27, 1): "000110000010100100011001001001",
    ("majority24", "planted", 40, 36, 1): "0000000001011011010000000000010100101110",
    ("majority24", "random", 20, 35, 3): "00010000001001110010",
    ("majority24", "random", 22, 38, 3): "0001010100101000010111",
    ("two_sat", "planted", 20, 18, 1): "00010010000000010100",
    ("two_sat", "planted", 30, 27, 1): "000000010100010110101010110010",
    ("two_sat", "planted", 40, 36, 1): "0000001001000000000110000100010101000000",
    ("two_sat", "random", 20, 26, 32): "00011010000011011000",
    ("two_sat", "random", 24, 36, 1): None,
}


def expected_stdout(bits):
    if bits is None:
        return 1, "NO\n"
    return 0, "YES\n" + " ".join(f"{v}={b}" for v, b in enumerate(bits)) + "\n"


@pytest.mark.parametrize("case", sorted(EXPECTED), ids=lambda c: "-".join(map(str, c)))
def test_lp_witness_is_pinned(case, tmp_path):
    name, kind, n, m, seed = case
    tfile = tmp_path / "t.tmpl"
    ifile = tmp_path / "i.inst"
    tfile.write_text(format_template(TEMPLATES[name]), encoding="utf-8")
    ifile.write_text(format_instance(GENERATORS[kind](name, n, m, seed)), encoding="utf-8")
    got = invoke(["solve", "-t", str(tfile), "-i", str(ifile), "--witness"])
    assert got == expected_stdout(EXPECTED[case])


@pytest.mark.parametrize("case", sorted(k for k, v in EXPECTED.items() if v is not None),
                         ids=lambda c: "-".join(map(str, c)))
def test_pinned_witness_lies_in_b(case):
    """Every pinned witness satisfies each constraint's B side."""
    name, kind, n, m, seed = case
    t = TEMPLATES[name]
    bits = [int(b) for b in EXPECTED[case]]
    for ri, tup in GENERATORS[kind](name, n, m, seed).constraints:
        assert t.pairs[ri][1].contains(tuple(bits[v] for v in tup)), (ri, tup)
