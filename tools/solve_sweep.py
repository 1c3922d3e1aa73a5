"""Solve seeded instances through every recipe and fingerprint the answers.

The templates cover the GF(2), integer and LP recipes; two of the LP ones
are recognized through the 0/1 swap (polarity set).  Each template gets
random instances, about 15% of whose constraints repeat a variable, and
instances planted on a hidden A-side assignment, so both answers occur; the
`wide` ones have 100 to 400 variables, most in no constraint.
The seeds are fixed, so every checkout gets the same instances.  For each
instance it prints one line `template recipe seed answer` followed by the
first 16 hex digits of the SHA-256 of the witness (its values in variable
order), or `-` for a No.  The total CPU time goes to stderr, so the stdout
of two checkouts can be compared with diff.

Usage: PYTHONPATH=src python3 tools/solve_sweep.py > sweep.txt
"""

import hashlib
import random
import sys
import time

from pcsp.solvers import solve_pcsp
from pcsp.structures import Instance, Template, build_family

B = build_family


def with_neq(a, b) -> Template:
    return Template(((a, b), (B("neq"), B("neq"))))


TEMPLATES = {
    "parity3": with_neq(B("odd", 3), B("odd", 3)),
    "even4": with_neq(B("even", 4), B("even", 4)),
    "one_in_three": Template(((B("exact", 1, 3), B("nae", 3)),)),
    "two_in_three": Template(((B("exact", 2, 3), B("nae", 3)),)),
    "two_in_four": Template(((B("exact", 2, 4), B("nae", 4)),)),
    "two_sat": with_neq(B("atmost", 1, 3), B("atmost", 1, 3)),
    "majority24": with_neq(B("atmost", 2, 4), B("atmost", 3, 4)),
    "exact_item1": with_neq(B("exact", 2, 5), B("atmost", 3, 5)),
    "majority_mirror": with_neq(B("atleast", 2, 3), B("atleast", 2, 3)),  # swapped
    "item1_mirror": with_neq(B("exact", 3, 5), B("atleast", 2, 5)),  # swapped
}
SEEDS = range(40)
REPEAT_SHARE = 0.15


def random_instance(t: Template, rng: random.Random) -> Instance:
    n = rng.randint(5, 24)
    cons = []
    for _ in range(rng.randint(1, 2 * n)):
        ri = rng.randrange(len(t.pairs))
        k = t.pairs[ri][0].arity
        if rng.random() < REPEAT_SHARE:
            tup = tuple(rng.randrange(n) for _ in range(k))
        else:
            tup = tuple(rng.sample(range(n), k))
        cons.append((ri, tup))
    return Instance(n, tuple(cons))


def planted(t: Template, rng: random.Random, n: int, m: int) -> Instance:
    """Up to m constraints on distinct variables that a hidden assignment
    satisfies on the A side."""
    hidden = [rng.randrange(2) for _ in range(n)]
    cons = []
    for _ in range(m * 40):  # draws, most of which the hidden assignment keeps
        if len(cons) == m:
            break
        ri = rng.randrange(len(t.pairs))
        tup = tuple(rng.sample(range(n), t.pairs[ri][0].arity))
        if t.pairs[ri][0].contains(tuple(hidden[v] for v in tup)):
            cons.append((ri, tup))
    return Instance(n, tuple(cons))


def planted_instance(t: Template, rng: random.Random) -> Instance:
    n = rng.randint(10, 40)
    return planted(t, rng, n, n)


def wide_instance(t: Template, rng: random.Random) -> Instance:
    """Most variables appear in no constraint, as sparse rows expect."""
    n = rng.randint(100, 400)
    return planted(t, rng, n, n // 8)


RECIPES = (("random", random_instance), ("planted", planted_instance), ("wide", wide_instance))


def fingerprint(witness) -> str:
    values = [witness[v] for v in sorted(witness)] if isinstance(witness, dict) else witness
    text = " ".join(str(x) for x in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def main() -> None:
    count = 0
    start = time.process_time()
    for name, t in TEMPLATES.items():
        for recipe, make in RECIPES:
            for seed in SEEDS:
                ans = solve_pcsp(t, make(t, random.Random(f"solve_sweep/{name}/{recipe}/{seed}")))
                outcome = f"Yes {fingerprint(ans.witness)}" if ans.yes else "No -"
                print(f"{name} {recipe} {seed} {outcome}", flush=True)
                count += 1
    elapsed = time.process_time() - start
    print(f"{count} instances, cpu_s={elapsed:.2f}", file=sys.stderr)


if __name__ == "__main__":
    main()
