"""Time the majority-path LP on random exact_item1 instances that reach it.

The template is (2-in-5, at-most-3-in-5) plus a disequality pair.  Each
instance has n variables, m constraints on 5-tuples of distinct variables
and n/5 disequalities between variables of different color under a hidden
random 2-coloring, so the disequality graph is bipartite and `solve_pcsp`
runs the LP.  The seeds are fixed, so every checkout gets the same
instances.  For each instance it prints n, m, the seed, the answer and the
CPU time of `solve_pcsp`, then the mean time per size.

Usage: PYTHONPATH=src python3 tools/lp_scaling.py
"""

import random
import time

from pcsp.solvers import solve_pcsp
from pcsp.structures import Instance, Template, build_family

TEMPLATE = Template(((build_family("exact", 2, 5), build_family("atmost", 3, 5)),
                     (build_family("neq"), build_family("neq"))))

# (n, m): 1.5n weight rows at n = 60 and 1.0n weight rows at n = 120
SIZES = ((60, 90), (120, 120))
SEEDS = range(1, 6)


def instance(n: int, m: int, seed: int) -> Instance:
    rng = random.Random(f"lp_scaling/{n}/{m}/{seed}")
    color = [rng.randrange(2) for _ in range(n)]
    sides = [[v for v in range(n) if color[v] == c] for c in (0, 1)]
    cons = [(0, tuple(rng.sample(range(n), 5))) for _ in range(m)]
    if all(sides):
        cons += [(1, (rng.choice(sides[0]), rng.choice(sides[1]))) for _ in range(n // 5)]
    return Instance(n, tuple(cons))


def main() -> None:
    for n, m in SIZES:
        total = 0.0
        for seed in SEEDS:
            inst = instance(n, m, seed)
            start = time.process_time()
            answer = "Yes" if solve_pcsp(TEMPLATE, inst).yes else "No"
            elapsed = time.process_time() - start
            total += elapsed
            print(f"n={n} m={m} seed={seed} answer={answer} cpu_s={elapsed:.3f}", flush=True)
        print(f"n={n} m={m} mean_cpu_s={total / len(SEEDS):.3f}", flush=True)


if __name__ == "__main__":
    main()
