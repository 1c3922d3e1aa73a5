"""The four workloads: inputs generated from the seed, and independent checks.

Each workload's set-up writes its inputs to files and computes the expected
answer of every op without calling pcsp, from the definitions in README.md
(weight sets, the classifier's table, brute force over assignments or truth
tables).  A round is the list of ops the closed loop runs back to back; the
seed varies the inputs inside cells whose cost does not depend on the seed,
so the work in a round is the same for every seed.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable, List, Optional

WORKLOADS = ("classify", "solve", "certify", "poly")


@dataclass
class Op:
    """One closed-loop request: a CLI call (``argv``) or a library call."""

    kind: str
    check: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> cause or None
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], tuple]] = None  # () -> (exit code, stdout)
    after: Optional[Callable[[int, str], None]] = None  # feeds the next op's input
    group: str = ""
    label: str = ""


@dataclass
class Workload:
    name: str
    rounds: List[List[Op]]  # distinct rounds; the loop cycles through them
    # A percentile with at least 10 samples beyond it in a run of today's
    # length, on a dense stretch of the workload's latencies (not a gap
    # between two input sizes), fixed so that runs of other lengths compare.
    tail_percentile: float
    props: dict = field(default_factory=dict)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _template_text(pairs) -> str:
    return "template\n" + "".join(f"pair {a} {b}\n" for a, b in pairs) + "end\n"


def _expect_exact(want_rc: int, want_out: str):
    def check(rc, out):
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        if out != want_out:
            return f"output {out[:120]!r}, expected {want_out[:120]!r}"
        return None
    return check


NEQ = ("neq", "neq")

# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _verdict(cx, fin, case=None, item=None, sandwich=None):
    rc = 1 if cx == "NPHard" or fin == "NotFinitelyTractable" else 0
    text = (f"complexity={cx} finiteness={fin} case={case or '-'} "
            f"theorem_item={item or '-'}\n")
    payload = {"complexity": cx, "finiteness": fin, "case": case,
               "theorem_item": item, "sandwich": sandwich}
    return rc, text + json.dumps(payload, sort_keys=True) + "\n"


def _sw(solver, r, s, polarity):
    return {"solver": solver, "r": r, "s": s, "polarity": polarity}


GF2_NEQ = _sw("gf2", 0, 2, False)


def _classify_cells(rng, tiny: bool):
    """(branch, pairs, expected) per template of one round.

    Arities and r values are capped so that no op costs more than about a
    quarter second today: (<=5-in-10, <=9-in-10)+neq takes seconds to
    validate, and one such op would dominate a round.  Both variants of a
    shape (the 0/1 mirror, odd and even parity, r and s-r) are in every
    round, because their costs differ by up to 30%; the seed picks only
    variants of cheap cells, the pair order and the op order.
    """
    cells = []
    max_s = 4 if tiny else 10

    for s in range(3, min(max_s, 8) + 1):
        for kind in ("odd", "even"):
            cells.append(("parity+neq", [(f"{kind} {s}", f"{kind} {s}"), NEQ],
                          _verdict("Tractable", "FinitelyTractable", f"a(s={s})", None,
                                   _sw("gf2", 0, s, False))))

    le = [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 1),
          (7, 2), (7, 3), (8, 1), (8, 2), (8, 3), (8, 4), (9, 1), (9, 2), (10, 1), (10, 2)]
    for s, r in (c for c in le if c[0] <= max_s):
        for mirrored in (False, True):
            if mirrored:
                pair = (f"atleast {s - r} {s}", f"atleast {s - 2 * r + 1} {s}")
            else:
                pair = (f"atmost {r} {s}", f"atmost {2 * r - 1} {s}")
            if r == 1 or s <= 2:
                want = _verdict("Tractable", "FinitelyTractable", f"b(r={r},s={s})", None,
                                _sw("lp", r, s, mirrored))
            else:
                want = _verdict("Tractable", "NotFinitelyTractable", f"b(r={r},s={s})",
                                2 if 2 * r == s else 1, _sw("lp", r, s, mirrored))
            branch = ">=r-in-s+neq" if mirrored else "<=r-in-s+neq"
            cells.append((branch, [pair, NEQ], want))

    nae = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 1), (7, 2),
           (7, 3), (8, 1), (8, 2), (8, 3), (8, 4), (9, 1), (9, 2), (9, 3), (10, 1), (10, 2)]
    for s, r0 in (c for c in nae if c[0] <= max_s):
        for r in sorted({r0, s - r0}):
            fin = ("FinitelyTractable" if s <= 2 or (r % 2 == 1 and s % 2 == 0)
                   else "NotFinitelyTractable")
            cells.append(("r-in-s/nae-s", [(f"rin {r} {s}", f"nae {s}")],
                          _verdict("Tractable", fin, f"c(r={r},s={s})",
                                   None if fin == "FinitelyTractable" else 4,
                                   _sw("diophantine", r, s, False))))

    relax = [(4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (8, 4), (9, 2),
             (9, 3), (10, 2)]
    for s, r in (c for c in relax if c[0] <= max_s):
        for mirrored in (False, True):
            if mirrored:
                pair = (f"rin {s - r} {s}", f"atleast {s - 2 * r + 1} {s}")
            else:
                pair = (f"rin {r} {s}", f"atmost {2 * r - 1} {s}")
            if 2 * r == s and r % 2 == 1:
                # the open case of the main theorem: tractable, status unknown
                want = _verdict("Tractable", "Unknown")
            else:
                want = _verdict("Tractable", "NotFinitelyTractable", None,
                                1 if 2 * r < s else 3, _sw("lp", r, s, mirrored))
            cells.append(("main-relaxation+neq", [pair, NEQ], want))

    for s in (s for s in (4, 6, 8, 10) if s <= max_s):
        for r in (1, s - 1):
            with_neq = rng.random() < 0.5
            pairs = [(f"rin {r} {s}", f"full {s}")] + ([NEQ] if with_neq else [])
            cells.append(("full-b", pairs, _verdict("Tractable", "FinitelyTractable", None,
                                                    None, GF2_NEQ if with_neq else None)))

    for s in (s for s in (3, 5, 7, 9) if s <= max_s):
        for mirrored in (False, True):
            t = rng.randrange(1, min(s, 5))
            pair = ((f"rin {s - 1} {s}", f"atleast {s - t} {s}") if mirrored
                    else (f"rin 1 {s}", f"atmost {t} {s}"))
            cells.append(("point-absorbing", [pair],
                          _verdict("Tractable", "FinitelyTractable")))

    for s in (2, 3, 4, 5):
        if s > max_s:
            continue
        cube = list(product((0, 1), repeat=s))
        a_side = rng.sample(cube, max(1, len(cube) // 4))
        b_side = a_side + rng.sample([t for t in cube if t not in a_side], 1)
        spec = lambda ts: f"explicit {s} " + ";".join(",".join(map(str, t)) for t in sorted(ts))
        cells.append(("explicit", [(spec(a_side), spec(b_side))],
                      _verdict("Unknown", "Unknown")))

    for s in range(3, max_s + 1):
        r = rng.choice((1, s - 1))
        cells.append(("np-hard", [(f"rin {r} {s}", f"rin {r} {s}"), NEQ],
                      _verdict("NPHard", "Unknown")))

    for s in (s for s in (3, 5, 7, 9) if s <= max_s):
        r = rng.choice((1, s - 1))
        cells.append(("unknown", [(f"rin {r} {s}", f"rin {r} {s}")],
                      _verdict("Unknown", "Unknown")))

    cells.append(("neq-only", [NEQ], _verdict("Tractable", "FinitelyTractable", None, None,
                                              GF2_NEQ)))
    return cells


def _pair_arity(spec: str) -> int:
    if spec == "neq":
        return 2
    head, *args = spec.split()
    return int(args[0]) if head in ("odd", "even", "nae", "full", "explicit") else int(args[1])


def setup_classify(rng, work: Path, tiny: bool) -> Workload:
    ops, arities, branches = [], {}, {}
    for i, (branch, pairs, (rc, out)) in enumerate(_classify_cells(rng, tiny)):
        if rng.random() < 0.5 and len(pairs) > 1:
            pairs = pairs[::-1]
        path = _write(work / f"c{i:03d}.tmpl", _template_text(pairs))
        arity = max(_pair_arity(a) for a, _ in pairs)
        arities[arity] = arities.get(arity, 0) + 1
        branches[branch] = branches.get(branch, 0) + 1
        ops.append(Op("classify", _expect_exact(rc, out), ["classify", "-t", path, "--json"],
                      group=branch, label=f"{branch} arity {arity}"))
    rng.shuffle(ops)
    texts = {(work / f"c{i:03d}.tmpl").read_text() for i in range(len(ops))}
    props = {"templates_per_round": len(ops),
             "distinct_templates_per_round": len(texts),
             "arity_histogram": {str(k): arities[k] for k in sorted(arities)},
             "branch_histogram": dict(sorted(branches.items()))}
    return Workload("classify", [ops], 98, props)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

# The six criterion-2 templates: (recipe, [(A spec, B spec, A weights, B weights)]).
_NEQ_W = ("neq", "neq", {1}, {1})
SOLVE_TEMPLATES = {
    "parity3": ("gf2", [("odd 3", "odd 3", {1, 3}, {1, 3}), _NEQ_W]),
    "two_sat": ("lp", [("atmost 1 3", "atmost 1 3", {0, 1}, {0, 1}), _NEQ_W]),
    "majority24": ("lp", [("atmost 2 4", "atmost 3 4", {0, 1, 2}, {0, 1, 2, 3}), _NEQ_W]),
    "one_in_three": ("diophantine", [("rin 1 3", "nae 3", {1}, {1, 2})]),
    "two_in_four": ("diophantine", [("rin 2 4", "nae 4", {2}, {1, 2, 3})]),
    "exact_item1": ("lp", [("rin 2 5", "atmost 3 5", {2}, {0, 1, 2, 3}), _NEQ_W]),
}
# Planted sizes.  exact_item1 stops at n = 26: its simplex cost is
# heavy-tailed (at n = 40, 1.1 s mean and single instances up to 4.6 s; at
# n = 30, 0.5 s and up to 1 s), so the few such instances a 30 s window
# holds made ops/s depend on the seed by 15-25%.
PLANTED_N = {"exact_item1": (20, 23, 26)}
# Constraints per variable of the over-constrained random instances, per
# template, chosen so that both YES and NO answers occur at n <= 14.
_RANDOM_RATIO = {"parity3": 1.0, "two_sat": 1.5, "majority24": 1.75,
                 "one_in_three": 1.0, "two_in_four": 1.0, "exact_item1": 1.25}


def side_satisfiable(n: int, cons, weights) -> bool:
    """Exact satisfiability of one side by enumerating all 2^n assignments.

    Assignments are bits of one big integer; E[j] marks those with exactly j
    ones on the constraint's variables (which are distinct).
    """
    size = 1 << n
    full = (1 << size) - 1
    var_bits = []
    for v in range(n):
        pattern, length = ((1 << (1 << v)) - 1) << (1 << v), 1 << (v + 1)
        while length < size:
            pattern |= pattern << length
            length *= 2
        var_bits.append(pattern & full)
    alive = full
    for ri, tup in cons:
        k = len(tup)
        exact = [full] + [0] * k
        for v in tup:
            x = var_bits[v]
            nx = full ^ x
            for j in range(k, 0, -1):
                exact[j] = (exact[j] & nx) | (exact[j - 1] & x)
            exact[0] &= nx
        ok = 0
        for w in weights[ri]:
            if w <= k:
                ok |= exact[w]
        alive &= ok
        if not alive:
            return False
    return True


def _planted(rng, pairs, n: int, m: int):
    x = [rng.randrange(2) for _ in range(n)]
    ones = [v for v in range(n) if x[v]]
    zeros = [v for v in range(n) if not x[v]]
    cons = []
    while len(cons) < m:
        ri = rng.randrange(len(pairs))
        a_spec, _, a_w, _ = pairs[ri]
        k = _pair_arity(a_spec)
        w = rng.choice(sorted(a_w))
        if w > len(ones) or k - w > len(zeros):
            continue
        tup = rng.sample(ones, w) + rng.sample(zeros, k - w)
        rng.shuffle(tup)
        cons.append((ri, tup))
    return cons


def _random_cons(rng, pairs, n: int, m: int):
    cons = []
    for _ in range(m):
        ri = rng.randrange(len(pairs))
        cons.append((ri, rng.sample(range(n), _pair_arity(pairs[ri][0]))))
    return cons


def _solve_check(pairs, n, cons, want_yes: Optional[bool]):
    """want_yes: True (A-satisfiable), False (B-unsatisfiable) or None (gap)."""
    a_w = [p[2] for p in pairs]
    b_w = [p[3] for p in pairs]

    def check(rc, out):
        lines = out.splitlines()
        if not lines or lines[0] not in ("YES", "NO"):
            return f"unexpected output {out[:80]!r}"
        yes = lines[0] == "YES"
        if rc != (0 if yes else 1):
            return f"exit code {rc} with answer {lines[0]}"
        if want_yes is not None and yes != want_yes:
            return f"answered {lines[0]}, the instance is " + (
                "A-satisfiable" if want_yes else "B-unsatisfiable")
        if not yes:
            return None if len(lines) == 1 else "NO with a witness"
        if len(lines) != 2:
            return "YES without a witness"
        if "=" in lines[1]:
            try:
                pairs_ = [tok.split("=") for tok in lines[1].split()]
                bits = {int(v): int(b) for v, b in pairs_}
            except ValueError:
                return f"malformed witness {lines[1][:80]!r}"
            if sorted(bits) != list(range(n)) or any(b not in (0, 1) for b in bits.values()):
                return "witness is not a 0/1 assignment of every variable"
        else:
            try:
                point = [int(z) for z in lines[1].split()]
            except ValueError:
                return f"malformed witness {lines[1][:80]!r}"
            if len(point) != n:
                return "integer witness has the wrong length"
            for ri, tup in cons:
                if sum(point[v] for v in tup) not in a_w[ri]:
                    return "integer witness violates an exact-weight row"
            bits = {v: 1 if z >= 1 else 0 for v, z in enumerate(point)}
        for ri, tup in cons:
            if sum(bits[v] for v in tup) not in b_w[ri]:
                return f"witness violates B-side constraint {ri} {tup}"
        return None
    return check


def setup_solve(rng, work: Path, tiny: bool) -> Workload:
    """Distinct rounds of fresh instances over six shared templates.

    Planted instances (n = 20/30/40 or PLANTED_N, m = 0.9n) are
    A-satisfiable, so must get YES; over-constrained random ones
    (n = 10/12/14) are decided here by enumeration, so both the YES and the
    NO paths are checked.
    """
    random_n = (6,) if tiny else (10, 12, 14)
    distinct_rounds = 1 if tiny else 10
    tfiles = {name: _write(work / f"{name}.tmpl",
                           _template_text([(a, b) for a, b, _, _ in pairs]))
              for name, (_, pairs) in SOLVE_TEMPLATES.items()}
    rounds, answers = [], {"A-sat": 0, "B-unsat": 0, "gap": 0}
    for g in range(distinct_rounds):
        ops = []
        for name, (recipe, pairs) in SOLVE_TEMPLATES.items():
            group = "lp" if recipe == "lp" else "exact"
            planted_n = (8,) if tiny else PLANTED_N.get(name, (20, 30, 40))
            specs = [("planted", n, _planted(rng, pairs, n, round(0.9 * n))) for n in planted_n]
            specs += [("random", n, _random_cons(rng, pairs, n, round(_RANDOM_RATIO[name] * n)))
                      for n in random_n]
            for kind, n, cons in specs:
                if kind == "planted":
                    want = True
                elif side_satisfiable(n, cons, [p[2] for p in pairs]):
                    want = True
                elif not side_satisfiable(n, cons, [p[3] for p in pairs]):
                    want = False
                else:
                    want = None
                answers[{True: "A-sat", False: "B-unsat", None: "gap"}[want]] += 1
                text = f"vars {n}\n" + "".join(
                    f"c {ri} {' '.join(map(str, tup))}\n" for ri, tup in cons)
                path = _write(work / f"r{g}_{name}_{kind}{n}.inst", text)
                ops.append(Op("solve", _solve_check(pairs, n, cons, want),
                              ["solve", "-t", tfiles[name], "-i", path, "--witness"],
                              group=group, label=f"{name} {kind} n={n}"))
        rng.shuffle(ops)
        rounds.append(ops)
    props = {"templates": len(SOLVE_TEMPLATES), "distinct_rounds": distinct_rounds,
             "ops_per_round": len(rounds[0]),
             "expected_answers": answers}
    return Workload("solve", rounds, 90, props)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# (r, s, case, p, b): README minimal-p cases at b = 1, the (1-in-3, NAE-3)
# case-4a sweep over small p = 1 mod 3, and b = 0 base chains of every case.
# Of the ref-heavy README cases only (2-in-4, NAE-4) at p = 29 (355k refs,
# 1.5 MB) runs at b = 1: case 3 at p = 29 and case 4b at p = 31 are as large,
# and with all three a round took 11 s and runs differed by up to 1.7x with
# the host's load, against 1.2x on the other workloads.  Their base chains
# run at the smallest workable p instead; sweep primes 31-43 take 2-8 s.
CERT_CASES = [
    (1, 3, "4a", 13, 1), (2, 4, "4a", 29, 1), (2, 4, "2", 29, 1), (2, 5, "1", 31, 1),
    (1, 3, "4a", 19, 1),
    (1, 3, "4a", 7, 0), (2, 4, "4a", 17, 0), (2, 4, "3", 17, 0), (2, 5, "4b", 11, 0),
    (2, 4, "2", 13, 0), (2, 5, "1", 11, 0),
]
# Cases 3/4a/4b list every earlier node in a chain node's refs (quadratic);
# cases 1/2 carry about one ref per node.
REF_HEAVY = ("3", "4a", "4b")


def _cert_templates(r, s, case, mirrored: bool, weak_variant: int):
    """(canonical pairs, weakened pairs); the weakened B side is strictly larger."""
    if case in ("4a", "4b"):
        canonical = [(f"rin {r} {s}", f"nae {s}")]
        weak_b = f"atmost {s - 1} {s}" if weak_variant == 0 else f"atleast 1 {s}"
        weak = [(f"rin {r} {s}", weak_b)]
        mirror = [(f"rin {s - r} {s}", f"nae {s}")]
    else:
        a = f"atmost {r} {s}" if case == "2" else f"rin {r} {s}"
        canonical = [(a, f"atmost {2 * r - 1} {s}"), NEQ]
        weak = [(a, f"atmost {2 * r} {s}"), NEQ]
        a_m = f"atleast {s - r} {s}" if case == "2" else f"rin {s - r} {s}"
        mirror = [(a_m, f"atleast {s - 2 * r + 1} {s}"), NEQ]
    return (mirror if mirrored else canonical), weak


def setup_certify(rng, work: Path, tiny: bool) -> Workload:
    cases = [c for c in CERT_CASES if c[3] <= 13] if tiny else CERT_CASES
    units, sizes = [], {}
    for i, (r, s, case, p, b) in enumerate(cases):
        mirrored = rng.random() < 0.5
        good, weak = _cert_templates(r, s, case, mirrored, rng.randrange(2))
        tgood = _write(work / f"k{i}_valid.tmpl", _template_text(good))
        tweak = _write(work / f"k{i}_weak.tmpl", _template_text(weak))
        cfile = str(work / f"k{i}.json")
        group = "ref-heavy" if case in REF_HEAVY else "ref-light"
        conclusion = "contradiction" if b >= 1 else "tame_base"
        wrote = re.compile(re.escape(f"wrote {cfile} (") + r"[1-9][0-9]* nodes, "
                           + re.escape(conclusion) + r"\)\n")

        def certify_check(rc, out, wrote=wrote):
            if rc != 0:
                return f"exit code {rc}"
            return None if wrote.fullmatch(out) else f"unexpected output {out[:100]!r}"

        def record_size(rc, out, cfile=cfile, key=i):
            if rc == 0:
                sizes[key] = os.path.getsize(cfile)

        def invalid_check(rc, out):
            if rc != 1 or not out.startswith("INVALID"):
                return f"weakened template gave exit {rc} {out.strip()[:80]!r}, expected INVALID"
            return None

        label = f"r={r} s={s} case={case} p={p} b={b}"
        units.append([
            Op("certify", certify_check,
               ["certify", "-r", str(r), "-s", str(s), "--case", case, "-p", str(p),
                "-b", str(b), "-o", cfile], after=record_size, group=group, label=label),
            Op("verify", _expect_exact(0, "VALID\n"), ["verify", cfile, "-t", tgood],
               group=group, label=label + (" mirrored" if mirrored else "")),
            Op("verify", invalid_check, ["verify", cfile, "-t", tweak],
               group=group, label=label + " weakened"),
        ])
    rng.shuffle(units)
    ops = [op for unit in units for op in unit]
    props = {"certificates_per_round": len(units),
             "ref_heavy_certificates": sum(1 for c in cases if c[2] in REF_HEAVY),
             "ref_light_certificates": sum(1 for c in cases if c[2] not in REF_HEAVY)}
    props["cert_bytes"] = sizes  # filled in by the certify ops as they run
    return Workload("certify", [ops], 85, props)


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------


def _index_perm(n: int, d: int, perm) -> list:
    """new[i] = index of the argument tuple ys with ys[k] = xs[perm[k]], xs = tuple of i."""
    inv = [0] * n
    for k, m in enumerate(perm):
        inv[m] = k
    out = [0]
    for m in range(n):  # most significant argument first
        w = d ** (n - 1 - inv[m])
        out = [v + x * w for v in out for x in range(d)]
    return out


def _invariant(table, n, d, perm) -> bool:
    idx = _index_perm(n, d, perm)
    return all(table[i] == table[j] for i, j in enumerate(idx))


def _rotation(n):
    return [(i + 1) % n for i in range(n)]


def _compose(c, p, d):
    """t(x) = c(c(column 1), ..., c(column p)); column j is x[j*p:(j+1)*p]."""
    partial = [0]
    for j in range(p):
        w = d ** (p - 1 - j)
        partial = [v + c[blk] * w for v in partial for blk in range(d ** p)]
    return [c[v] for v in partial]


def _fn_text(table, arity, d) -> str:
    return f"fn {arity} {d}\n" + "".join(map(str, table)) + "\n"


def _random_cyclic(rng, p, d):
    table, orbit_value = [], {}
    for xs in product(range(d), repeat=p):
        rep = min(xs[i:] + xs[:i] for i in range(p))
        if rep not in orbit_value:
            orbit_value[rep] = rng.randrange(d)
        table.append(orbit_value[rep])
    return table


def _holds_answer(ok: bool, yes: str, no: str):
    return _expect_exact(0 if ok else 1, (yes if ok else no) + "\n")


# Small templates for --is-polymorphism and --enumerate: (name, [(A tuples, B weights)]).
def _sym_tuples(k, weights):
    return [t for t in product((0, 1), repeat=k) if sum(t) in weights]


POLY_TEMPLATES = {
    "parity3": ([("odd 3", "odd 3"), NEQ], [(_sym_tuples(3, {1, 3}), {1, 3}),
                                           (_sym_tuples(2, {1}), {1})]),
    "two_sat": ([("atmost 1 3", "atmost 1 3"), NEQ], [(_sym_tuples(3, {0, 1}), {0, 1}),
                                                     (_sym_tuples(2, {1}), {1})]),
    "one_in_three": ([("rin 1 3", "nae 3")], [(_sym_tuples(3, {1}), {1, 2})]),
}


def is_polymorphism(table, n, constraints) -> bool:
    """Brute force: f applied row-wise to any n columns of an A relation lands in B."""
    for a_tuples, b_weights in constraints:
        k = len(a_tuples[0])
        for cols in product(a_tuples, repeat=n):
            image = 0
            for i in range(k):
                idx = 0
                for col in cols:
                    idx = idx * 2 + col[i]
                image += table[idx]
            if image not in b_weights:
                return False
    return True


def setup_poly(rng, work: Path, tiny: bool) -> Workload:
    cells = [(2, 3)] if tiny else [(2, 3), (3, 3), (2, 4)]
    units, tpaths = [], {}
    for name, (pairs, _) in POLY_TEMPLATES.items():
        tpaths[name] = _write(work / f"{name}.tmpl", _template_text(pairs))
    boolean_fns = []
    for d, p in cells:
        n = p * p
        c = _random_cyclic(rng, p, d)
        if d == 2:
            boolean_fns.append((f"cyclic c (d=2, p={p})", c, p))
        cpath = _write(work / f"c_{d}_{p}.tt", _fn_text(c, p, d))
        tpath, spath = str(work / f"t_{d}_{p}.tt"), str(work / f"s_{d}_{p}.tt")
        t = _compose(c, p, d)
        t_text = _fn_text(t, n, d)
        sigma = [t[j] for j in _index_perm(n, d, [(k % p) * p + k // p for k in range(n)])]
        s_text = _fn_text(sigma, n, d)
        rot_first = list(range(n))
        rot_first[:p] = [(i + 1) % p for i in range(p)]
        shift = [((k // p + 1) % p) * p + k % p for k in range(n)]
        doubly = _invariant(t, n, d, rot_first) and _invariant(t, n, d, shift)
        sigma_cyclic = _invariant(sigma, n, d, _rotation(n))
        if not (_invariant(c, p, d, _rotation(p)) and doubly and sigma_cyclic):
            raise AssertionError("criterion 3 fails on a generated input")

        def writer(path):
            def after(rc, out):
                Path(path).write_text(out if rc == 0 else "", encoding="utf-8")
            return after

        label = f"d={d} p={p}"
        unit = [
            Op("poly.cyclic", _holds_answer(True, "cyclic", "not-cyclic"),
               ["poly", cpath, "--cyclic"], label=label),
            Op("poly.compose", _expect_exact(0, t_text), ["poly", cpath, "--compose-eq1", str(p)],
               after=writer(tpath), label=label),
            Op("poly.doubly_cyclic", _holds_answer(doubly, "doubly-cyclic", "not-doubly-cyclic"),
               ["poly", tpath, "--doubly-cyclic", str(p)], label=label),
            Op("poly.sigma", _expect_exact(0, s_text), ["poly", tpath, "--sigma", str(p)],
               after=writer(spath), label=label),
            Op("poly.cyclic", _holds_answer(sigma_cyclic, "cyclic", "not-cyclic"),
               ["poly", spath, "--cyclic"], label=label + " after sigma"),
        ]
        if p == 3:
            # boundedness of the composition under the pattern equivalence its
            # inner function induces (criterion 3); no CLI subcommand exists
            keys = {tuple(c[sum((x if (pat >> (p - 1 - i)) & 1 else y) * d ** (p - 1 - i)
                                for i in range(p))]
                          for x in range(d) for y in range(d))
                    for pat in range(2 ** p)}
            want = f"bounded blocks={len(keys)}\n"
            if len(keys) > d ** (d * d):
                raise AssertionError("derived equivalence has too many blocks")
            unit.append(Op("poly.bounded", _expect_exact(0, want),
                           call=_bounded_call(cpath, tpath, p), label=label))
        units.append(unit)

    boolean_fns.append(("majority3", [1 if sum(xs) >= 2 else 0
                                      for xs in product((0, 1), repeat=3)], 3))
    boolean_fns.append(("parity3", [sum(xs) % 2 for xs in product((0, 1), repeat=3)], 3))
    for fname, table, arity in boolean_fns:
        fpath = _write(work / f"f_{fname.split()[0]}_{arity}.tt", _fn_text(table, arity, 2))
        for tname, (_, constraints) in POLY_TEMPLATES.items():
            ok = is_polymorphism(table, arity, constraints)
            units.append([Op("poly.is_polymorphism",
                             _holds_answer(ok, "polymorphism", "not-a-polymorphism"),
                             ["poly", fpath, "-t", tpaths[tname], "--is-polymorphism"],
                             label=f"{fname} on {tname}")])
    for tname, (_, constraints) in POLY_TEMPLATES.items():
        for n in ((1, 2) if tiny else (2, 3)):
            found = [tb for tb in product((0, 1), repeat=2 ** n)
                     if is_polymorphism(tb, n, constraints)]
            # emission order is increasing packed table, entry i at bit i
            found.sort(key=lambda tb: sum(v << i for i, v in enumerate(tb)))
            want = "".join(_fn_text(tb, n, 2) for tb in found) + f"count {len(found)}\n"
            units.append([Op("poly.enumerate", _expect_exact(0, want),
                             ["poly", "-t", tpaths[tname], "--enumerate", str(n)],
                             label=f"{tname} n={n}")])
    rng.shuffle(units)
    ops = [op for unit in units for op in unit]
    props = {"cells": [f"d={d} p={p}" for d, p in cells], "ops_per_round": len(ops),
             "table_entries_per_round": sum(d ** (p * p) for d, p in cells)}
    return Workload("poly", [ops], 90, props)


def _bounded_call(cpath, tpath, p):
    def call():
        from pcsp import polymorphisms as pm

        c = pm.parse_function(Path(cpath).read_text(encoding="utf-8"))
        t = pm.parse_function(Path(tpath).read_text(encoding="utf-8"))
        sim = pm.derive_sim(c)
        ok = pm.is_b_bounded(t, p, sim)
        return (0 if ok else 1), f"{'bounded' if ok else 'not-bounded'} blocks={sim.block_count()}\n"
    return call


SETUPS = {"classify": setup_classify, "solve": setup_solve,
          "certify": setup_certify, "poly": setup_poly}
