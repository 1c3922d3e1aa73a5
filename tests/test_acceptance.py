"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime.  Budgets are asserted, with the real work done by exact
re-checks against independent oracles."""

import copy
import json
import random
import time

import pytest

from pcsp.certificates import (ProofContext, certificate_from_json,
                               certificate_to_json, find_minimal_p,
                               gen_certificate, gen_stepone_chain,
                               is_plausible_1d, build_shift_matrix_1d,
                               build_shift_matrix_2d, propagate,
                               verify_certificate, _pigeonhole_interval)
from pcsp.classifier import Complexity, Finiteness, classify
from pcsp.polymorphisms import (compose_eq1, derive_sim,
                                enumerate_doubly_cyclic_polymorphisms,
                                function_from_callable, is_b_bounded,
                                is_cyclic, is_doubly_cyclic, sigma_transform)
from pcsp.solvers import brute_force_promise, solve_pcsp
from pcsp.structures import Instance, Template, build_family
from test_certificates import random_plausible_2d

B = build_family
NEQ = B("neq")


def with_neq(a, b):
    return Template(((a, b), (NEQ, NEQ)))


def bare(a, b):
    return Template(((a, b),))


def report(name, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"{name}: PASS ({elapsed:.2f}s)")


# -- criterion 1: classification golden table -----------------------------------

def test_criterion_1_golden_table():
    t0 = time.time()
    for s in range(1, 9):
        for parity in ("odd", "even"):
            rel = B(parity, s)
            v = classify(with_neq(rel, rel))
            assert v.complexity is Complexity.TRACTABLE
            assert v.finiteness is Finiteness.FINITELY_TRACTABLE, (parity, s)
        for r in range(1, s // 2 + 1):
            t = with_neq(B("atmost", r, s), B("atmost", 2 * r - 1, s))
            v = classify(t)
            assert v.complexity is Complexity.TRACTABLE
            want = (Finiteness.FINITELY_TRACTABLE if r == 1 or s <= 2
                    else Finiteness.NOT_FINITELY_TRACTABLE)
            assert v.finiteness is want, ("b", r, s)
        for r in range(1, s):
            if s < 2:
                continue
            v = classify(bare(B("exact", r, s), B("nae", s)))
            assert v.complexity is Complexity.TRACTABLE
            want = (Finiteness.FINITELY_TRACTABLE
                    if s <= 2 or (r % 2 == 1 and s % 2 == 0)
                    else Finiteness.NOT_FINITELY_TRACTABLE)
            assert v.finiteness is want, ("c", r, s)
    v = classify(bare(B("exact", 1, 3), B("nae", 3)))
    assert v.finiteness is Finiteness.NOT_FINITELY_TRACTABLE
    report("criterion 1 (golden classification table)", t0, 1.0)


# -- criterion 2: promise soundness ----------------------------------------------

CATALOG = {
    "parity3": with_neq(B("odd", 3), B("odd", 3)),
    "two_sat": with_neq(B("atmost", 1, 3), B("atmost", 1, 3)),
    "majority24": with_neq(B("atmost", 2, 4), B("atmost", 3, 4)),
    "one_in_three": bare(B("exact", 1, 3), B("nae", 3)),
    "two_in_four": bare(B("exact", 2, 4), B("nae", 4)),
    "exact_item1": with_neq(B("exact", 2, 5), B("atmost", 3, 5)),
}


def test_criterion_2_promise_soundness():
    t0 = time.time()
    rng = random.Random(424242)
    violations = 0
    in_gap = 0  # logged, never asserted: the promise leaves it unconstrained
    for name, t in CATALOG.items():
        for _ in range(1000):
            nv = rng.randint(3, 10)
            cons = []
            for _ in range(rng.randint(1, 15)):
                ri = rng.randrange(len(t.pairs))
                k = t.pairs[ri][0].arity
                if k <= nv:
                    tup = tuple(rng.sample(range(nv), k))
                else:
                    tup = tuple(rng.randrange(nv) for _ in range(k))
                cons.append((ri, tup))
            inst = Instance(nv, tuple(cons))
            a_sat, b_sat = brute_force_promise(t, inst)
            answer = solve_pcsp(t, inst)
            if a_sat and not answer.yes:
                violations += 1
            if not b_sat and answer.yes:
                violations += 1
            if not a_sat and b_sat:
                in_gap += 1
    assert violations == 0
    print(f"  instances inside the promise gap: {in_gap}")
    report("criterion 2 (promise soundness, 6000 instances)", t0, 60.0)


# -- criterion 3: square-composition pipeline ------------------------------------

def _random_cyclic(rng, p, d):
    values = {}

    def val(xs):
        orbit = min(tuple(xs[i:] + xs[:i]) for i in range(len(xs)))
        if orbit not in values:
            values[orbit] = rng.randrange(d)
        return values[orbit]

    return function_from_callable(p, lambda xs: val(tuple(xs)), d)


def test_criterion_3_square_composition_pipeline():
    t0 = time.time()
    rng = random.Random(7117)
    for d in (2, 3):
        for _ in range(20):
            c = _random_cyclic(rng, 3, d)
            assert is_cyclic(c)
            t = compose_eq1(c, 3)
            assert is_doubly_cyclic(t, 3)
            sim = derive_sim(c)
            assert sim.block_count() <= d ** (d * d)
            assert is_b_bounded(t, 3, sim)
            assert is_cyclic(sigma_transform(t, 3))
    report("criterion 3 (composition/boundedness pipeline)", t0, 30.0)


# -- criterion 4: stagger constructions -------------------------------------------

def _random_plausible_1d(ctx, rng):
    while True:
        cuts = sorted(rng.randint(0, ctx.r * ctx.n) for _ in range(ctx.s - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [ctx.r * ctx.n])]
        if all(v <= ctx.n for v in parts):
            return parts


def test_criterion_4_stagger_constructions():
    t0 = time.time()
    rng = random.Random(555)
    for ctx in (ProofContext(1, 3, "4a", 7, 0), ProofContext(2, 4, "4a", 5, 0)):
        for _ in range(200):
            ks = _random_plausible_1d(ctx, rng)
            matrix, ok = build_shift_matrix_1d(ks, ctx)
            assert ok, ks
        for _ in range(200):
            fam = random_plausible_2d(ctx, rng)
            matrix, ok = build_shift_matrix_2d(fam, ctx)
            assert ok, fam
    report("criterion 4 (400+400 stagger constructions)", t0, 30.0)


# -- criterion 5: step-one chains --------------------------------------------------

def test_criterion_5_chains():
    t0 = time.time()
    ctx137 = ProofContext(1, 3, "4a", 7, 0)
    chain = gen_stepone_chain(ctx137)
    for node in chain:
        for ks in node.justify.get("tuples", []):
            assert is_plausible_1d(ks, ctx137)
    res = propagate(chain, B("nae", 3), ctx137)
    assert res.status == "ok"
    assert all(res.forced[k] == 0 for k in range(0, 17))
    assert all(res.forced[k] == 1 for k in range(17, 33))

    ctx245 = ProofContext(2, 4, "4a", 5, 0)
    chain = gen_stepone_chain(ctx245)
    for node in chain:
        for ks in node.justify.get("tuples", []):
            assert is_plausible_1d(ks, ctx245)
    res = propagate(chain, B("nae", 4), ctx245)
    assert res.status == "ok"
    assert all(res.forced[k] == 0 for k in range(0, 13))
    assert all(res.forced[k] == 1 for k in range(13, 25))

    # each chain claim relates its new term to the root, so a long chain's
    # hints stay constant in size: one link per known term of the tuple
    ctx4b = ProofContext(4, 9, "4b", 37, 0)
    chain = gen_stepone_chain(ctx4b)
    assert max(len(node.refs) for node in chain) <= 3
    res = propagate(chain, B("nae", 9), ctx4b)
    assert res.matches_tame_pattern(ctx4b)
    report("criterion 5 (step-one chains)", t0, 5.0)


# -- criterion 6: round trip and tamper detection ----------------------------------

def _mutation_sites(obj):
    """Paths to node fields whose change must break the certificate:
    (node_index, section, key, subindex).

    Term names inside distinct/equal claims are excluded: swapping one for a
    neighboring height can yield a different but still true and still
    locally-justified claim, which no sound checker can (or should) reject.
    Everything else - bits, kinds, tuple entries, block heights, construction
    parameters - must be caught.
    """
    sites = []
    for ni, node in enumerate(obj["nodes"]):
        claim = node["claim"]
        for key, val in claim.items():
            if isinstance(val, (int, str)):
                sites.append((ni, "claim", key, None))
            elif isinstance(val, list):
                for j in range(len(val)):
                    sites.append((ni, "claim", key, j))
        justify = node["justify"]
        for key, val in justify.items():
            if key == "tag":
                continue
            if isinstance(val, (int, bool)):
                sites.append((ni, "justify", key, None))
            elif isinstance(val, list) and key == "tuples":
                for j in range(len(val[0])):
                    sites.append((ni, "justify", key, j))
            elif isinstance(val, list):
                for j in range(len(val)):
                    sites.append((ni, "justify", key, j))
    return sites


def _apply_mutation(obj, site, rng):
    ni, section, key, sub = site
    node = obj["nodes"][ni][section]

    def bump(value):
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + rng.choice([1, -1]) if value > 0 else value + 1
        kinds = ["forced", "absolute", "distinct", "tame", "equal"]
        return rng.choice([k for k in kinds if k != value])

    if isinstance(key, tuple):
        outer, inner = key
        node[outer][inner] = bump(node[outer][inner])
    elif sub is None:
        node[key] = bump(node[key])
    elif key == "tuples":
        node[key][0][sub] = bump(node[key][0][sub])
    else:
        node[key][sub] = bump(node[key][sub])


@pytest.mark.parametrize("ctx,template", [
    (ProofContext(1, 3, "4a", 7, 0), bare(B("exact", 1, 3), B("nae", 3))),
    (ProofContext(2, 4, "4a", 5, 0), bare(B("exact", 2, 4), B("nae", 4))),
])
def test_criterion_6_round_trip_and_tampering(ctx, template):
    t0 = time.time()
    cert = gen_certificate(ctx)
    assert verify_certificate(cert, template).ok
    text = certificate_to_json(cert)
    assert certificate_to_json(certificate_from_json(text)) == text

    base = json.loads(text)
    rng = random.Random(1234)
    sites = _mutation_sites(base)
    misses = []
    for _ in range(100):
        mutated = copy.deepcopy(base)
        site = rng.choice(sites)
        _apply_mutation(mutated, site, rng)
        if mutated == base:
            continue
        try:
            bad = certificate_from_json(json.dumps(mutated))
        except Exception:
            continue  # not even parseable counts as rejected, but give an id below
        result = verify_certificate(bad, template)
        if result.ok or result.failed_node is None:
            misses.append((site, result))
    assert not misses, misses
    report(f"criterion 6 (tamper detection, {ctx.p=})", t0, 30.0)


# -- criterion 7: the full pigeonhole certificate -----------------------------------

def test_criterion_7_full_certificate():
    t0 = time.time()
    p, cert = find_minimal_p(1, 3, "4a", 1)
    assert cert.conclusion == "contradiction"
    t13 = bare(B("exact", 1, 3), B("nae", 3))
    assert verify_certificate(cert, t13).ok
    ints = _pigeonhole_interval(cert.context)
    assert len(ints) > cert.context.b
    covered = {(n.justify["z21"], n.justify["z22"]) for n in cert.nodes
               if n.justify.get("tag") == "boundedness"}
    for i, z21 in enumerate(ints):
        for z22 in ints[i + 1:]:
            assert (z21, z22) in covered
    print(f"  discovered minimal p = {p}")
    report("criterion 7 (pigeonhole certificate)", t0, 600.0)


# -- criterion 8: concrete cross-check at p = 3 --------------------------------------

def test_criterion_8_concrete_cross_check():
    t0 = time.time()
    t13 = bare(B("exact", 1, 3), B("nae", 3))
    found = enumerate_doubly_cyclic_polymorphisms(t13, 3)
    # claims expressible at p = 3: the tame pattern on one-run tuples with
    # k below/above the threshold index (never exactly on it)
    n, theta_n = 9, 3
    violations = 0
    for t in found:
        sig = sigma_transform(t, 3)
        u = [sig((1,) * k + (0,) * (n - k)) for k in range(n + 1)]
        for k in range(0, 2 * theta_n + 1):
            if k == theta_n:
                continue
            want = u[0] if k < theta_n else 1 - u[0]
            if u[k] != want:
                violations += 1
    assert violations == 0
    print(f"  doubly cyclic 9-ary polymorphisms found: {len(found)}")
    report("criterion 8 (p=3 cross-check)", t0, 60.0)
