import dataclasses
import functools
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pcsp import certificates
from pcsp.certificates import (CertificateError, GenerationError, ProofContext,
                               StaggerParams, area,
                               as_almost_rectangle, build_shift_matrix_1d,
                               build_shift_matrix_2d, certificate_from_json,
                               certificate_to_json,
                               complete_plausible, find_minimal_p,
                               gen_certificate, gen_stepone_chain, halve,
                               is_plausible_1d, is_plausible_2d, near_threshold,
                               propagate, verify_certificate)
from pcsp.cli import run
from pcsp.solvers import InternalCheckError
from pcsp.structures import build_family
from conftest import template
from test_golden_stdout import _load_cert_sweep


def B(*args):
    return build_family(*args)


CTX137 = ProofContext(1, 3, "4a", 7, 0)
CTX245 = ProofContext(2, 4, "4a", 5, 0)

# one context per README case; the 4a one has b = 1, so it also carries
# halving, completion and boundedness nodes
ONE_PER_CASE = [(2, 5, "1", 11, 0), (2, 4, "2", 13, 0), (2, 4, "3", 17, 0),
                (1, 3, "4a", 13, 1), (2, 5, "4b", 11, 0)]
ONE_PER_CASE_AT_B0 = [args[:4] + (0,) for args in ONE_PER_CASE]

T13 = template((B("exact", 1, 3), B("nae", 3)))
T24 = template((B("exact", 2, 4), B("nae", 4)))


def canonical_template(ctx):
    return ctx.canonical_template()


def assert_linear_refs(cert):
    """Every claim is stated against its class root, so a node's hints stay
    constant in size."""
    refs = [len(n.refs) for n in cert.nodes]
    assert max(refs) <= 3
    assert sum(refs) <= 2 * len(cert.nodes)


# -- contexts, tuples, areas ----------------------------------------------------

def test_context_invariants():
    assert CTX137.theta == Fraction(1, 3)
    assert CTX137.a == 16 and CTX137.n == 49
    assert CTX245.theta == Fraction(1, 2) and CTX245.a == 12
    with pytest.raises(CertificateError):
        ProofContext(1, 3, "4a", 8, 0)   # not prime
    with pytest.raises(CertificateError):
        ProofContext(1, 3, "4a", 5, 0)   # 5 != 1 mod 3
    with pytest.raises(CertificateError):
        ProofContext(1, 3, "4a", 3, 0)   # 3 != 1 mod 3 (theta*n = 3)
    with pytest.raises(CertificateError):
        ProofContext(3, 5, "4a", 11, 0)  # not normalized (2r > s)
    with pytest.raises(CertificateError):
        ProofContext(1, 3, "1", 7, 0)    # case 1 needs 1 < r < s/2


def test_area_examples():
    p = 7
    assert area((p,) * p, p) == 1
    assert area((0,) * p, p) == 0
    assert area((7, 7, 2, 0, 0, 0, 0), 7) == Fraction(16, 49)


def test_almost_rectangle_recognition():
    ar = as_almost_rectangle((3, 3, 3, 2, 2, 2, 2))
    assert (ar.z1, ar.z2, ar.count1, ar.step, ar.shift) == (3, 2, 3, 1, 0)
    shifted = as_almost_rectangle((2, 2, 3, 3, 3, 2, 2))
    assert shifted is not None and shifted.step == 1
    assert as_almost_rectangle((1, 2, 3, 1, 1, 1, 1)) is None
    assert as_almost_rectangle((3, 2, 3, 2, 3, 2, 2)) is None  # not contiguous
    const = as_almost_rectangle((4, 4, 4, 4, 4, 4, 4))
    assert const.step == 0


def _rotation_search(blocks):
    """The reference recognizer: try every rotation of the canonical form
    (quadratic in the length).  (z1, z2, count1, shift) or None."""
    p = len(blocks)
    if any(not (0 <= v <= p) for v in blocks):
        return None
    values = sorted(set(blocks), reverse=True)
    if len(values) == 1:
        return values[0], values[0], p, 0
    if len(values) != 2:
        return None
    z1, z2 = values
    count1 = blocks.count(z1)
    canonical = tuple([z1] * count1 + [z2] * (p - count1))
    for shift in range(p):
        if certificates._rot(canonical, shift) == blocks:
            return z1, z2, count1, shift
    return None


def test_almost_rectangle_recognition_matches_rotation_search():
    """The linear recognizer against the rotation search on seeded vectors:
    rotated almost rectangles, two values placed at random, and entries
    from just outside 0..p."""
    rng = random.Random(1931)
    found = 0
    for _ in range(4000):
        p = rng.randint(0, 12)
        kind = rng.randrange(3)
        if kind == 0 and p:
            z2 = rng.randint(0, p)
            z1 = rng.randint(z2, p)
            count1 = rng.randint(0, p)
            canonical = tuple([z1] * count1 + [z2] * (p - count1))
            blocks = certificates._rot(canonical, rng.randrange(p))
        elif kind == 1:
            pair = (rng.randint(0, p), rng.randint(0, p))
            blocks = tuple(rng.choice(pair) for _ in range(p))
        else:
            blocks = tuple(rng.randint(-1, p + 1) for _ in range(p))
        got = as_almost_rectangle(blocks)
        want = _rotation_search(blocks)
        assert (None if got is None else (got.z1, got.z2, got.count1, got.shift)) == want, blocks
        if got is not None:
            assert got.blocks == blocks and certificates._rot(got.canonical(), got.shift) == blocks
            found += 1
    assert 1000 < found < 3900


# -- plausibility ----------------------------------------------------------------

def test_plausible_1d_examples():
    assert is_plausible_1d([16, 16, 17], CTX137)
    assert not is_plausible_1d([16, 16, 16], CTX137)
    ctx2 = ProofContext(2, 4, "2", 5, 0)
    assert is_plausible_1d([0, 0, 0, 0], ctx2)
    assert is_plausible_1d([12, 12, 12, 12], ctx2)
    with pytest.raises(CertificateError):
        is_plausible_1d([16, 16], CTX137)


def test_shift_matrix_1d_columns():
    matrix, ok = build_shift_matrix_1d([16, 16, 17], CTX137)
    assert ok and len(matrix) == 3 and len(matrix[0]) == 49
    for j in range(49):
        assert sum(row[j] for row in matrix) == 1


def test_shift_matrix_1d_uniform_budget():
    # exact-budget contexts never split evenly (r*n is 1 mod s), so the
    # equal-entry family lives in the at-most case
    ctx = ProofContext(2, 4, "2", 5, 0)
    matrix, ok = build_shift_matrix_1d([12, 12, 12, 12], ctx)
    assert ok
    for j in range(25):
        assert sum(row[j] for row in matrix) <= 2


def test_shift_matrix_1d_rejects_implausible():
    with pytest.raises(CertificateError):
        build_shift_matrix_1d([16, 16, 16], CTX137)


def test_shift_matrix_2d_from_completion():
    rows, l = complete_plausible((3, 3, 3, 2, 2, 2, 2), 2, CTX137)
    family = rows + [l.blocks]
    matrix, ok = build_shift_matrix_2d(family, CTX137)
    assert ok and len(matrix) == 3 and len(matrix[0]) == 49
    for j in range(49):
        assert sum(row[j] for row in matrix) == 1


def random_plausible_2d(ctx, rng):
    """Random s block vectors with every column summing to r*p."""
    cols = []
    for _ in range(ctx.p):
        while True:
            cuts = sorted(rng.randint(0, ctx.r * ctx.p) for _ in range(ctx.s - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [ctx.r * ctx.p])]
            if all(v <= ctx.p for v in parts):
                cols.append(parts)
                break
    return [tuple(col[j] for col in cols) for j in range(ctx.s)]


def test_shift_matrix_2d_random(rng):
    ctx = ProofContext(2, 4, "4a", 5, 0)
    for _ in range(25):
        fam = random_plausible_2d(ctx, rng)
        assert is_plausible_2d(fam, ctx)
        matrix, ok = build_shift_matrix_2d(fam, ctx)
        assert ok
        for j in range(ctx.n):
            assert sum(row[j] for row in matrix) == 2


# -- completion and halving ------------------------------------------------------

def test_complete_plausible_exact_rectangle():
    rows, l = complete_plausible((2,) * 7, 1, CTX137)
    assert l.step == 0 and l.blocks == (5,) * 7


def test_complete_plausible_example():
    rows, l = complete_plausible((3, 3, 3, 2, 2, 2, 2), 1, CTX137)
    assert rows[0] == (3, 3, 3, 2, 2, 2, 2)
    assert l.blocks == (4, 4, 4, 5, 5, 5, 5)
    for i in range(7):
        assert rows[0][i] + l.blocks[i] == 7


def test_complete_plausible_areas_sum():
    ctx = ProofContext(2, 4, "4a", 5, 0)
    z = (3, 3, 3, 2, 2)
    rows, l = complete_plausible(z, 3, ctx)
    total = sum(area(r, 5) for r in rows) + area(l.blocks, 5)
    assert total == 2  # the whole family is worth r
    for r in rows:
        assert area(r, 5) == area(z, 5)


def test_complete_plausible_rejects_bad_m():
    with pytest.raises(CertificateError):
        complete_plausible((3, 3, 3, 2, 2, 2, 2), 3, CTX137)


def test_stagger_sums_match_the_rows():
    """The closed-form column sums of m staggered rows against the rows
    themselves, built as `complete_plausible` builds them, on seeded almost
    rectangles with m up to three times p."""
    rng = random.Random(1937)
    for _ in range(1500):
        p = rng.randint(1, 11)
        z2 = rng.randint(0, p)
        z1 = rng.randint(z2, p)
        count1 = rng.randint(1, p) if z1 > z2 else p
        canonical = tuple([z1] * count1 + [z2] * (p - count1))
        ar = as_almost_rectangle(certificates._rot(canonical, rng.randrange(p)))
        m = rng.randint(1, 3 * p)
        rows = [certificates._rot(ar.canonical(), (i * ar.count1 + ar.shift) % p)
                for i in range(m)]
        assert certificates._stagger_sums(ar, m) == [sum(col) for col in zip(*rows)]


def test_halve_examples(rng):
    l1, l2 = halve((8,) * 6 + (10,) * 7)
    assert area(l1.blocks, 13) + area(l2.blocks, 13) == area((8,) * 6 + (10,) * 7, 13)
    with pytest.raises(CertificateError):
        halve((3, 3, 3, 2, 2, 2, 2))
    for _ in range(100):
        p = rng.choice([7, 13])
        step = rng.randint(2, 4)
        z2 = rng.randint(0, p - step)
        c = rng.randint(1, p - 1)
        shift = rng.randint(0, p - 1)
        blocks = tuple([z2 + step] * c + [z2] * (p - c))
        blocks = blocks[-shift:] + blocks[:-shift]
        h1, h2 = halve(blocks)
        assert h1.step < step and h2.step < step


def _random_almost_rectangle(p, rng):
    z2 = rng.randint(0, p)
    z1 = rng.randint(z2, p)
    count1 = rng.randint(1, p - 1) if z1 > z2 else p
    return certificates._rot(tuple([z1] * count1 + [z2] * (p - count1)), rng.randrange(p))


@pytest.mark.parametrize("args", ONE_PER_CASE_AT_B0 + [(2, 5, "1", 31, 0), (2, 4, "2", 29, 0),
                                                       (2, 4, "3", 29, 0), (2, 5, "4b", 31, 0)])
def test_completed_families_are_plausible(args):
    """The halving and completion rules compute l and the halves by the
    construction, and do not re-sum the family.  On seeded almost
    rectangles z that `_complete` accepts, the family (z's m staggered
    rows, then l or its halves, then the zero padding) is plausible by the
    reference check; in cases 1-3 so is its complement, the padding kept."""
    ctx = ProofContext(*args)
    rng = random.Random(20261019)
    p, pad = ctx.p, [(0,) * ctx.p] * ctx.zero_pad
    built = {ctx.m_half: 0, ctx.m_flip: 0}
    for _ in range(400):
        z = _random_almost_rectangle(p, rng)
        for m in built:
            try:
                rows, l = complete_plausible(z, m, ctx)
            except CertificateError:
                continue
            if m == ctx.m_flip:
                members = [l.blocks]
            elif l.step >= 2:
                members = [h.blocks for h in halve(l.blocks)]
            else:
                continue
            family = rows + members
            assert is_plausible_2d(family + pad, ctx), (z, m)
            if ctx.has_neq:
                flipped = [tuple(p - v for v in row) for row in family]
                assert is_plausible_2d(flipped + pad, ctx), (z, m)
            built[m] += 1
    assert min(built.values()) >= 10, built


def test_finale_checks_imply_the_window_and_the_steps():
    """The boundedness rule does not check that theta*p < z1 < theta*p + 3b,
    that the second rectangle lies above the threshold, or that both have
    step below 5b.  Every (z21, z22) in the interval, with z1 the largest
    height keeping the first rectangle below the threshold (the one
    `_finale_heights` computes), meets all three."""
    checked = 0
    for r, s, case in [(1, 3, "4a"), (2, 4, "4a"), (2, 4, "2"), (2, 4, "3"), (2, 5, "1"),
                       (2, 5, "4b"), (3, 7, "1"), (1, 4, "4a")]:
        for p in range(5, 60):
            for b in (1, 2, 4):
                try:
                    ctx = ProofContext(r, s, case, p, b)
                except CertificateError:
                    continue
                theta, m = ctx.theta, (p - 1) // 2
                heights = [z for z in range(p + 1) if theta * p - 2 * b < z < theta * p]
                for i, z21 in enumerate(heights):
                    for z22 in heights[i + 1:]:
                        for z1 in range(p + 1):
                            zb1 = (z1,) * m + (z21,) * (p - m)
                            zb2 = (z1,) * m + (z22,) * (p - m)
                            if area(zb1, p) >= theta or (
                                    z1 < p and area((z1 + 1,) * m + (z21,) * (p - m), p) < theta):
                                continue
                            assert theta * p < z1 < theta * p + 3 * b, (ctx, z21, z22, z1)
                            assert area(zb2, p) > theta, (ctx, z21, z22, z1)
                            for zb in (zb1, zb2):
                                assert as_almost_rectangle(zb).step < 5 * b
                            checked += 1
    assert checked > 500, checked


# -- step-one chains -------------------------------------------------------------

def test_chain_137_tuples_spec_values():
    """At b = 0 the builder names u_0 .. u_2a outward from the threshold:
    a + 1, a - 1, a + 2, a - 2, ...; u_a is the root and has no node.  At
    (1-in-3, NAE-3), p = 7, `_derive_nae` takes j = 1 for every index: u_k
    from the tuple (k, x, y), with x >= y the near-equal split of n - k."""
    chain = gen_stepone_chain(CTX137)
    tuples = [tuple(n.justify["tuples"][0]) for n in chain]
    order = [k for i in range(1, 17) for k in (16 + i, 16 - i)]
    assert tuples == [(k, (50 - k) // 2, (49 - k) // 2) for k in order]
    for t in tuples:
        assert sum(t) == 49 and is_plausible_1d(list(t), CTX137)


def test_chain_245_first_step():
    """The first index named is a + 1, from a + 1 taken r times and s - r
    copies of a (j = r in `_derive_nae`: at j = 1 an entry lies above a)."""
    chain = gen_stepone_chain(CTX245)
    assert tuple(chain[0].justify["tuples"][0]) == (13, 13, 12, 12)
    for n in chain:
        assert is_plausible_1d(n.justify["tuples"][0], CTX245)


def test_chain_case2_constant_tuples():
    """Case 2 names u_k = 0 for k <= a by the tuple [k]*s, and u_k = 1 for
    k above a as the negation of u_(n-k); one node per index 0..2a."""
    ctx = ProofContext(2, 4, "2", 5, 0)
    chain = gen_stepone_chain(ctx)
    named = []
    for node in chain:
        k, bit = node.claim["k"], node.claim["bit"]
        if node.justify["tag"] == "plausible1d":
            assert k <= ctx.a and bit == 0 and node.justify["tuples"] == [[k] * 4]
        else:
            assert k > ctx.a and bit == 1 and node.justify == {"tag": "negation", "k": ctx.n - k}
        named.append(k)
    assert sorted(named) == list(range(2 * ctx.a + 1))


def test_chain_case1_shape():
    ctx = ProofContext(2, 5, "1", 11, 0)
    chain = gen_stepone_chain(ctx)
    first = chain[0].justify["tuples"][0]
    assert sorted(first) == sorted([60] * 4 + [2])
    assert sum(first) == 2 * 121


@pytest.mark.parametrize("args", ONE_PER_CASE_AT_B0)
def test_b0_certificate_names_each_index_once(args):
    """A b = 0 certificate is step one alone: one plausible tuple or
    negation node per index it names, and it names no index outside
    0..2a, so it holds at most 2a + 1 nodes (2a when u_a is the root)."""
    ctx = ProofContext(*args)
    cert = gen_certificate(ctx)
    assert len(cert.nodes) <= 2 * ctx.a + 1
    assert {node.justify["tag"] for node in cert.nodes} <= {"plausible1d", "negation"}


# -- propagation -----------------------------------------------------------------

def test_propagate_forces_tame_pattern_137():
    chain = gen_stepone_chain(CTX137)
    res = propagate(chain, B("nae", 3), CTX137)
    assert res.status == "ok"
    for k in range(0, 17):
        assert res.forced[k] == 0
    for k in range(17, 33):
        assert res.forced[k] == 1


def test_propagate_forces_tame_pattern_245():
    chain = gen_stepone_chain(CTX245)
    res = propagate(chain, B("nae", 4), CTX245)
    assert res.status == "ok" and res.matches_tame_pattern(CTX245)
    assert res.forced[12] == 0 and res.forced[13] == 1


def test_propagate_case1_absolute_zero():
    ctx = ProofContext(2, 5, "1", 11, 0)
    chain = gen_stepone_chain(ctx)
    res = propagate(chain, B("atmost", 3, 5), ctx)
    assert res.status == "ok" and res.absolute[0] == 0 and res.absolute[2 * ctx.a] == 1


def test_propagate_incomplete_when_node_deleted():
    chain = gen_stepone_chain(CTX137)
    res = propagate(chain[:-1], B("nae", 3), CTX137)
    assert res.status == "incomplete"
    assert res.missing  # reported, not a bogus contradiction


def test_propagate_vacuous_against_full_relation():
    chain = gen_stepone_chain(CTX137)
    res = propagate(chain, B("full", 3), CTX137)
    assert res.status == "incomplete"


def test_propagate_order_independent(rng):
    chain = gen_stepone_chain(CTX137)
    baseline = propagate(chain, B("nae", 3), CTX137)
    for _ in range(5):
        shuffled = chain[:]
        rng.shuffle(shuffled)
        res = propagate(shuffled, B("nae", 3), CTX137)
        assert res.status == "ok" and res.forced == baseline.forced


# -- the deduction kernel --------------------------------------------------------

def _parity_closure(edges, x, y):
    """x's parity to y along the given edges, by search; None when apart."""
    seen, todo = {x: 0}, [x]
    while todo:
        t = todo.pop()
        for a, b, parity in edges:
            for u, v in ((a, b), (b, a)):
                if u == t and v not in seen:
                    seen[v] = seen[t] ^ parity
                    todo.append(v)
    return None if y not in seen else seen[x] ^ seen[y]


def test_parity_union_against_brute_force_closure():
    """The union step with parity offsets: classes stay flat, and every
    union's outcome and every final relation agree with a search over the
    edges it accepted."""
    rng = random.Random(1975)
    for _ in range(200):
        terms = [("t", i) for i in range(rng.randint(2, 9))]
        cls, members, accepted = {}, {}, []
        for _ in range(rng.randint(0, 14)):
            x, y, parity = rng.choice(terms), rng.choice(terms), rng.randrange(2)
            known = _parity_closure(accepted, x, y)
            want = "new" if known is None else "known" if known == parity else "conflict"
            try:
                got = "new" if certificates._union(cls, members, x, y, parity) else "known"
            except certificates._Contradiction as e:
                assert e.edge == (x, y, parity)
                got = "conflict"
            assert got == want
            if want == "new":
                accepted.append((x, y, parity))
        # flat: every term maps straight to its root, which maps to itself
        for x, (root, _) in cls.items():
            assert cls[root] == (root, 0) and x in members[root]
        assert sum(map(len, members.values())) == len(cls)
        for x in terms:
            for y in terms:
                (rx, px), (ry, py) = cls.get(x, (x, 0)), cls.get(y, (y, 0))
                assert (px ^ py if rx == ry else None) == _parity_closure(accepted, x, y)


KERNEL_POOL = [certificates.ZERO] + [certificates.sigma_term(k) for k in range(5)] \
    + [certificates.rect_term((2, 1))]


def _random_claim(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return certificates.claim_absolute(rng.randrange(5), rng.randrange(2))
    if kind == 1:
        return certificates.claim_forced(rng.randrange(5), rng.randrange(2))
    terms = KERNEL_POOL[1:]
    x, y = rng.choice(terms), rng.choice(terms)
    return (certificates.claim_distinct if kind == 2 else certificates.claim_equal)(x, y)


def _oracle_verdict(edge, con, facts):
    """The verdict by enumerating every 0/1 value of the terms involved,
    ZERO fixed at 0."""
    x, y, parity = edge
    terms = {x, y} | {t for a, b, _ in facts for t in (a, b)}
    if con is not None:
        terms |= {t for t, _, _ in con.terms}
    others = sorted(terms - {certificates.ZERO})
    consistent = []
    for bits in range(1 << len(others)):
        val = {t: (bits >> i) & 1 for i, t in enumerate(others)}
        val[certificates.ZERO] = 0
        if all(val[a] ^ val[b] == p for a, b, p in facts):
            consistent.append(val)
    if not consistent:
        return "contradictory facts"
    if con is None:
        rels = {val[x] ^ val[y] for val in consistent}
        return "not forced" if len(rels) > 1 else "forced" if rels == {parity} \
            else "contradicted"
    # free classes: terms not fixed by the facts, two of them alike when
    # the facts fix their parity
    free = [t for t in [t for t, _, _ in con.terms] + [x, y]
            if len({val[t] for val in consistent}) > 1]
    reps = {next(u for u in free if len({val[t] ^ val[u] for val in consistent}) == 1)
            for t in free}
    if len(reps) > certificates.MAX_FREE_ROOTS:
        return "too many classes"

    def admits(val):
        ones = sum(m * val[t] for t, m, _ in con.terms)
        twin_ones = sum(m * (1 - val[t] if flip else val[t]) for t, m, flip in con.terms)
        return ones in con.weights and (not con.twin or twin_ones in con.weights)

    survivors = [val for val in consistent if admits(val)]
    if not survivors:
        return "no survivor"
    return "forced" if all(val[x] ^ val[y] == parity for val in survivors) else "not forced"


KERNEL_VERDICTS = {
    "referenced facts are contradictory": "contradictory facts",
    "claim does not follow from the referenced facts": "not forced",
    "claim contradicts the referenced facts": "contradicted",
    "no consistent assignment survives (inconsistent node)": "no survivor",
    "claim is not forced by the constraint": "not forced",
}


def test_deduction_kernel_against_exhaustive_oracle():
    """_deduce_claim on random facts, constraints (twin and not) and claims
    gives the verdict of enumerating every assignment of the terms."""
    rng = random.Random(2026)
    seen = {}
    for case in range(3000):
        facts = []
        for _ in range(rng.randint(0, 5)):
            x, y = rng.choice(KERNEL_POOL), rng.choice(KERNEL_POOL)
            facts.append((x, y, rng.randrange(2)))
        con = None
        if rng.random() < 0.75:
            terms = rng.sample(KERNEL_POOL, rng.randint(1, 5))
            con = certificates.QConstraint(
                tuple((t, rng.randint(1, 3), rng.random() < 0.7) for t in terms),
                frozenset(w for w in range(10) if rng.random() < 0.4),
                rng.random() < 0.5)
        claim = _random_claim(rng)
        edge = certificates._claim_edge(claim, CTX137)
        try:
            got = certificates._deduce_claim(claim, CTX137, con, facts)
            verdict = "forced" if got == edge else KERNEL_VERDICTS[got]
        except CertificateError as e:
            assert "too many undetermined classes" in str(e)
            verdict = "too many classes"
        assert verdict == _oracle_verdict(edge, con, facts), (case, claim, con, facts)
        seen[verdict] = seen.get(verdict, 0) + 1
    assert set(seen) == {"forced", "not forced", "contradicted", "no survivor",
                         "contradictory facts", "too many classes"}, seen


# -- certificates ----------------------------------------------------------------

def test_certificate_roundtrip_b0():
    cert = gen_certificate(CTX137)
    assert cert.conclusion == "tame_base"
    assert verify_certificate(cert, T13).ok
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert verify_certificate(again, T13).ok


def test_certificate_b0_245():
    cert = gen_certificate(CTX245)
    assert verify_certificate(cert, T24).ok


def test_certificate_rejects_wrong_template():
    cert = gen_certificate(CTX137)
    wrong = template((B("exact", 1, 3), B("full", 3)))
    result = verify_certificate(cert, wrong)
    assert not result.ok and result.failed_node is not None


def test_certificate_tamper_block_height():
    cert = gen_certificate(ProofContext(1, 3, "4a", 13, 1))
    obj = json.loads(certificate_to_json(cert))
    for node in obj["nodes"]:
        if node["claim"].get("kind") == "tame":
            node["claim"]["blocks"][0] = (node["claim"]["blocks"][0] + 1) % 14
            break
    bad = certificate_from_json(json.dumps(obj))
    result = verify_certificate(bad, T13)
    assert not result.ok and result.failed_node is not None


def test_full_certificate_one_in_three():
    p, cert = find_minimal_p(1, 3, "4a", 1)
    assert p == 13
    assert cert.conclusion == "contradiction"
    assert verify_certificate(cert, T13).ok
    assert_linear_refs(cert)
    # the swapped template is covered by the same certificate
    swapped = template((B("exact", 2, 3), B("nae", 3)))
    assert verify_certificate(cert, swapped).ok


def test_full_certificates_other_cases():
    configs = [("2", 2, 4, 29), ("3", 2, 4, 29), ("1", 2, 5, 31), ("4b", 2, 5, 31)]
    for case, r, s, p in configs:
        ctx = ProofContext(r, s, case, p, 1)
        cert = gen_certificate(ctx)
        assert cert.conclusion == "contradiction"
        assert verify_certificate(cert, canonical_template(ctx)).ok, (case, r, s)
        assert_linear_refs(cert)


# the README's minimal-p cases, at b = 1
README_CASES = [(1, 3, "4a", 13, 1), (2, 4, "4a", 29, 1), (2, 4, "2", 29, 1),
                (2, 4, "3", 29, 1), (2, 5, "1", 31, 1), (2, 5, "4b", 31, 1)]


def _check_as_verified(node, ctx, q_weights, edges, has_neq):
    """One node's check as `verify_certificate` runs it, after the nodes
    whose edges are given: a malformed node is a reason too."""
    try:
        return certificates._check_node(node, ctx, q_weights, edges, has_neq)
    except (KeyError, TypeError, ValueError) as e:
        return f"malformed node: {e}"


@pytest.mark.parametrize("args", README_CASES)
def test_every_hint_is_needed(args):
    """Each node's refs are exactly the facts its rule uses: dropping any
    one of them makes the verifier reject that very node.  The cut node is
    checked against the edges of the nodes before it, which pass
    unchanged, so that is where the verifier stops."""
    ctx = ProofContext(*args)
    cert = gen_certificate(ctx)
    q_weights, has_neq = certificates._match_template(ctx, ctx.canonical_template())
    edges, dropped = [], 0
    for node in cert.nodes:
        for j in range(len(node.refs)):
            fewer = dataclasses.replace(node, refs=node.refs[:j] + node.refs[j + 1:])
            got = _check_as_verified(fewer, ctx, q_weights, edges, has_neq)
            assert type(got) is str, (node.id, node.refs[j])
            dropped += 1
        edges.append(_check_as_verified(node, ctx, q_weights, edges, has_neq))
        assert type(edges[-1]) is tuple, node.id
    assert dropped > len(cert.nodes)


def test_path_refs_certificate_still_verifies():
    """A certificate whose chain nodes list whole fact paths in their refs
    (the shape written before closure lemmas) is still a proof."""
    text = (Path(__file__).parent / "data" / "cert_1in3_p7_b0_path_refs.json").read_text()
    cert = certificate_from_json(text)
    assert max(len(n.refs) for n in cert.nodes) > 4
    assert verify_certificate(cert, T13).ok
    assert verify_certificate(cert, T13.swap01()).ok
    for weak in (B("atmost", 2, 3), B("atleast", 1, 3)):
        result = verify_certificate(cert, template((B("exact", 1, 3), weak)))
        assert not result.ok and result.failed_node is not None


FIXTURE_P13 = Path(__file__).parent / "data" / "cert_1in3_p13_b1_unused_closures.json"


def test_certificate_with_unused_closures_still_verifies():
    """A certificate that also holds nodes its conclusion never reads (a
    forced closure for every index 0..2a, the shape written before they
    were emitted only when cited) is still a proof, of the same templates."""
    cert = certificate_from_json(FIXTURE_P13.read_text())
    forced = [n for n in cert.nodes if n.claim["kind"] == "forced"]
    assert len(forced) == 2 * cert.context.a + 1
    assert verify_certificate(cert, T13).ok
    assert verify_certificate(cert, T13.swap01()).ok
    for weak in (B("atmost", 2, 3), B("atleast", 1, 3)):
        result = verify_certificate(cert, template((B("exact", 1, 3), weak)))
        assert not result.ok and result.failed_node is not None


def test_generation_states_only_what_the_fuller_certificate_proved():
    """Deriving only the cited step-one indices, on demand, and stating each
    claim against the root, drops nodes, renumbers refs and changes the
    chain's tuples and claims.  Still, every claim follows by parity closure
    from the claims of the fuller p = 13 certificate (the whole chain,
    closure lemmas and every forced closure), and every node other than a
    plausible1d one is a (claim, justification) pair that it held."""
    old = certificate_from_json(FIXTURE_P13.read_text())
    ctx = old.context
    pairs = {json.dumps([node.claim, node.justify], sort_keys=True) for node in old.nodes}
    edges = [certificates._claim_edge(node.claim, ctx) for node in old.nodes]
    cert = gen_certificate(ProofContext(1, 3, "4a", 13, 1))
    assert len(cert.nodes) < len(old.nodes)
    for node in cert.nodes:
        if node.justify["tag"] != "plausible1d":
            assert json.dumps([node.claim, node.justify], sort_keys=True) in pairs, node.id
        x, y, parity = certificates._claim_edge(node.claim, ctx)
        assert _parity_closure(edges, x, y) == parity, node.id


@functools.lru_cache(maxsize=None)
def _swept_certificates() -> tuple:
    """(context, nodes) for each certificate that tools/cert_sweep.py
    generates at p < 32."""
    swept = []
    for ctx in _load_cert_sweep().contexts(32):
        try:
            swept.append((ctx, gen_certificate(ctx).nodes))
        except GenerationError:
            pass
    return tuple(swept)


def test_swept_certificates_hold_only_what_their_conclusion_reads():
    """Over the sweep's contexts with p < 32: at b >= 1 every node is reached
    through refs from a boundedness node; at b = 0, whose conclusion reads
    every claim, no claim is a forced closure and every closure lemma is
    cited by a later node."""
    checked = {0: 0, 1: 0}
    for ctx, nodes in _swept_certificates():
        if ctx.b == 0:
            cited = {rid for node in nodes for rid in node.refs}
            assert all(node.claim["kind"] != "forced" for node in nodes), ctx
            assert all(node.id in cited for node in nodes
                       if node.justify["tag"] == "closure"), ctx
        else:
            reached = {node.id for node in nodes if node.justify["tag"] == "boundedness"}
            for node in reversed(nodes):
                if node.id in reached:
                    reached.update(node.refs)
            assert reached == set(range(len(nodes))), ctx
        checked[min(ctx.b, 1)] += 1
    assert checked == {0: 52, 1: 26}  # 78 certificates, as in the sweep's pin


def test_swept_certificates_state_every_relation_against_the_root():
    """Over the sweep's contexts with p < 32, every chain claim relates its
    new term straight to the root of its class, so no closure lemma is
    needed: no closure node relates two terms (only the forced closures
    that double_cyclicity nodes cite remain), and no node cites more than
    three facts."""
    swept = _swept_certificates()
    assert len(swept) == 78
    for ctx, nodes in swept:
        for node in nodes:
            if node.justify["tag"] == "closure":
                assert node.claim["kind"] == "forced", (ctx, node.id)
            assert len(node.refs) <= 3, (ctx, node.id)


@pytest.mark.parametrize("args", [(2, 4, "4a", 5, 1), (2, 4, "4a", 13, 1)])
def test_halving_that_falls_back_leaves_nothing_behind(monkeypatch, args):
    """In these contexts a halving names terms and emits nodes, 10 and 16 of
    them, before one of its subproofs fails.  Every halving attempt that
    falls back leaves the nodes and the three dicts as they were before
    it: the completion tried next finds them unchanged.  Generation still
    ends in a GenerationError."""
    builder = certificates._CertBuilder
    emitted = []
    tried = {}  # blocks -> (state, emitted count) when their halving was tried
    fell_back = []  # (state unchanged, nodes emitted during the attempt)

    def state(cb):
        return (list(cb.nodes), list(cb.up.items()), list(cb.forced_ids.items()),
                list(cb.tame_ids.items()))

    def emit(self, *args, emit=builder.emit):
        emitted.append(None)
        return emit(self, *args)

    def try_halving(self, blocks, depth, try_halving=builder._try_halving):
        tried[blocks] = state(self), len(emitted)
        return try_halving(self, blocks, depth)

    def flip(self, blocks, depth, flip=builder._flip):
        if blocks in tried:
            before, start = tried.pop(blocks)
            fell_back.append((state(self) == before, len(emitted) - start))
        return flip(self, blocks, depth)

    for name, watched in (("emit", emit), ("_try_halving", try_halving), ("_flip", flip)):
        monkeypatch.setattr(builder, name, watched)
    with pytest.raises(GenerationError):
        gen_certificate(ProofContext(*args))
    assert any(n for _, n in fell_back)
    assert all(same for same, _ in fell_back)


def test_generation_reports_small_p():
    with pytest.raises(GenerationError):
        gen_certificate(ProofContext(1, 3, "4a", 7, 1))


def test_chain_that_misses_an_index_is_a_small_p(monkeypatch):
    """Step one names each index by a derivation that finds a plausible
    tuple forcing it, or raises a GenerationError naming the index: at
    b = 0 for each of 0..2a in turn, and at b = 1 for each index `forced`
    is asked for.  Generation falls back from a halving to a completion
    when a derivation fails, and names both causes; no run reaches the
    self-check."""
    # every split puts its whole budget on one entry, so 0 is on k's side
    # in every split of a k below the threshold
    monkeypatch.setattr(certificates, "_near_equal",
                        lambda total, parts: [total] + [0] * (parts - 1))
    with pytest.raises(GenerationError, match=r"^no plausible tuple forces \('sigma', 17\)$"):
        gen_certificate(ProofContext(1, 3, "4a", 7, 0))
    ctx = ProofContext(1, 3, "4a", 13, 1)
    with pytest.raises(GenerationError, match=r"^no plausible tuple forces \('sigma', 0\)$"):
        certificates._CertBuilder(ctx).forced(0)
    with pytest.raises(GenerationError, match=r"no plausible tuple forces \('sigma', \d+\)"):
        gen_certificate(ctx)


@pytest.mark.parametrize("args", ONE_PER_CASE)
def test_forced_derives_any_index_on_demand(args):
    """At b >= 1 `forced` names u_k for any 0 <= k <= n, past the step-one
    range 0..2a too, at the tame parity against u_0, and every node it emits
    passes its check.  So ensure_tame needs no guard on the block sum of a
    step <= 1 rectangle: an index no tuple forces is the derivation's own
    GenerationError."""
    ctx = ProofContext(*args[:4], 1)
    builder = certificates._CertBuilder(ctx)
    ks = (0, 1, ctx.a, ctx.a + 1, 2 * ctx.a, 2 * ctx.a + 1, ctx.n)
    for k in ks:
        builder.forced(k)
    q_weights, has_neq = certificates._match_template(ctx, ctx.canonical_template())
    edges = []
    for node in builder.nodes:
        edges.append(certificates._check_node(node, ctx, q_weights, edges, has_neq))
        assert type(edges[-1]) is tuple, (node.id, edges[-1])
    forced = {node.claim["k"]: node.claim["bit"] for node in builder.nodes
              if node.claim["kind"] == "forced"}
    assert forced == {k: int(k > ctx.a) for k in ks}


# the most plausible1d and negation nodes a b >= 1 certificate holds, per
# log2(p^2): the worst of tools/cert_sweep.py (p < 80, b <= 2) is 4.44, at
# (1-in-3, NAE-3), p = 79, b = 2
STEP_ONE_NODES_PER_LOG = 4.5


def test_step_one_nodes_grow_with_log_p():
    """At b >= 1 only the cited step-one indices are derived, each by a
    recursion that contracts toward the threshold, so the step-one nodes
    number at most c * log2(p^2), c = STEP_ONE_NODES_PER_LOG: over the
    sweep's certificates with p < 32 and at larger p.  Generating and
    verifying the p = 199 certificate, which held 14,289 nodes when the
    whole chain was kept, takes a small fraction of a second."""
    swept = [(ctx, nodes) for ctx, nodes in _swept_certificates() if ctx.b]
    start = time.process_time()
    for args in [(1, 3, "4a", 79, 2), (1, 3, "4a", 199, 1), (1, 3, "4a", 409, 1)]:
        ctx = ProofContext(*args)
        cert = certificate_from_json(certificate_to_json(gen_certificate(ctx)))
        assert verify_certificate(cert, T13).ok
        swept.append((ctx, cert.nodes))
    assert time.process_time() - start < 0.5
    assert len(swept) == 26 + 3
    for ctx, nodes in swept:
        step_one = sum(node.justify["tag"] in ("plausible1d", "negation") for node in nodes)
        assert step_one <= STEP_ONE_NODES_PER_LOG * math.log2(ctx.p ** 2), (ctx, step_one)


# -- the one self-check ----------------------------------------------------------

@pytest.mark.parametrize("args", ONE_PER_CASE)
def test_generation_checks_each_node_once(monkeypatch, args):
    """The final verify_certificate is the only check generation runs: one
    _check_node call per node, in order, and no propagation pass."""
    checked, propagated = [], []
    check_node = certificates._check_node
    monkeypatch.setattr(certificates, "_check_node",
                        lambda node, *rest: checked.append(node.id) or check_node(node, *rest))
    monkeypatch.setattr(certificates, "propagate", lambda *a: propagated.append(a))
    cert = gen_certificate(ProofContext(*args))
    assert checked == list(range(len(cert.nodes)))
    assert propagated == []


@pytest.mark.parametrize("args", ONE_PER_CASE)
def test_verification_parses_each_claim_once(monkeypatch, args):
    """verify_certificate reads each node's claim once, in order: the edge
    the check derives is the fact that later nodes cite.  A whole
    generation parses no more than that, because the builder links the
    edge it built each claim from."""
    parsed = []
    claim_edge = certificates._claim_edge
    monkeypatch.setattr(certificates, "_claim_edge",
                        lambda claim, ctx: parsed.append(claim) or claim_edge(claim, ctx))
    cert = gen_certificate(ProofContext(*args))
    assert parsed == [node.claim for node in cert.nodes]
    parsed.clear()
    assert verify_certificate(cert, cert.context.canonical_template()).ok
    assert parsed == [node.claim for node in cert.nodes]


def test_replay_names_the_first_contradicting_claim(monkeypatch):
    """A node's check reads only its refs, so a claim can pass it and still
    contradict an earlier node; the tame_base replay names the first such
    claim.  The check is let through for the appended nodes: a restatement
    of the first distinct claim, then two negations of it."""
    cert = gen_certificate(ProofContext(1, 3, "4a", 13, 0))
    assert cert.conclusion == "tame_base" and len(cert.nodes) > 50
    claim = next(node.claim for node in cert.nodes if node.claim["kind"] == "distinct")
    negated = {**claim, "kind": "equal"}
    n = len(cert.nodes)
    extra = [certificates.Node(n + i, c, {"tag": "closure"}, ())
             for i, c in enumerate([claim, negated, negated])]
    cert = dataclasses.replace(cert, nodes=cert.nodes + tuple(extra))
    check_node = certificates._check_node
    monkeypatch.setattr(certificates, "_check_node",
                        lambda node, ctx, *rest: certificates._claim_edge(node.claim, ctx)
                        if node.id >= n else check_node(node, ctx, *rest))
    result = verify_certificate(cert, T13)
    assert (result.ok, result.failed_node, result.reason) == (
        False, n + 1, "claims are mutually inconsistent")


def test_pigeonhole_interval_leaves_out_height_zero():
    """At (2-in-5) case 1, p = 11, b = 3, theta*p - 2b = -1/2 and the
    interval starts at 1.  Any b + 1 admissible heights give the
    contradiction, so the smaller set is kept."""
    ctx = ProofContext(2, 5, "1", 11, 3)
    assert ctx.theta * ctx.p - 2 * ctx.b == Fraction(-1, 2)
    assert certificates._pigeonhole_interval(ctx) == range(1, 6)


@pytest.mark.parametrize("args", ONE_PER_CASE + [(2, 4, "4a", 5, 0)])
def test_finale_height_is_the_largest_below_the_threshold(args):
    """On every height 0 <= z2 < theta*p, where it is defined."""
    ctx = ProofContext(*args)
    p, m = ctx.p, (ctx.p - 1) // 2
    for z2 in range(math.ceil(ctx.theta * p)):
        below = [z1 for z1 in range(p + 1)
                 if area((z1,) * m + (z2,) * (p - m), p) < ctx.theta]
        assert certificates._finale_heights(ctx, z2) == max(below)


@pytest.fixture
def first_distinct_claim_broken(monkeypatch):
    """Generation writes `equal` where its first case-4a chain node claims
    `distinct`, so that node is unsound."""
    calls = []
    distinct = certificates.claim_distinct

    def broken(x, y):
        calls.append((x, y))
        return (certificates.claim_equal if len(calls) == 1 else distinct)(x, y)

    monkeypatch.setattr(certificates, "claim_distinct", broken)


def test_failed_self_check_exits_3(first_distinct_claim_broken, capsys):
    capsys.readouterr()
    out = io.StringIO()
    code = run(["certify", "-r", "1", "-s", "3", "--case", "4a", "-p", "7", "-b", "0"], out)
    err = capsys.readouterr().err.splitlines()
    assert (code, out.getvalue()) == (3, "")
    assert len(err) == 1 and err[0].startswith("error: "), err
    # the node's index, its claim and its justification tag
    assert "at node 0 (claim {'kind': 'equal', 'a': {'sigma': 16}, 'b': {'sigma': 17}}, " \
           "justification 'plausible1d')" in err[0], err[0]


def test_failed_self_check_is_not_a_small_p(first_distinct_claim_broken):
    """find_minimal_p skips a p that is too small, but not a generator bug."""
    with pytest.raises(InternalCheckError, match="at node 0 "):
        find_minimal_p(1, 3, "4a", 0)


@pytest.mark.parametrize("args, size", [((1, 3, "4a", 7, 0), 33), ((1, 3, "4a", 13, 1), 26)])
def test_size_cap_is_what_the_generator_writes(monkeypatch, args, size):
    """At b = 0 the cap bounds the 2a + 1 step-one nodes; at b >= 1 the 2p
    block entries of each boundedness node.  A context exactly at the cap
    is generated, one past it is refused before any node is built."""
    ctx = ProofContext(*args)
    monkeypatch.setattr(certificates, "MAX_GENERATED", size)
    cert = gen_certificate(ctx)
    if ctx.b:
        bounded = [n for n in cert.nodes if n.justify["tag"] == "boundedness"]
        assert 2 * ctx.p * len(bounded) == size
    else:
        assert len(cert.nodes) <= size == 2 * ctx.a + 1
    monkeypatch.setattr(certificates, "MAX_GENERATED", size - 1)
    with pytest.raises(CertificateError, match=f"certificate needs {size} "):
        gen_certificate(ctx)
    # find_minimal_p passes over a refused p as over an unworkable one
    with pytest.raises(GenerationError, match=f"p={ctx.p}: certificate needs {size} "):
        find_minimal_p(*args[:3], ctx.b, p_limit=ctx.p)


FIXTURE_P7 = Path(__file__).parent / "data" / "cert_1in3_p7_b0_path_refs.json"


@pytest.mark.parametrize("field,reason", [("claim", "claim is not a JSON object"),
                                          ("justify", "justification is not a JSON object")])
def test_node_that_is_not_an_object_is_invalid_there(field, reason):
    obj = json.loads(FIXTURE_P7.read_text())
    for i in (0, 5, len(obj["nodes"]) - 1):
        for value in (None, 1, True, "x", [], [obj["nodes"][i][field]]):
            mutated = json.loads(json.dumps(obj))
            mutated["nodes"][i][field] = value
            result = verify_certificate(certificate_from_json(json.dumps(mutated)), T13)
            assert (result.ok, result.failed_node, result.reason) == (False, i, reason)


def test_checker_bug_exits_3(tmp_path, monkeypatch, capsys):
    """Only KeyError, TypeError and ValueError mean a malformed node; any
    other exception inside the checker is a bug, not a rejection."""
    def broken(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(certificates, "is_plausible_1d", broken)
    tpath = tmp_path / "t.tmpl"
    tpath.write_text("template\npair rin 1 3 nae 3\nend\n", encoding="utf-8")
    capsys.readouterr()
    out = io.StringIO()
    code = run(["verify", str(FIXTURE_P7), "-t", str(tpath)], out)
    err = capsys.readouterr().err.splitlines()
    assert (code, out.getvalue()) == (3, "")
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "node 0" in err[0] and "ZeroDivisionError" in err[0], err[0]


def test_near_threshold_flag():
    ctx = ProofContext(1, 3, "4a", 13, 1)
    zb1 = (5,) * 6 + (3,) * 7
    zb2 = (5,) * 6 + (4,) * 7
    assert near_threshold(zb1, ctx) and near_threshold(zb2, ctx)
    assert not near_threshold((13,) * 6 + (0,) * 7, ctx)


# -- coherence with concrete functions at p = 3 -----------------------------------
#
# No bounded doubly cyclic polymorphism exists at p = 3 for these templates,
# so the engine's conclusions cannot be compared to real polymorphisms.  The
# construction steps, however, are statements about arbitrary cyclic or
# doubly cyclic functions, and those exist in abundance.

def _random_cyclic_bool(rng, n):
    from pcsp.polymorphisms import function_from_callable

    values = {}

    def val(xs):
        orbit = min(tuple(xs[i:] + xs[:i]) for i in range(n))
        if orbit not in values:
            values[orbit] = rng.randrange(2)
        return values[orbit]

    return function_from_callable(n, lambda xs: val(tuple(xs)))


def test_stagger_rows_are_shifts_for_cyclic_functions(rng):
    """Row i of the one-dimensional stagger has the same value as the plain
    k_i-run under any cyclic function: the symbolic engine's row/value
    identification checked on twenty concrete functions."""
    ctx = StaggerParams(1, 3, "4a", 3)  # p=3 keeps tables materializable
    for _ in range(20):
        f = _random_cyclic_bool(rng, 9)
        ks = _pick_plausible(ctx, rng)
        matrix, _ = build_shift_matrix_1d(ks, ctx)
        for row, k in zip(matrix, ks):
            run = tuple([1] * k + [0] * (ctx.n - k))
            assert f(row) == f(run)


def _pick_plausible(ctx, rng):
    while True:
        a = rng.randint(0, ctx.n)
        b = rng.randint(0, ctx.n - a if ctx.n - a >= 0 else 0)
        c = ctx.r * ctx.n - a - b
        if 0 <= c <= ctx.n:
            return [a, b, c]


def test_glued_rows_are_blockwise_shifts_for_doubly_cyclic(rng):
    """Rows of the two-dimensional stagger agree with the original block
    tuples under any doubly cyclic function."""
    from pcsp.polymorphisms import function_from_callable

    ctx = StaggerParams(1, 3, "4a", 3)
    p = 3

    def materialize(blocks):
        return tuple(v for k in blocks for v in [1] * k + [0] * (p - k))

    for _ in range(20):
        # doubly cyclic: constant on orbits of in-block and block rotations
        values = {}

        def orbit(xs):
            blocks = [tuple(xs[j * p:(j + 1) * p]) for j in range(p)]
            best = None
            for shift in range(p):
                rot = blocks[shift:] + blocks[:shift]
                for inner in range(p ** p):
                    cand = []
                    q = inner
                    for blk in rot:
                        i = q % p
                        q //= p
                        cand.extend(blk[i:] + blk[:i])
                    cand = tuple(cand)
                    if best is None or cand < best:
                        best = cand
            return best

        def val(xs):
            key = orbit(tuple(xs))
            if key not in values:
                values[key] = rng.randrange(2)
            return values[key]

        t = function_from_callable(9, lambda xs: val(tuple(xs)))
        fam = random_plausible_2d(ctx, rng)
        matrix, _ = build_shift_matrix_2d(fam, ctx)
        for row, blocks in zip(matrix, fam):
            assert t(row) == t(materialize(blocks))


def test_generation_honest_under_paper_preset():
    """The paper's own window constants put certificates out of desk reach;
    the generator must say so rather than emit something weaker."""
    with pytest.raises(GenerationError):
        find_minimal_p(1, 3, "4a", 1, preset="paper", p_limit=60)


def _loose_mutations(obj):
    """(node id, mutated certificate) pairs whose loose field values used to
    be coerced into a valid proof: claim bits read as bit & 1, refs, node
    ids, tuple entries and claim indices read by int(), and twin flags read
    by bool()."""
    nodes = obj["nodes"]

    def at(i, edit):
        mutated = json.loads(json.dumps(obj))
        edit(mutated["nodes"][i])
        return i, mutated

    def set_in(key, field, value):
        return lambda nd: nd[key].__setitem__(field, value)

    bit1 = next(i for i, nd in enumerate(nodes) if nd["claim"].get("bit") == 1)
    bit0 = next(i for i, nd in enumerate(nodes) if nd["claim"].get("bit") == 0)
    for value in (-1, True, 10 ** 18 + 9):
        yield at(bit1, set_in("claim", "bit", value))
    yield at(bit0, set_in("claim", "bit", False))
    with_ref1 = next(i for i, nd in enumerate(nodes) if 1 in nd["refs"])
    for value in (1.5, True):
        yield at(with_ref1, lambda nd, v=value: nd.__setitem__(
            "refs", [v if r == 1 else r for r in nd["refs"]]))
    for value in (1.0, True, "1"):
        yield at(1, lambda nd, v=value: nd.__setitem__("id", v))
    tup = next(i for i, nd in enumerate(nodes) if nd["justify"]["tag"] == "plausible1d")
    yield at(tup, lambda nd: nd["justify"].__setitem__(
        "tuples", [[k + 0.5 for k in nd["justify"]["tuples"][0]]]))
    forced = next(i for i, nd in enumerate(nodes) if nd["claim"]["kind"] == "forced")
    yield at(forced, set_in("claim", "k", 0.0))
    i = next(i for i, nd in enumerate(nodes)
             if nd["justify"]["tag"] == "plausible1d" and nd["justify"]["twin"] is False)
    for value in (0, [], {}, None):
        yield at(i, set_in("justify", "twin", value))
    yield at(i, lambda nd: nd["justify"].pop("twin"))


def test_loose_field_values_are_invalid():
    fixture = (Path(__file__).parent / "data" / "cert_1in3_p7_b0_path_refs.json").read_text()
    fresh = certificate_to_json(gen_certificate(ProofContext(1, 3, "4a", 13, 1)))
    tags = set()
    count = 0
    for text in (fixture, fresh):
        obj = json.loads(text)
        assert verify_certificate(certificate_from_json(text), T13).ok
        tags.update(nd["justify"]["tag"] for nd in obj["nodes"])
        for i, mutated in _loose_mutations(obj):
            result = verify_certificate(certificate_from_json(json.dumps(mutated)), T13)
            assert not result.ok and result.failed_node == i, (i, mutated["nodes"][i])
            count += 1
    assert {"plausible1d", "halving", "completion"} <= tags
    assert count == 2 * 11 + 2 * 5


def _int_leaves(value, path=()):
    """Paths to the integers inside a JSON value (first list entry only)."""
    if type(value) is int:
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _int_leaves(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from _int_leaves(value[0], path + (0,))


@pytest.mark.parametrize("ctx,tags", [
    (ProofContext(1, 3, "4a", 13, 1), {"plausible1d", "closure", "double_cyclicity",
                                       "halving", "completion", "boundedness"}),
    (ProofContext(2, 5, "1", 31, 1), {"plausible1d", "negation", "closure", "double_cyclicity",
                                      "halving", "completion", "boundedness"}),
])
def test_every_integer_field_is_read_strictly(ctx, tags):
    """Writing any integer of a node as a float (or a 0/1 as a bool) makes
    the verifier reject that very node."""
    obj = json.loads(certificate_to_json(gen_certificate(ctx)))
    t = ctx.canonical_template()
    seen = set()
    for i, nd in enumerate(obj["nodes"]):
        for path in _int_leaves(nd):
            if (nd["justify"]["tag"], path) in seen:
                continue
            seen.add((nd["justify"]["tag"], path))
            mutated = json.loads(json.dumps(obj))
            holder = mutated["nodes"][i]
            for key in path[:-1]:
                holder = holder[key]
            value = holder[path[-1]]
            for loose in [float(value)] + ([bool(value)] if value in (0, 1) else []):
                holder[path[-1]] = loose
                result = verify_certificate(certificate_from_json(json.dumps(mutated)), t)
                assert not result.ok and result.failed_node == i, (i, path, loose)
    assert {tag for tag, _ in seen} == tags


def test_huge_b_is_refused_at_once():
    """The pigeonhole interval is computed, not listed: b = 10^9 at p = 7
    fails generation without walking about 2*10^9 integers."""
    import time

    start = time.process_time()
    with pytest.raises(GenerationError, match="p too small for b"):
        gen_certificate(ProofContext(1, 3, "4a", 7, 10 ** 9))
    assert time.process_time() - start < 0.5


def test_context_refuses_p_beyond_exact_primality():
    from pcsp.certificates import MAX_PRIME
    p = MAX_PRIME + next(d for d in range(3) if (MAX_PRIME + d) % 3 == 1)
    with pytest.raises(CertificateError, match="primality test is exact"):
        ProofContext(1, 3, "4a", p, 0)
    assert ProofContext(1, 3, "4a", 2 ** 61 - 1, 0).p == 2 ** 61 - 1
    with pytest.raises(CertificateError, match="not prime"):
        ProofContext(1, 3, "4a", 3215031751, 0)  # strong pseudoprime to bases 2, 3, 5, 7
