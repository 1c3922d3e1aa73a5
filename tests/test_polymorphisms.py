import random

import pytest

from pcsp.polymorphisms import (BlockEquivalence, BoolFunction, FunctionError,
                                H1Identity, MinorMap, alternating_threshold,
                                compose_eq1, constant_function, derive_sim,
                                enumerate_doubly_cyclic_polymorphisms,
                                enumerate_polymorphisms, format_function,
                                function_from_callable, is_b_bounded, is_cyclic,
                                is_doubly_cyclic, is_polymorphism,
                                majority_function, make_function, minor,
                                pack_args, parity_function, parse_function,
                                projection, satisfies_h1, sigma_transform,
                                unpack_index)
from pcsp.structures import build_family
from conftest import NEQ, template, with_neq


def random_function(rng, arity, domain_size=2):
    return make_function(arity, [rng.randrange(domain_size)
                                 for _ in range(domain_size ** arity)], domain_size)


def random_cyclic(rng, p, domain_size=2):
    """Random function invariant under argument rotation."""
    values = {}
    for idx in range(domain_size ** p):
        args = []
        x = idx
        for _ in range(p):
            args.append(x % domain_size)
            x //= domain_size
        args = tuple(reversed(args))
        orbit = min(args[i:] + args[:i] for i in range(p))
        if orbit not in values:
            values[orbit] = rng.randrange(domain_size)
    def val(xs):
        orbit = min(tuple(xs[i:] + xs[:i]) for i in range(len(xs)))
        return values[orbit]
    return function_from_callable(p, lambda xs: val(tuple(xs)), domain_size)


# -- minors ------------------------------------------------------------------

def test_minor_projection_composition():
    f = projection(2, 0)
    g = minor(f, MinorMap(2, 1, (0, 0)))
    assert g.table == projection(1, 0).table


def test_minor_majority_absorption():
    g = minor(majority_function(3), MinorMap(3, 2, (0, 0, 1)))
    assert g.table == projection(2, 0).table


def test_minor_composition_law(rng):
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        f = random_function(rng, m)
        pi = MinorMap(m, n, tuple(rng.randrange(n) for _ in range(m)))
        rho = MinorMap(n, k, tuple(rng.randrange(k) for _ in range(n)))
        lhs = minor(minor(f, pi), rho)
        rhs = minor(f, pi.compose(rho))
        assert lhs.table == rhs.table


def _minor_by_definition(f, pi):
    """g(xs) = f(xs[pi(0)], ..., xs[pi(m-1)]), one target entry at a time."""
    d = f.domain_size
    out = []
    for i in range(d ** pi.target_arity):
        xs = unpack_index(i, pi.target_arity, d)
        out.append(f.value_at(pack_args([xs[v] for v in pi.mapping], d)))
    return out


def test_minor_matches_definition(rng):
    kinds = set()
    for d in (2, 3, 4):
        for m, n in [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(60)]:
            f = random_function(rng, m, d)
            pi = MinorMap(m, n, tuple(rng.randrange(n) for _ in range(m)))
            used = len(set(pi.mapping))
            kinds.add((used < m, used < n))  # (identifies variables, has dummies)
            g = minor(f, pi)
            assert (g.arity, g.domain_size) == (n, d)
            assert [g.value_at(i) for i in range(g.size)] == _minor_by_definition(f, pi)
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
    # tables large enough that the gather reads them through several views
    for d, m, n in ((2, 11, 10), (2, 9, 10), (3, 7, 6), (4, 5, 5)):
        f = random_function(rng, m, d)
        pi = MinorMap(m, n, tuple(rng.randrange(n) for _ in range(m)))
        g = minor(f, pi)
        assert [g.value_at(i) for i in range(g.size)] == _minor_by_definition(f, pi)


def test_minor_arity_mismatch():
    with pytest.raises(FunctionError):
        minor(majority_function(3), MinorMap(2, 2, (0, 1)))


# -- h1 identities -----------------------------------------------------------

def test_h1_majority_cyclic_identity():
    maj = majority_function(3)
    ident = H1Identity(0, (0, 1, 2), 0, (2, 0, 1))
    assert satisfies_h1(maj, maj, ident)


def test_h1_projection_not_symmetric():
    p1 = projection(2, 0)
    assert not satisfies_h1(p1, p1, H1Identity(0, (0, 1), 0, (1, 0)))


def test_h1_reflexivity(rng):
    for _ in range(20):
        f = random_function(rng, 3)
        pattern = tuple(rng.randrange(3) for _ in range(3))
        assert satisfies_h1(f, f, H1Identity(0, pattern, 0, pattern))


def test_h1_cross_function():
    # f(x,y,x) ~ g(y,x,x,z) with both sides the constant-1 function
    f = constant_function(3, 1)
    g = constant_function(4, 1)
    assert satisfies_h1(f, g, H1Identity(0, (0, 1, 0), 1, (1, 0, 0, 2)))


# -- polymorphisms -----------------------------------------------------------

def test_parity_is_parity_polymorphism():
    t = with_neq(build_family("odd", 3), build_family("odd", 3))
    assert is_polymorphism(parity_function(3), t)


def test_alternating_threshold_polymorphism():
    t = template((build_family("exact", 1, 3), build_family("nae", 3)))
    assert is_polymorphism(alternating_threshold(3), t)
    assert is_polymorphism(alternating_threshold(5), t)


def test_constant_not_polymorphism():
    t = template((build_family("exact", 1, 3), build_family("nae", 3)))
    assert not is_polymorphism(constant_function(3, 1), t)


def test_polymorphism_closed_under_minors(rng):
    t = template((build_family("exact", 1, 3), build_family("nae", 3)))
    polys = list(enumerate_polymorphisms(t, 3))
    for _ in range(30):
        f = rng.choice(polys)
        n = rng.randint(1, 3)
        pi = MinorMap(3, n, tuple(rng.randrange(n) for _ in range(3)))
        assert is_polymorphism(minor(f, pi), t)


def test_enumerate_unary_neq():
    t = template((NEQ, NEQ))
    tables = [f.table for f in enumerate_polymorphisms(t, 1)]
    # identity has table 0b10, negation 0b01
    assert tables == [1, 2]


def test_enumerate_unary_one_in_three():
    t = template((build_family("exact", 1, 3), build_family("nae", 3)))
    tables = [f.table for f in enumerate_polymorphisms(t, 1)]
    naive = [tab for tab in range(4)
             if is_polymorphism(BoolFunction(1, tab), t)]
    assert tables == naive == [1, 2]


def test_enumerate_ternary_matches_exhaustive():
    t = template((build_family("exact", 1, 3), build_family("nae", 3)))
    fast = [f.table for f in enumerate_polymorphisms(t, 3)]
    naive = [tab for tab in range(256) if is_polymorphism(BoolFunction(3, tab), t)]
    assert fast == naive
    assert len(fast) == 36  # frozen count, stable across runs


# -- cyclicity and the square composition ------------------------------------

def test_is_cyclic_basics():
    assert is_cyclic(majority_function(3))
    assert not is_cyclic(projection(3, 0))
    assert is_cyclic(projection(1, 0))


def test_compose_eq1_parity():
    t9 = compose_eq1(parity_function(3), 3)
    assert t9.table == parity_function(9).table


def test_compose_eq1_diagonal_unfolds(rng):
    for d in (2, 3):
        c = random_function(rng, 3, d)
        t = compose_eq1(c, 3)
        for a in range(d):
            inner = c((a, a, a))
            assert t((a,) * 9) == c((inner, inner, inner))


def _compose_by_definition(c, p):
    d = c.domain_size
    out = []
    for i in range(d ** (p * p)):
        xs = unpack_index(i, p * p, d)
        inner = [c.value_at(pack_args(xs[j * p:(j + 1) * p], d)) for j in range(p)]
        out.append(c.value_at(pack_args(inner, d)))
    return out


def test_compose_eq1_matches_definition(rng):
    for d, p, count in ((2, 2, 5), (2, 3, 5), (2, 4, 1), (3, 2, 5), (3, 3, 2), (4, 2, 5)):
        for _ in range(count):
            c = random_function(rng, p, d)
            t = compose_eq1(c, p)
            assert (t.arity, t.domain_size) == (p * p, d)
            assert [t.value_at(i) for i in range(t.size)] == _compose_by_definition(c, p)


def test_compose_eq1_arity_check():
    with pytest.raises(FunctionError):
        compose_eq1(parity_function(3), 4)


def test_doubly_cyclic_examples():
    assert is_doubly_cyclic(parity_function(9), 3)
    assert not is_doubly_cyclic(projection(9, 0), 3)


def test_eq1_gives_doubly_cyclic(rng):
    for d in (2, 3):
        for _ in range(20):
            c = random_cyclic(rng, 3, d)
            assert is_doubly_cyclic(compose_eq1(c, 3), 3)


def test_sigma_involution(rng):
    for _ in range(10):
        t = random_function(rng, 9)
        assert sigma_transform(sigma_transform(t, 3), 3).table == t.table


def test_sigma_of_doubly_cyclic_is_cyclic(rng):
    for d in (2, 3):
        for _ in range(20):
            c = random_cyclic(rng, 3, d)
            assert is_cyclic(sigma_transform(compose_eq1(c, 3), 3))


def test_sigma_moves_generic_function(rng):
    found = False
    for _ in range(20):
        t = random_function(rng, 9)
        if sigma_transform(t, 3).table != t.table:
            found = True
            break
    assert found


# -- boundedness --------------------------------------------------------------

def test_derive_sim_parity():
    sim = derive_sim(parity_function(3))
    assert sim.block_count() == 2
    weight = lambda pat: bin(pat).count("1")
    for blk in sim.blocks:
        parities = {weight(pat) % 2 for pat in blk}
        assert len(parities) == 1


def test_derive_sim_majority_by_enumeration():
    maj = majority_function(3)
    sim = derive_sim(maj)
    # oracle: group patterns by their substituted binary function directly
    groups = {}
    for pat in range(8):
        key = []
        for x in (0, 1):
            for y in (0, 1):
                args = [x if (pat >> (2 - i)) & 1 else y for i in range(3)]
                key.append(maj(args))
        groups.setdefault(tuple(key), set()).add(pat)
    assert set(sim.blocks) == {frozenset(g) for g in groups.values()}
    assert sim.block_count() <= 16


def test_derive_sim_unary():
    sim = derive_sim(projection(1, 0))
    assert sim.block_count() <= 2


def test_b_bounded_pipeline(rng):
    for _ in range(10):
        c = random_cyclic(rng, 3)
        t = compose_eq1(c, 3)
        assert is_b_bounded(t, 3, derive_sim(c))


def test_b_bounded_rejects_coarse_partition():
    sim = BlockEquivalence(3, (frozenset(range(8)),))
    assert not is_b_bounded(parity_function(9), 3, sim)


def test_b_bounded_rejects_one_flipped_entry(rng):
    """Flip one entry that a single equivalent-pattern swap reaches, at every
    block position and every (x, y) with x != y: each flip must be caught.

    Besides derive_sim's partition, the flips are checked against a partition
    that merges only the swapped pair a ~ b, chosen so that {~a, ~b} misses
    it and the other positions hold neither a nor b nor their complements.
    Then the flipped entry is reached by exactly one swap (one position, one
    (x, y), one choice of the other patterns), so a check that skips any of
    them misses a case.
    """
    p = 3
    full = 2 ** p - 1
    for d in (2, 3):
        c = random_cyclic(rng, p, d)
        t = compose_eq1(c, p)
        sim = derive_sim(c)
        assert is_b_bounded(t, p, sim)
        pairs = [(a, b) for blk in sim.blocks for a in blk for b in blk
                 if a != b and not {full ^ a, full ^ b} & {a, b}]
        assert pairs  # a cyclic c puts the rotations 1, 2, 4 in one block
        values = [t.value_at(i) for i in range(t.size)]
        for pos in range(p):
            for x in range(d):
                for y in range(d):
                    if x == y:
                        continue
                    for _ in range(3):
                        a, b = rng.choice(pairs)
                        lone = BlockEquivalence(p, (frozenset((a, b)),) + tuple(
                            frozenset([q]) for q in range(2 ** p) if q not in (a, b)))
                        assert is_b_bounded(t, p, lone)
                        others = [q for q in range(2 ** p)
                                  if q not in (a, b, full ^ a, full ^ b)]
                        pats = [rng.choice(others) for _ in range(p)]
                        pats[pos] = rng.choice((a, b))
                        args = [x if (pat >> (p - 1 - i)) & 1 else y
                                for pat in pats for i in range(p)]
                        flipped = list(values)
                        idx = pack_args(args, d)
                        flipped[idx] = (flipped[idx] + 1) % d
                        bad = make_function(p * p, flipped, d)
                        assert not is_b_bounded(bad, p, sim), (d, pos, x, y)
                        assert not is_b_bounded(bad, p, lone), (d, pos, x, y)


def test_b_bounded_singletons_trivial():
    sim = BlockEquivalence(3, tuple(frozenset([p]) for p in range(8)))
    t = compose_eq1(majority_function(3), 3)
    assert is_b_bounded(t, 3, sim)


def test_every_symmetric_function_is_cyclic(rng):
    for _ in range(10):
        vals = {}
        def sym(xs):
            key = tuple(sorted(xs))
            if key not in vals:
                vals[key] = rng.randint(0, 1)
            return vals[key]
        f = function_from_callable(4, sym)
        assert is_cyclic(f)


def test_doubly_cyclic_enumeration_at_p3_is_empty():
    t = template((build_family("exact", 1, 3), build_family("nae", 3)))
    assert enumerate_doubly_cyclic_polymorphisms(t, 3) == []


def test_function_file_round_trip(rng):
    for d in (2, 3):
        f = random_function(rng, 3, d)
        text = format_function(f)
        g = parse_function(text)
        assert g.table == f.table and g.domain_size == d
    with pytest.raises(FunctionError):
        parse_function("fn 2 2\n0101\nextra\n")


def test_parse_function_messages():
    cases = [("fn 2 2\n0120\n", "bad Boolean value 2"),
             ("fn 2 2\n01a0\n", "table must be a digit string"),
             ("fn 2 2\n01 0\n", "table must be a digit string"),
             ("fn 2 2\n010\n", "expected 4 values, got 3"),
             ("fn 2 2\n01010\n", "expected 4 values, got 5"),
             ("fn 2 3\n0120\n", "expected 9 values, got 4"),
             ("fn 1 3\n013\n", "table entry outside the domain")]
    for text, message in cases:
        with pytest.raises(FunctionError) as err:
            parse_function(text)
        assert str(err.value) == message, text


def test_make_function_boolean_values():
    assert make_function(2, [0, 1, 1, 0]).table == 0b0110
    assert make_function(1, [False, True]).table == 0b10
    for vals, message in (([0, 2], "bad Boolean value 2"),
                          ([0, "1"], "bad Boolean value '1'"),
                          ([-1, 0], "bad Boolean value -1")):
        with pytest.raises(FunctionError) as err:
            make_function(1, vals)
        assert str(err.value) == message
    assert list(BoolFunction(2, 0b0110).values()) == [0, 1, 1, 0]


def test_format_function_pads_boolean_tables():
    assert format_function(BoolFunction(1, 0)) == "fn 1 2\n00\n"
    assert format_function(BoolFunction(1, 0b10)) == "fn 1 2\n01\n"
    assert format_function(BoolFunction(1, 0b01)) == "fn 1 2\n10\n"
    assert format_function(BoolFunction(3, 0b1)) == "fn 3 2\n10000000\n"
    assert format_function(BoolFunction(4, 0)) == "fn 4 2\n" + "0" * 16 + "\n"
    for d in (2, 3):
        for n in range(1, 9 if d == 2 else 5):
            for v in range(d):
                f = constant_function(n, v, d)
                text = format_function(f)
                assert text == f"fn {n} {d}\n{str(v) * d ** n}\n"
                g = parse_function(text)
                assert (g.arity, g.domain_size, g.table) == (n, d, f.table)


def test_enumerate_resource_guard():
    from pcsp.polymorphisms import ResourceGuard
    t = template((build_family("atmost", 3, 6), build_family("atmost", 5, 6)))
    with pytest.raises(ResourceGuard):
        list(enumerate_polymorphisms(t, 6))


def test_compose_eq1_domain_four():
    rng = random.Random(5)
    c = random_cyclic(rng, 2, 4)
    t = compose_eq1(c, 2)
    assert t.domain_size == 4 and t.arity == 4
    assert is_doubly_cyclic(t, 2)
