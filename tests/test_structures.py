import itertools

import pytest

from pcsp.structures import (BoolRelation, Instance, ParseError, StructureError,
                             Template, build_family, format_instance,
                             format_template, hom_exists, is_relaxation,
                             parse_instance, parse_template, structure_to_instance)
from conftest import NEQ, template


def test_family_exact():
    rel = build_family("exact", 1, 3)
    assert rel.weights == frozenset([1])
    assert rel.contains((1, 0, 0))
    assert not rel.contains((1, 1, 0))


def test_family_nae():
    rel = build_family("nae", 3)
    assert rel.weights == frozenset([1, 2])
    assert not rel.contains((0, 0, 0))
    assert not rel.contains((1, 1, 1))


def test_family_degenerate_atmost():
    rel = build_family("atmost", 0, 3)
    assert rel.weights == frozenset([0])
    assert list(rel.tuples()) == [(0, 0, 0)]


def test_family_tables():
    assert build_family("odd", 4).weights == frozenset([1, 3])
    assert build_family("even", 4).weights == frozenset([0, 2, 4])
    assert build_family("atleast", 2, 4).weights == frozenset([2, 3, 4])
    assert build_family("full", 3).weights == frozenset([0, 1, 2, 3])
    assert build_family("const", 3).weights == frozenset([0, 3])
    neq = build_family("neq")
    assert neq.weights == frozenset([1]) and neq.symmetric
    assert set(neq.tuples()) == {(0, 1), (1, 0)}


def test_family_rejects_bad_parameters():
    with pytest.raises(StructureError):
        build_family("exact", 4, 3)
    with pytest.raises(StructureError):
        build_family("nae", 0)
    with pytest.raises(StructureError):
        build_family("bogus", 1, 2)


def test_contains_examples():
    assert build_family("exact", 1, 3).contains((0, 1, 0))
    assert not build_family("nae", 3).contains((1, 1, 1))
    assert not NEQ.contains((0, 0))
    with pytest.raises(StructureError):
        NEQ.contains((0, 0, 0))


def test_contains_permutation_invariance(rng):
    for rel in (build_family("atmost", 2, 5), build_family("odd", 6),
                build_family("exact", 3, 7)):
        for _ in range(50):
            tup = tuple(rng.randint(0, 1) for _ in range(rel.arity))
            perm = list(range(rel.arity))
            rng.shuffle(perm)
            assert rel.contains(tup) == rel.contains(tuple(tup[i] for i in perm))


def test_empty_weight_relation_allowed():
    rel = BoolRelation(3, frozenset())
    t = Template(((rel, build_family("full", 3)),))
    inst = Instance(3, ((0, (0, 1, 2)),))
    assert hom_exists(inst, t, 0) is None


def test_hom_exists_direct_witness():
    t = template((build_family("exact", 1, 3), build_family("nae", 3)))
    inst = Instance(3, ((0, (0, 1, 2)),))
    assert hom_exists(inst, t, 0) == {0: 1, 1: 0, 2: 0}


def test_hom_exists_forced_unsat():
    t = template((build_family("exact", 1, 3), build_family("nae", 3)))
    inst = Instance(1, ((0, (0, 0, 0)),))
    assert hom_exists(inst, t, 0) is None


def test_hom_exists_empty_instance():
    t = template((build_family("exact", 1, 3), build_family("nae", 3)))
    assert hom_exists(Instance(0, ()), t, 0) == {}


def _exhaustive_hom(inst, t, side):
    for values in itertools.product((1, 0), repeat=inst.var_count):
        if all(t.pairs[ri][side].contains(tuple(values[v] for v in tup))
               for ri, tup in inst.constraints):
            return True
    return inst.var_count == 0


def test_hom_exists_agrees_with_exhaustive(rng):
    t = Template(((build_family("atmost", 1, 3), build_family("atmost", 1, 3)),
                  (NEQ, NEQ)))
    for _ in range(50):
        nv = rng.randint(1, 7)
        cons = []
        for _ in range(rng.randint(1, 8)):
            ri = rng.randrange(2)
            k = 3 if ri == 0 else 2
            cons.append((ri, tuple(rng.randrange(nv) for _ in range(k))))
        inst = Instance(nv, tuple(cons))
        got = hom_exists(inst, t, 0)
        assert (got is not None) == _exhaustive_hom(inst, t, 0)
        if got is not None:
            for ri, tup in inst.constraints:
                assert t.pairs[ri][0].contains(tuple(got[v] for v in tup))


def test_relaxation_identity_maps():
    t_prime = template((build_family("exact", 1, 3), build_family("nae", 3)))
    t = Template(((build_family("atmost", 1, 3), build_family("nae", 3)),),
                 check_promise=False)
    assert is_relaxation(t_prime, t)


def test_relaxation_fails_all_maps():
    t_prime = template((build_family("exact", 1, 3), build_family("nae", 3)))
    t = template((build_family("odd", 3), build_family("odd", 3)))
    # oracle: no map on {0,1} sends odd-in-3 inside NAE-3, so no relaxation
    odd3, nae3 = build_family("odd", 3), build_family("nae", 3)
    maps = [lambda x: x, lambda x: 1 - x, lambda x: 0, lambda x: 1]
    assert not any(all(nae3.contains(tuple(f(x) for x in tup))
                       for tup in odd3.tuples()) for f in maps)
    assert not is_relaxation(t_prime, t)


def test_relaxation_even_case():
    t_prime = template((build_family("exact", 1, 4), build_family("nae", 4)))
    t = template((build_family("odd", 4), build_family("odd", 4)))
    assert is_relaxation(t_prime, t)


def test_relaxation_reflexive_transitive():
    x = template((build_family("exact", 1, 3), build_family("full", 3)))
    y = template((build_family("exact", 1, 3), build_family("nae", 3)))
    z = Template(((build_family("atmost", 1, 3), build_family("nae", 3)),),
                 check_promise=False)
    for t in (x, y, z):
        assert is_relaxation(t, t)
    assert is_relaxation(x, y) and is_relaxation(y, z)
    assert is_relaxation(x, z)


def test_swap_duality():
    for r, s in ((1, 3), (2, 5), (0, 4)):
        assert build_family("exact", r, s).swap01().weights == \
            build_family("exact", s - r, s).weights
        assert build_family("atmost", r, s).swap01().weights == \
            build_family("atleast", s - r, s).weights
    assert build_family("nae", 4).swap01().weights == build_family("nae", 4).weights
    swapped = NEQ.swap01()
    assert set(swapped.tuples()) == {(0, 1), (1, 0)}


def test_template_requires_promise_hom():
    with pytest.raises(StructureError):
        Template(((build_family("atmost", 1, 3), build_family("nae", 3)),))


def _random_relation(rng, k):
    if rng.random() < 0.5:
        return BoolRelation(k, frozenset(w for w in range(k + 1) if rng.random() < 0.5))
    cube = list(itertools.product((0, 1), repeat=k))
    tuples = tuple(t for t in cube if rng.random() < 0.5)
    return BoolRelation(k, frozenset(), explicit_tuples=tuples)


def test_template_validation_agrees_with_hom_exists(rng):
    """Construction's two-element check against the generic search, on
    symmetric and explicit pair lists, empty relations included."""
    outcomes = set()
    for _ in range(3000):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 4)
            pairs.append((_random_relation(rng, k), _random_relation(rng, k)))
        probe = Template(tuple(pairs), check_promise=False)
        want = hom_exists(structure_to_instance(probe, 0), probe, 1) is not None
        try:
            Template(tuple(pairs))
            got = True
        except StructureError:
            got = False
        assert got == want, pairs
        outcomes.add(want)
    assert outcomes == {True, False}


def test_relaxation_agrees_with_hom_exists(rng):
    """is_relaxation's two-element checks against the generic search on the
    materialised sides, for random pair lists of one signature."""
    outcomes = set()
    for _ in range(1500):
        arities = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        t_prime, t = (Template(tuple((_random_relation(rng, k), _random_relation(rng, k))
                                     for k in arities), check_promise=False)
                      for _ in range(2))
        want = (hom_exists(structure_to_instance(t_prime, 0), t, 0) is not None
                and hom_exists(structure_to_instance(t, 1), t_prime, 1) is not None)
        assert is_relaxation(t_prime, t) == want, (t_prime, t)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_template_file_round_trip():
    """Every relation is written as a spec the parser reads back: family
    relations, explicit tuples, swapped relations, `const` (which has no
    spec of its own), weight sets that no family spec names, and the empty
    relation, by weights or by tuples, before another spec on its line."""
    rin = Template(((build_family("exact", 1, 3), build_family("nae", 3)), (NEQ, NEQ)))
    explicit = parse_template("template\npair explicit 2 0,1;1,0 explicit 2 0,1;1,0;1,1\n"
                              "end\n")
    const = build_family("const", 3)
    unnamed = (BoolRelation(4, frozenset([0, 2])), BoolRelation(4, frozenset([0, 2, 3])))
    empty = (BoolRelation(3, frozenset()), BoolRelation(3, frozenset(), explicit_tuples=()))
    for t in (rin, rin.swap01(), explicit, explicit.swap01(),
              Template(((const, const),)), Template((unnamed,)),
              Template(((empty[0], build_family("nae", 3)), empty))):
        text = format_template(t)
        again = parse_template(text)
        assert format_template(again) == text
        assert [[sorted(rel.tuples()) for rel in pair] for pair in again.pairs] == \
            [[sorted(rel.tuples()) for rel in pair] for pair in t.pairs]


def test_template_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_template("template\npair rin 1 3\nend\n")
    assert e.value.lineno == 2
    with pytest.raises(ParseError):
        parse_template("pair rin 1 3 nae 3\nend\n")
    with pytest.raises(ParseError):
        parse_template("template\npair rin 1 3 nae 3\n")


def test_explicit_relation_spec():
    t = parse_template("template\npair explicit 2 0,1;1,0 explicit 2 0,1;1,0\nend\n")
    assert t.pairs[0][0].contains((0, 1))
    assert not t.pairs[0][0].contains((1, 1))


def test_instance_file_round_trip():
    inst = Instance(4, ((0, (0, 1, 2)), (1, (2, 3))))
    text = format_instance(inst)
    assert parse_instance(text) == inst
    with pytest.raises(ParseError):
        parse_instance("c 0 1 2\n")
    with pytest.raises(ParseError):
        parse_instance("vars 2\nc 0 5 1\n")


def test_instance_checks_its_own_count_and_variables():
    """The parser reports these faults at their lines; an Instance built
    in code still refuses them."""
    with pytest.raises(StructureError, match="var_count must be >= 0"):
        Instance(-1, ())
    with pytest.raises(StructureError, match="variable out of range"):
        Instance(3, ((0, (0, 1, 5)),))
