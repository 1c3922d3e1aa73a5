import time

import pytest

from pcsp.classifier import (BasicCase, Complexity, Finiteness, SandwichSpec,
                             UnsupportedTemplateError, _tractable_shape_exists,
                             catalog_templates, classification_table, classify,
                             format_verdict, match_basic, sandwich)
from pcsp.structures import (BoolRelation, StructureError, Template, build_family,
                             is_relaxation, parse_template)
from conftest import NEQ, template, with_neq


def B(*args):
    return build_family(*args)


# -- match_basic ---------------------------------------------------------------

def test_match_one_in_three():
    case = match_basic(template((B("exact", 1, 3), B("nae", 3))))
    assert case == BasicCase("c", 1, 3, False, False)


def test_match_majority_shape():
    case = match_basic(with_neq(B("atmost", 2, 4), B("atmost", 3, 4)))
    assert case == BasicCase("b", 2, 4, False, True)


def test_match_majority_mirrored():
    # the at-least form matches through the 0/1 swap with normalized r
    case = match_basic(with_neq(B("atleast", 2, 3), B("atleast", 2, 3)))
    assert case == BasicCase("b", 1, 3, True, True)


def test_match_parity():
    case = match_basic(with_neq(B("odd", 5), B("odd", 5)))
    assert case == BasicCase("a", 0, 5, False, True)


def test_match_rejects_non_catalog():
    assert match_basic(with_neq(B("nae", 3), B("nae", 3))) is None
    assert match_basic(template((B("exact", 1, 3), B("full", 3)))) is None


def test_full_relaxed_b_side_not_basic_but_finitely_tractable():
    # a full B side is not an exact catalog shape; the verdict still lands
    # on finitely tractable through the absorbing-point rule
    t = Template(((B("atleast", 2, 3), B("atleast", 0, 3)), (NEQ, NEQ)))
    assert match_basic(t) is None
    v = classify(t)
    assert v.finiteness is Finiteness.FINITELY_TRACTABLE


# -- classify -------------------------------------------------------------------

def expect(t, comp, fin, item=None):
    v = classify(t)
    assert v.complexity is comp, format_verdict(v)
    assert v.finiteness is fin, format_verdict(v)
    assert v.main_theorem_item == item, format_verdict(v)
    return v


def test_classify_parity():
    v = expect(with_neq(B("odd", 3), B("odd", 3)),
               Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE)
    assert v.sandwich.solver == "gf2"


def test_classify_one_in_three():
    v = expect(template((B("exact", 1, 3), B("nae", 3))),
               Complexity.TRACTABLE, Finiteness.NOT_FINITELY_TRACTABLE, 4)
    assert v.sandwich.solver == "diophantine"


def test_classify_one_in_four():
    expect(template((B("exact", 1, 4), B("nae", 4))),
           Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE)


def test_classify_two_in_four():
    expect(template((B("exact", 2, 4), B("nae", 4))),
           Complexity.TRACTABLE, Finiteness.NOT_FINITELY_TRACTABLE, 4)


def test_classify_two_sat():
    v = expect(with_neq(B("atmost", 1, 3), B("atmost", 1, 3)),
               Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE)
    assert v.sandwich.solver == "lp"


def test_classify_majority_at_half():
    expect(with_neq(B("atmost", 2, 4), B("atmost", 3, 4)),
           Complexity.TRACTABLE, Finiteness.NOT_FINITELY_TRACTABLE, 2)


def test_classify_majority_below_half():
    expect(with_neq(B("atmost", 2, 5), B("atmost", 3, 5)),
           Complexity.TRACTABLE, Finiteness.NOT_FINITELY_TRACTABLE, 1)


def test_classify_exact_relaxation_item_one():
    expect(with_neq(B("exact", 2, 5), B("atmost", 3, 5)),
           Complexity.TRACTABLE, Finiteness.NOT_FINITELY_TRACTABLE, 1)


def test_classify_exact_relaxation_item_three():
    expect(with_neq(B("exact", 2, 4), B("atmost", 3, 4)),
           Complexity.TRACTABLE, Finiteness.NOT_FINITELY_TRACTABLE, 3)


def test_classify_exact_at_half_odd_r_stays_unknown():
    # tractable (it fits the parity item as a shape) but the catalog does
    # not pin its finiteness, so the classifier refuses to guess
    expect(with_neq(B("exact", 3, 6), B("atmost", 5, 6)),
           Complexity.TRACTABLE, Finiteness.UNKNOWN)


def test_classify_np_hard_nae_with_negations():
    expect(with_neq(B("nae", 3), B("nae", 3)),
           Complexity.NP_HARD, Finiteness.UNKNOWN)


def test_classify_unknown_without_negations():
    expect(template((B("nae", 3), B("nae", 3))),
           Complexity.UNKNOWN, Finiteness.UNKNOWN)


def test_classify_trivial_full_b_side():
    expect(template((B("exact", 1, 3), B("full", 3))),
           Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE)


def test_classify_neq_only():
    v = expect(template((NEQ, NEQ)), Complexity.TRACTABLE,
               Finiteness.FINITELY_TRACTABLE)
    assert v.sandwich.solver == "gf2"


def test_classify_swap_invariant():
    for _, t in catalog_templates(6):
        v1, v2 = classify(t), classify(t.swap01())
        assert (v1.complexity, v1.finiteness, v1.main_theorem_item) == \
            (v2.complexity, v2.finiteness, v2.main_theorem_item)


def test_relaxation_monotonicity_audit():
    """No catalog relaxation of a finitely tractable template gets labeled
    not finitely tractable."""
    rows = [(t, classify(t)) for _, t in catalog_templates(5)]
    for t, v in rows:
        if v.finiteness is not Finiteness.FINITELY_TRACTABLE:
            continue
        for t2, v2 in rows:
            if len(t2.pairs) != len(t.pairs):
                continue
            try:
                related = is_relaxation(t2, t)
            except StructureError:
                continue
            if related:
                assert v2.finiteness in (Finiteness.FINITELY_TRACTABLE,
                                         Finiteness.UNKNOWN)


GOLDEN_RULES = [
    # (item, predicate on (r, s) for finite tractability)
    ("a", lambda r, s: True),
    ("b", lambda r, s: r == 1 or s <= 2),
    ("c", lambda r, s: s <= 2 or (r % 2 == 1 and s % 2 == 0)),
]


def test_golden_table_small():
    for label, t in catalog_templates(8):
        v = classify(t)
        assert v.complexity is Complexity.TRACTABLE, label
        case = v.case
        if case is None:
            # degenerate coincidences (arity-2 relations equal to neq)
            assert v.finiteness is Finiteness.FINITELY_TRACTABLE, label
            continue
        rule = dict((i, f) for i, f in GOLDEN_RULES)[case.item]
        want = (Finiteness.FINITELY_TRACTABLE if rule(case.r, case.s)
                else Finiteness.NOT_FINITELY_TRACTABLE)
        assert v.finiteness is want, (label, format_verdict(v))


# -- sandwich -------------------------------------------------------------------

def test_sandwich_one_in_three():
    spec = sandwich(template((B("exact", 1, 3), B("nae", 3))))
    assert spec == SandwichSpec("diophantine", 1, 3, False)


def test_sandwich_parity():
    spec = sandwich(with_neq(B("odd", 5), B("odd", 5)))
    assert spec.solver == "gf2" and spec.s == 5


def test_sandwich_majority():
    spec = sandwich(with_neq(B("atmost", 2, 5), B("atmost", 3, 5)))
    assert spec.solver == "lp" and (spec.r, spec.s) == (2, 5)


def test_sandwich_rejects_unrecognized():
    with pytest.raises(UnsupportedTemplateError):
        sandwich(with_neq(B("nae", 3), B("nae", 3)))
    with pytest.raises(UnsupportedTemplateError):
        sandwich(template((B("exact", 1, 3), B("full", 3))))


def test_classification_table_shape():
    rows = classification_table(8)
    assert len(rows) == 60
    assert all(isinstance(label, str) for label, _ in rows)


# -- closed forms against a scan over r ----------------------------------------

def _swap(ws, s):
    return {s - w for w in ws}


def _scan_match_basic(wa, wb, s, has_neq):
    """match_basic on the single pair (wa, wb), trying every r."""
    if s == 2 and wa == wb == {1}:  # a disequality pair, not a shape
        return None
    odd = {w for w in range(s + 1) if w % 2 == 1}
    even = {w for w in range(s + 1) if w % 2 == 0}
    for mirrored in (False, True):
        a, b = (_swap(wa, s), _swap(wb, s)) if mirrored else (set(wa), set(wb))
        if a == b and a in (odd, even):
            return BasicCase("a", 0, s, mirrored, has_neq)
        for r in range(1, s // 2 + 1):
            if a == set(range(r + 1)) and b == set(range(2 * r)):
                return BasicCase("b", r, s, mirrored, has_neq)
        for r in range(1, s):
            if a == {r} and b == set(range(1, s)):
                return BasicCase("c", r, s, mirrored, has_neq)
    return None


def _scan_shape_exists(shapes):
    """_tractable_shape_exists on the (wa, wb, s) shapes of the non-disequality
    pairs, trying every r: one relabel pair (f, g) and one item must cover
    every shape, each shape by a trivial pair or by some instance of the item."""
    def items(s):
        b_shapes = []
        for r in range(1, s // 2 + 1):
            b_shapes.append((set(range(r + 1)), set(range(2 * r))))
            rr = s - r  # the at-least form
            b_shapes.append((set(range(rr, s + 1)), set(range(2 * rr - s + 1, s + 1))))
        odd = {w for w in range(s + 1) if w % 2 == 1}
        even = {w for w in range(s + 1) if w % 2 == 0}
        return {"a": [(odd, odd), (even, even)], "b": b_shapes,
                "c": [({r}, set(range(1, s))) for r in range(1, s)]}

    def covered(item, wa, wb, s, f_swap, g_swap):
        fa = _swap(wa, s) if f_swap else set(wa)
        if len(wb) == s + 1 or (fa <= {0, s} and (_swap(fa, s) if g_swap else fa) <= wb):
            return True  # a trivial pair
        return any(fa <= lo and (_swap(hi, s) if g_swap else hi) <= wb
                   for lo, hi in items(s)[item])

    return any(all(covered(item, *sh, f_swap, g_swap) for sh in shapes)
               for f_swap in (False, True) for g_swap in (False, True)
               for item in "abc")


def _shapes(pairs):
    return [(a.weights, b.weights, a.arity) for a, b in pairs
            if not (a.is_neq() and b.is_neq())]


def test_closed_forms_agree_with_a_scan_over_r():
    """match_basic and _tractable_shape_exists read r off the weight sets;
    on every pair of weight sets at s <= 5, with and without disequality,
    they agree with scanning every r."""
    seen, count = set(), 0
    for s in range(1, 6):
        subsets = [frozenset(w for w in range(s + 1) if mask >> w & 1)
                   for mask in range(2 ** (s + 1))]
        for wa in subsets:
            for wb in subsets:
                pair = (BoolRelation(s, wa), BoolRelation(s, wb))
                for has_neq in (False, True):
                    t = Template((pair, (NEQ, NEQ)) if has_neq else (pair,),
                                 check_promise=False)
                    case = match_basic(t)
                    assert case == _scan_match_basic(wa, wb, s, has_neq), (s, wa, wb)
                    exists = _tractable_shape_exists(t)
                    assert exists == _scan_shape_exists(_shapes([pair])), (s, wa, wb)
                    seen.add((case.item if case else None, exists))
                    count += 1
    assert count == 10912
    assert {item for item, _ in seen} == {None, "a", "b", "c"}
    assert (None, True) in seen and (None, False) in seen


def test_shape_search_agrees_with_a_scan_over_r_on_two_shapes(rng):
    """With two shapes one relabel pair must cover both, so the at-most and
    at-least forms of item (b) are no longer each other's mirror image."""
    outcomes = set()
    for _ in range(3000):
        pairs = [(BoolRelation(s, frozenset(w for w in range(s + 1) if rng.random() < 0.5)),
                  BoolRelation(s, frozenset(w for w in range(s + 1) if rng.random() < 0.7)))
                 for s in (rng.randint(2, 6), rng.randint(2, 6))]
        t = Template(tuple(pairs) + ((NEQ, NEQ),), check_promise=False)
        want = _scan_shape_exists(_shapes(pairs))
        assert _tractable_shape_exists(t) == want, pairs
        outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize("body", ["pair full 20000 full 20000",
                                  "pair rin 1 20000 nae 20000",
                                  "pair rin 1 20000 atmost 1 20000\npair neq neq",
                                  "pair rin 1 99999 nae 99999"])
def test_classify_is_linear_in_the_arity(body):
    """Reading r off the weight sets instead of trying every r: these took
    from 1 s to over 20 s when each r built its own sets."""
    t = parse_template(f"template\n{body}\nend\n")
    start = time.process_time()
    classify(t)
    assert time.process_time() - start < 0.5
