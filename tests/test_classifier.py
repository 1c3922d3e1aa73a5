import pytest

from pcsp.classifier import (BasicCase, Complexity, Finiteness, SandwichSpec,
                             UnsupportedTemplateError, catalog_templates,
                             classification_table, classify, format_verdict,
                             match_basic, sandwich)
from pcsp.structures import StructureError, Template, build_family, is_relaxation
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
