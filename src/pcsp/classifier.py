"""Recognition of symmetric Boolean templates and tractability verdicts.

The classifier recognizes the basic tractable shapes (parity pairs, the
at-most/at-least majority pairs, exact-weight versus not-all-equal pairs),
plus the specific exact-weight relaxations of the majority shapes whose
finite tractability status is known.  Everything else gets an honest
Unknown rather than a guess.

Complexity for templates that allow negations is decided by enumerating the
tractable building blocks (one fixed item, trivial pairs, Boolean relabels
on both sides); a template that fits none of them is NP-hard by the known
dichotomy for symmetric templates with disequality.  Templates without
disequality are only classified when they match a recognized shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .structures import BoolRelation, StructureError, Template, build_family, split_pairs


class UnsupportedTemplateError(ValueError):
    """The template has no recognized solving recipe."""


class Complexity(enum.Enum):
    TRACTABLE = "Tractable"
    NP_HARD = "NPHard"
    UNKNOWN = "Unknown"


class Finiteness(enum.Enum):
    FINITELY_TRACTABLE = "FinitelyTractable"
    NOT_FINITELY_TRACTABLE = "NotFinitelyTractable"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class BasicCase:
    """A recognized basic shape: which item, its parameters, and whether the
    match needed the 0/1 swap."""

    item: str  # "a", "b", or "c"
    r: int
    s: int
    mirrored: bool
    has_neq: bool

    def __str__(self):
        if self.item == "a":
            return f"a(s={self.s})"
        return f"{self.item}(r={self.r},s={self.s})"


@dataclass(frozen=True)
class SandwichSpec:
    """Which backend decides the template, with the recognized parameters.

    polarity records whether recognition used the 0/1 swap.  The LP recipe
    solves the swapped template when it is set and swaps the witness back;
    the GF(2) and integer translations read relation weights directly and
    ignore it.
    """

    solver: str  # "gf2", "lp", or "diophantine"
    r: int
    s: int
    polarity: bool

    def __post_init__(self):
        if self.solver not in ("gf2", "lp", "diophantine"):
            raise StructureError(f"unknown solver {self.solver!r}")


@dataclass(frozen=True)
class Verdict:
    complexity: Complexity
    finiteness: Finiteness
    case: Optional[BasicCase] = None
    main_theorem_item: Optional[int] = None
    sandwich: Optional[SandwichSpec] = None

    def __post_init__(self):
        if self.finiteness is not Finiteness.UNKNOWN and self.complexity is not Complexity.TRACTABLE:
            raise StructureError("finiteness verdicts require tractability")


# ---------------------------------------------------------------------------
# shape helpers
# ---------------------------------------------------------------------------

def _weight_pair(a: BoolRelation, b: BoolRelation):
    return set(a.weights), set(b.weights), a.arity


def _odd_weights(s: int):
    return {w for w in range(s + 1) if w % 2 == 1}


def _even_weights(s: int):
    return {w for w in range(s + 1) if w % 2 == 0}


def match_basic(t: Template) -> Optional[BasicCase]:
    """Match the non-disequality pairs against one basic item, exactly,
    trying the identity and the 0/1 swap."""
    neqs, others = split_pairs(t)
    if others is None or not others:
        return None
    if len(others) != 1:
        return None
    has_neq = bool(neqs)
    for mirrored in (False, True):
        a, b = others[0]
        if mirrored:
            a, b = a.swap01(), b.swap01()
        wa, wb, s = _weight_pair(a, b)
        # item (a): equal parity relations
        if wa == wb and wa in (_odd_weights(s), _even_weights(s)):
            return BasicCase("a", 0, s, mirrored, has_neq)
        # item (b): (atmost r, atmost 2r-1) with 2r <= s; r is read off wa
        r = max(wa, default=0)
        if 1 <= r <= s // 2 and wa == set(range(0, r + 1)) and wb == set(range(0, 2 * r)):
            return BasicCase("b", r, s, mirrored, has_neq)
        # item (c): (exactly r, not-all-equal)
        if len(wa) == 1 and wb == set(range(1, s)):
            r = next(iter(wa))
            if 1 <= r <= s - 1:
                return BasicCase("c", r, s, mirrored, has_neq)
    return None


def _match_main_relaxation(t: Template) -> Optional[tuple]:
    """Exact-weight relaxations of the majority shape with known status:
    (r-in-s, atmost(2r-1)-in-s) plus disequality, with 1 < r <= s/2.

    Returns (theorem_item, r, s, mirrored): item 1 when r < s/2, item 3 when
    r = s/2 and r is even.  Returns None otherwise.
    """
    neqs, others = split_pairs(t)
    if others is None or len(others) != 1 or not neqs:
        return None
    for mirrored in (False, True):
        a, b = others[0]
        if mirrored:
            a, b = a.swap01(), b.swap01()
        wa, wb, s = _weight_pair(a, b)
        if len(wa) != 1:
            continue
        r = next(iter(wa))
        if not (1 < r and 2 * r <= s):
            continue
        if wb != set(range(0, 2 * r)):
            continue
        if 2 * r < s:
            return 1, r, s, mirrored
        if r % 2 == 0:
            return 3, r, s, mirrored
    return None


def _point_absorbing(t: Template) -> Optional[int]:
    """A constant value c whose all-c tuple lies in every B-side relation.

    Such a template reduces to a one-element structure, so it is finitely
    tractable outright.
    """
    for c in (0, 1):
        ok = True
        for _, b in t.pairs:
            if not b.contains(tuple([c] * b.arity)):
                ok = False
                break
        if ok:
            return c
    return None


def _apply_swap(weights: set, s: int, swapped: bool) -> set:
    return {s - w for w in weights} if swapped else set(weights)


def _tractable_shape_exists(t: Template) -> bool:
    """Decide whether a symmetric template with disequality fits some
    tractable combination: Boolean relabels f (A side) and g (B side),
    one fixed item supplying pair shapes, plus trivial pairs.  `classify`,
    the caller, has already returned on a template with a non-symmetric
    pair."""
    neqs, others = split_pairs(t)

    def trivial_cover(wa, wb, s, f_swap, g_swap) -> bool:
        fa = _apply_swap(wa, s, f_swap)
        if len(wb) == s + 1:  # B side full
            return True
        if fa <= {0, s}:  # A side constants only
            return _apply_swap(fa, s, g_swap) <= wb
        return False

    def item_cover(item, wa, wb, s, f_swap, g_swap) -> bool:
        fa = _apply_swap(wa, s, f_swap)
        if item == "a":
            for par in (_odd_weights(s), _even_weights(s)):
                if fa <= par and _apply_swap(par, s, g_swap) <= wb:
                    return True
            return False
        if item == "b":
            # the at-most form (atmost r, atmost 2r-1), 1 <= r <= s/2, needs
            # fa <= [0, r]; its B side grows with r, so the least such r is
            # the one to try
            r = max(1, max(fa, default=0))
            if r <= s // 2 and _apply_swap(set(range(0, 2 * r)), s, g_swap) <= wb:
                return True
            # the at-least form (atleast rr, atleast 2rr-s+1), s/2 <= rr < s,
            # needs fa <= [rr, s]; its B side shrinks as rr grows, so the
            # largest such rr is the one to try
            rr = min(s - 1, min(fa, default=s))
            return rr >= s - s // 2 and \
                _apply_swap(set(range(2 * rr - s + 1, s + 1)), s, g_swap) <= wb
        # item c: (exactly r, not-all-equal) for some 1 <= r < s, so fa <= {r};
        # the not-all-equal side is its own 0/1 swap
        return s >= 2 and len(fa) <= 1 and all(0 < w < s for w in fa) and \
            set(range(1, s)) <= wb

    shapes = [(set(a.weights), set(b.weights), a.arity) for a, b in others]
    for f_swap in (False, True):
        for g_swap in (False, True):
            for item in ("a", "b", "c"):
                if all(trivial_cover(*sh, f_swap, g_swap)
                       or item_cover(item, *sh, f_swap, g_swap) for sh in shapes):
                    return True
    return False


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def classify(t: Template) -> Verdict:
    """Tractability and finite-tractability verdicts for a template.

    Finitely tractable shapes: parity pairs; majority pairs with r = 1 or
    s <= 2; exact/not-all-equal pairs with r odd and s even or s <= 2; and
    anything a one-element structure absorbs.  The remaining recognized
    shapes are tractable but provably not finitely tractable.  Unrecognized
    templates stay Unknown rather than extrapolating.
    """
    neqs, others = split_pairs(t)
    if others is None:
        return Verdict(Complexity.UNKNOWN, Finiteness.UNKNOWN)
    if not others:
        # possibly empty template; disequalities alone are a parity system
        spec = SandwichSpec("gf2", 0, 2, False) if neqs else None
        return Verdict(Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE, None, None, spec)

    basic = match_basic(t)
    if basic is not None:
        return _classify_basic(basic)

    relax = _match_main_relaxation(t)
    if relax is not None:
        item, r, s, mirrored = relax
        return Verdict(Complexity.TRACTABLE, Finiteness.NOT_FINITELY_TRACTABLE,
                       None, item, SandwichSpec("lp", r, s, mirrored))

    if all(b.is_full() for _, b in others):
        # the B side itself is a finite tractable structure (full relations
        # plus possibly disequality, a two-coloring system)
        spec = SandwichSpec("gf2", 0, 2, False) if neqs else None
        return Verdict(Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE,
                       None, None, spec)

    if _point_absorbing(t) is not None:
        return Verdict(Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE)

    if neqs:
        if _tractable_shape_exists(t):
            return Verdict(Complexity.TRACTABLE, Finiteness.UNKNOWN)
        return Verdict(Complexity.NP_HARD, Finiteness.UNKNOWN)
    return Verdict(Complexity.UNKNOWN, Finiteness.UNKNOWN)


def _classify_basic(case: BasicCase) -> Verdict:
    r, s = case.r, case.s
    if case.item == "a":
        return Verdict(Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE,
                       case, None, SandwichSpec("gf2", r, s, case.mirrored))
    if case.item == "b":
        spec = SandwichSpec("lp", r, s, case.mirrored)
        if not case.has_neq or r == 1 or s <= 2:
            return Verdict(Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE,
                           case, None, spec)
        item = 2 if 2 * r == s else 1
        return Verdict(Complexity.TRACTABLE, Finiteness.NOT_FINITELY_TRACTABLE,
                       case, item, spec)
    # item c
    spec = SandwichSpec("diophantine", r, s, case.mirrored)
    if s <= 2 or (r % 2 == 1 and s % 2 == 0):
        return Verdict(Complexity.TRACTABLE, Finiteness.FINITELY_TRACTABLE,
                       case, None, spec)
    return Verdict(Complexity.TRACTABLE, Finiteness.NOT_FINITELY_TRACTABLE,
                   case, 4, spec)


def sandwich(t: Template) -> SandwichSpec:
    """The solving recipe for a recognized tractable template."""
    verdict = classify(t)
    if verdict.complexity is not Complexity.TRACTABLE or verdict.sandwich is None:
        raise UnsupportedTemplateError("no recognized sandwich for this template")
    return verdict.sandwich


# ---------------------------------------------------------------------------
# the catalog table
# ---------------------------------------------------------------------------

def catalog_templates(max_s: int = 8):
    """All basic-shape templates with arity at most max_s, with their builders.

    Yields (label, template).  Items (a) and (b) carry disequality; item (c)
    templates are bare exact/not-all-equal pairs.
    """
    neq = build_family("neq")
    for s in range(1, max_s + 1):
        for parity in ("odd", "even"):
            rel = build_family(parity, s)
            yield (f"({parity}-{s},{parity}-{s})+neq",
                   Template(((rel, rel), (neq, neq))))
        for r in range(1, s // 2 + 1):
            lo, hi = build_family("atmost", r, s), build_family("atmost", min(2 * r - 1, s), s)
            yield (f"(<= {r}-in-{s},<= {2 * r - 1}-in-{s})+neq",
                   Template(((lo, hi), (neq, neq))))
        if s >= 2:
            for r in range(1, s):
                yield (f"({r}-in-{s},nae-{s})",
                       Template(((build_family("exact", r, s), build_family("nae", s)),)))


def classification_table(max_s: int = 8):
    """Rows (label, verdict) for the whole catalog."""
    return [(label, classify(t)) for label, t in catalog_templates(max_s)]


def format_verdict(v: Verdict) -> str:
    case = str(v.case) if v.case else "-"
    item = str(v.main_theorem_item) if v.main_theorem_item else "-"
    return (f"complexity={v.complexity.value} finiteness={v.finiteness.value} "
            f"case={case} theorem_item={item}")
