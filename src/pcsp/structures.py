"""Relational structures, symmetric Boolean relations, instances, and homomorphisms.

Symmetric Boolean relations, disequality among them, are stored as sets of
admissible Hamming weights, so membership is O(arity) and large arities stay
cheap.  Tuple enumeration is generated on demand.  Relations given by their
tuples (the `explicit` spec) carry that tuple list instead of weights.

`hom_exists`, the test oracle, decides an instance against either side of a
template by exact backtracking with arc-consistency pruning and a fixed
branching order, so witnesses are reproducible.  Template validation and
relaxation checks need no search: a map between two-element domains is one
of four.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Optional, Sequence


class StructureError(ValueError):
    """Malformed relation, template, or instance."""


class InternalCheckError(RuntimeError):
    """A backend produced a witness or certificate that fails its own re-check."""


FAMILY_KINDS = ("odd", "even", "exact", "atmost", "atleast", "nae", "neq", "full", "const")

# Enumerating all tuples of a weight-set relation is exponential in the arity;
# refuse above this.
MAX_ENUM_ARITY = 20

# Largest relation arity a template may state: weight sets and the
# classifier's scans grow with the arity, so a larger one is refused before
# any weight set is built.  Far above every catalog use.
MAX_RELATION_ARITY = 1 << 17

# Largest `vars` count parse_instance accepts: the solvers keep state per
# variable, so a larger count is refused before anything is allocated.
MAX_VARS = 1 << 20

# The certificate contexts' cases and window presets (read by
# pcsp.certificates), kept here so that the command line can list them
# without loading the certificate module.
CASES = ("1", "2", "3", "4a", "4b")

PRESETS = {
    # exponents: near-threshold window 1/s^(step+near), too-close cutoff
    # 1/s^(b+tooclose), completion precondition 1/s^producing
    "paper": {"near": 10, "tooclose": 12, "producing": 5},
    # verification is local, so smaller windows lose no rigor; they only
    # let certificates exist at desk-sized primes
    "desk": {"near": -2, "tooclose": 2, "producing": 1},
}


@dataclass(frozen=True)
class BoolRelation:
    """A Boolean relation: its admissible weights, or its explicit tuples
    (when given, the weights are unused)."""

    arity: int
    weights: frozenset
    explicit_tuples: Optional[tuple] = None

    def __post_init__(self):
        if self.arity < 1:
            raise StructureError("relation arity must be >= 1")
        if self.arity > MAX_RELATION_ARITY:
            raise StructureError(f"relation arity {self.arity} above cap {MAX_RELATION_ARITY}")
        bad = [w for w in self.weights if not (0 <= w <= self.arity)]
        if bad:
            raise StructureError(f"weights {bad} outside 0..{self.arity}")
        if self.explicit_tuples is not None:
            for t in self.explicit_tuples:
                if len(t) != self.arity or any(x not in (0, 1) for x in t):
                    raise StructureError(f"bad explicit tuple {t}")

    @property
    def symmetric(self) -> bool:
        """Whether the relation is given by weights (so closed under
        permuting coordinates)."""
        return self.explicit_tuples is None

    def contains(self, tup: Sequence[int]) -> bool:
        if len(tup) != self.arity:
            raise StructureError(f"arity mismatch: {len(tup)} vs {self.arity}")
        if self.explicit_tuples is None:
            return sum(tup) in self.weights
        return tuple(tup) in self.explicit_tuples

    def tuples(self) -> Iterator[tuple]:
        """Enumerate member tuples: explicit ones sorted, weight ones by
        increasing weight."""
        if not self.symmetric:
            yield from sorted(self.explicit_tuples)
            return
        if self.arity > MAX_ENUM_ARITY:
            raise StructureError(f"refusing to enumerate arity {self.arity} relation")
        yield from _tuples_of_weights(self.arity, self.weights)

    def count_tuples(self) -> int:
        if not self.symmetric:
            return len(self.explicit_tuples)
        return sum(comb(self.arity, w) for w in self.weights)

    def is_neq(self) -> bool:
        return self.arity == 2 and self.weights == frozenset([1])

    def is_full(self) -> bool:
        return len(self.weights) == self.arity + 1

    def swap01(self) -> "BoolRelation":
        """The relation with 0 and 1 exchanged (weight w becomes arity-w)."""
        weights = frozenset(self.arity - w for w in self.weights)
        explicit = None
        if self.explicit_tuples is not None:
            explicit = tuple(sorted(tuple(1 - x for x in t) for t in self.explicit_tuples))
        return BoolRelation(self.arity, weights, explicit)

    def __str__(self):
        return f"weights{sorted(self.weights)}/{self.arity}"


def _tuples_of_weights(arity: int, weights: frozenset) -> Iterator[tuple]:
    for w in sorted(weights):
        for ones in combinations(range(arity), w):
            t = [0] * arity
            for i in ones:
                t[i] = 1
            yield tuple(t)


def build_family(kind: str, *args: int) -> BoolRelation:
    """Build one of the standard symmetric relation families.

    exact/atmost/atleast take (r, s); odd/even/nae/full/const take (s,);
    neq takes no arguments and has arity 2.
    """
    if kind not in FAMILY_KINDS:
        raise StructureError(f"unknown family kind {kind!r}")
    if kind == "neq":
        if args:
            raise StructureError("neq takes no parameters")
        return BoolRelation(2, frozenset([1]))
    if kind in ("exact", "atmost", "atleast"):
        if len(args) != 2:
            raise StructureError(f"{kind} needs (r, s)")
        r, s = args
    else:
        if len(args) != 1:
            raise StructureError(f"{kind} needs (s,)")
        r, s = None, args[0]
    if s < 1:
        raise StructureError("arity s must be >= 1")
    if s > MAX_RELATION_ARITY:
        raise StructureError(f"relation arity {s} above cap {MAX_RELATION_ARITY}")
    if r is not None and not (0 <= r <= s):
        raise StructureError(f"r={r} outside 0..{s}")

    if kind == "odd":
        weights = frozenset(w for w in range(s + 1) if w % 2 == 1)
    elif kind == "even":
        weights = frozenset(w for w in range(s + 1) if w % 2 == 0)
    elif kind == "exact":
        weights = frozenset([r])
    elif kind == "atmost":
        weights = frozenset(range(0, r + 1))
    elif kind == "atleast":
        weights = frozenset(range(r, s + 1))
    elif kind == "nae":
        weights = frozenset(range(1, s))
    elif kind == "full":
        weights = frozenset(range(0, s + 1))
    else:  # const
        weights = frozenset([0, s])
    return BoolRelation(s, weights)


@dataclass(frozen=True)
class Instance:
    """A constraint instance: variables 0..var_count-1 and indexed constraints."""

    var_count: int
    constraints: tuple  # tuple of (relation_index, variable tuple)

    def __post_init__(self):
        if self.var_count < 0:
            raise StructureError("var_count must be >= 0")
        for idx, tup in self.constraints:
            if any(not (0 <= v < self.var_count) for v in tup):
                raise StructureError(f"variable out of range in constraint {(idx, tup)}")


@dataclass(frozen=True)
class Template:
    """A promise template: a list of (A-side, B-side) relation pairs.

    Construction checks that the A-side structure maps homomorphically into
    the B-side one, so every value of this type is a genuine template.  Pass
    check_promise=False to hold a pair list that is not a template (useful
    when probing relaxation relations between arbitrary pair lists).
    """

    pairs: tuple
    check_promise: bool = True

    def __post_init__(self):
        for a, b in self.pairs:
            if a.arity != b.arity:
                raise StructureError(f"pair arity mismatch: {a} vs {b}")
        if self.check_promise and self.pairs and not _a_maps_to_b(self.pairs):
            raise StructureError("no homomorphism from the A side to the B side")

    def swap01(self) -> "Template":
        return Template(tuple((a.swap01(), b.swap01()) for a, b in self.pairs),
                        check_promise=self.check_promise)

    def arity_of(self, pair_index: int) -> int:
        return self.pairs[pair_index][0].arity


def split_pairs(t: Template):
    """The template's distinct pairs, in order of first occurrence, as
    (disequality pairs, other symmetric pairs); (None, None) when a pair is
    not symmetric.  The classifier and the certificate checker read a
    template's shape through this."""
    seen = set()
    neqs, others = [], []
    for a, b in t.pairs:
        key = (a.arity, frozenset(a.weights), frozenset(b.weights),
               a.explicit_tuples, b.explicit_tuples)
        if key in seen:
            continue
        seen.add(key)
        if a.is_neq() and b.is_neq():
            neqs.append((a, b))
        elif a.symmetric and b.symmetric:
            others.append((a, b))
        else:
            return None, None
    return neqs, others


# The four maps {0,1} -> {0,1} (identity, negation, constant 0, constant 1),
# on bits and on the Hamming weights of arity-k tuples.
_BIT_MAPS = (lambda x: x, lambda x: 1 - x, lambda x: 0, lambda x: 1)
_WEIGHT_MAPS = (lambda k, w: w, lambda k, w: k - w, lambda k, w: 0, lambda k, w: k)


def _full_weights(rel: BoolRelation) -> frozenset:
    """The weights w such that rel holds every tuple of weight w."""
    if rel.symmetric:
        return rel.weights
    counts = Counter(sum(t) for t in set(rel.explicit_tuples))
    return frozenset(w for w, c in counts.items() if c == comb(rel.arity, w))


def _sends_into(h: int, a: BoolRelation, b: BoolRelation) -> bool:
    """Whether the h-th of the four maps sends every tuple of a into b."""
    if a.symmetric:
        # each map sends a whole weight layer onto a whole weight layer
        image = {_WEIGHT_MAPS[h](a.arity, w) for w in a.weights}
        return image <= _full_weights(b)
    bit = _BIT_MAPS[h]
    return all(b.contains(tuple(bit(x) for x in t)) for t in a.explicit_tuples)


def _a_maps_to_b(pairs) -> bool:
    """Whether the A-side structure of `pairs` maps homomorphically to the
    B-side one; both have domain {0,1}, so one of the four maps must do."""
    return any(all(_sends_into(h, a, b) for a, b in pairs) for h in range(4))


def structure_to_instance(t: Template, side: int) -> Instance:
    """The canonical instance of side `side` of `t`: variable e stands for
    element e, and each tuple of each relation is one constraint."""
    return Instance(2, tuple((ri, tup) for ri, pair in enumerate(t.pairs)
                             for tup in pair[side].tuples()))


def hom_exists(inst: Instance, t: Template, side: int) -> Optional[dict]:
    """A homomorphism from `inst` to side `side` of `t` (0 for A, 1 for B),
    as a dict variable -> 0/1, or None.  Branching is over variables in
    index order, value 1 before 0, so the witness is deterministic."""
    check_instance_against(inst, t)
    rows = {}  # each relation's tuples as bit masks (bit i is entry i), read once per pair
    for ri, _ in inst.constraints:
        if ri not in rows:
            rows[ri] = [sum(x << i for i, x in enumerate(row))
                        for row in t.pairs[ri][side].tuples()]

    def prune(doms) -> bool:
        # arc consistency on unary projections, to a fixpoint: a row supports
        # a constraint when each entry lies in its variable's domain
        changed = True
        while changed:
            changed = False
            for ri, tup in inst.constraints:
                fixed = ones = 0
                for i, v in enumerate(tup):
                    if len(doms[v]) == 1:
                        fixed |= 1 << i
                        ones |= doms[v][0] << i
                some, every = 0, -1  # entries that are 1 in some / every supporting row
                for row in rows[ri]:
                    if row & fixed == ones:
                        some |= row
                        every &= row
                for i, v in enumerate(tup):
                    newdom = [val for val in doms[v] if (some if val else ~every) >> i & 1]
                    if len(newdom) < len(doms[v]):
                        if not newdom:
                            return False
                        doms[v] = newdom
                        changed = True
        return True

    def search(doms, var):
        # doms is arc consistent, with one value left below var
        if var == inst.var_count:
            return {v: dom[0] for v, dom in enumerate(doms)}
        for val in doms[var]:
            trial = list(doms)
            trial[var] = [val]
            if prune(trial):
                sol = search(trial, var + 1)
                if sol is not None:
                    return sol
        return None

    domains = [[1, 0] for _ in range(inst.var_count)]
    return search(domains, 0) if prune(domains) else None


def is_relaxation(t_prime: Template, t: Template) -> bool:
    """True iff t_prime relaxes t: A' -> A and B -> B' (as indexed structures).

    All four sides have domain {0,1}, so each direction tries the four maps.
    """
    if len(t_prime.pairs) != len(t.pairs):
        raise StructureError("templates have different signatures")
    for (a1, b1), (a2, b2) in zip(t_prime.pairs, t.pairs):
        if a1.arity != a2.arity:
            raise StructureError("templates have different signatures")
    a_sides = [(a1, a2) for (a1, _), (a2, _) in zip(t_prime.pairs, t.pairs)]
    b_sides = [(b2, b1) for (_, b1), (_, b2) in zip(t_prime.pairs, t.pairs)]
    return _a_maps_to_b(a_sides) and _a_maps_to_b(b_sides)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_SPEC_ARG_COUNT = {"neq": 0, "odd": 1, "even": 1, "nae": 1, "full": 1,
                   "rin": 2, "atmost": 2, "atleast": 2, "explicit": 2}

_SPEC_TO_KIND = {"rin": "exact"}


class ParseError(StructureError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_relation_spec(tokens: list, pos: int, lineno: int):
    if pos >= len(tokens):
        raise ParseError(lineno, "missing relation spec")
    head = tokens[pos]
    if head not in _SPEC_ARG_COUNT:
        raise ParseError(lineno, f"unknown relation spec {head!r}")
    argc = _SPEC_ARG_COUNT[head]
    args = tokens[pos + 1: pos + 1 + argc]
    if len(args) != argc:
        raise ParseError(lineno, f"{head} expects {argc} parameter(s)")
    if head == "explicit":
        try:
            s = int(args[0])
        except ValueError:
            raise ParseError(lineno, f"bad arity {args[0]!r}")
        tups = []
        for part in args[1].split(";") if args[1] != "-" else ():  # "-": no tuple
            try:
                tups.append(tuple(int(c) for c in part.split(",")))
            except ValueError:
                raise ParseError(lineno, f"bad tuple {part!r}")
        try:
            rel = BoolRelation(s, frozenset(), tuple(tups))
        except StructureError as e:
            raise ParseError(lineno, str(e))
        return rel, pos + 1 + argc
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise ParseError(lineno, f"bad integer in {args}")
    kind = _SPEC_TO_KIND.get(head, head)
    try:
        rel = build_family(kind, *nums)
    except StructureError as e:
        raise ParseError(lineno, str(e))
    return rel, pos + 1 + argc


def parse_template(text: str) -> Template:
    """Parse the line-oriented template format (see `format_template`)."""
    lines = text.splitlines()
    pairs = []
    state = "expect_header"
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if state == "expect_header":
            if tokens != ["template"]:
                raise ParseError(lineno, "expected 'template' header")
            state = "body"
        elif state == "body":
            if tokens == ["end"]:
                state = "done"
                continue
            if tokens[0] != "pair":
                raise ParseError(lineno, f"expected 'pair' or 'end', got {tokens[0]!r}")
            rel_a, pos = _parse_relation_spec(tokens, 1, lineno)
            rel_b, pos = _parse_relation_spec(tokens, pos, lineno)
            if pos != len(tokens):
                raise ParseError(lineno, f"trailing tokens {tokens[pos:]}")
            if rel_a.arity != rel_b.arity:
                raise ParseError(lineno, "pair arities differ")
            pairs.append((rel_a, rel_b))
        else:
            raise ParseError(lineno, "content after 'end'")
    if state != "done":
        raise ParseError(len(lines) or 1, "missing 'end'")
    try:
        return Template(tuple(pairs))
    except StructureError as e:
        raise ParseError(len(lines), str(e))


def format_template(t: Template) -> str:
    out = ["template"]
    for a, b in t.pairs:
        out.append(f"pair {_format_relation(a)} {_format_relation(b)}")
    out.append("end")
    return "\n".join(out) + "\n"


def _format_relation(rel: BoolRelation) -> str:
    """The spec `_parse_relation_spec` reads back as rel: a family spec
    when rel's weights form one, else its tuples, sorted (`-` for none)."""
    if rel.is_neq():
        return "neq"
    s, w = rel.arity, set(rel.weights)
    if rel.symmetric:
        if w == set(range(0, s + 1)):
            return f"full {s}"
        if w == {x for x in range(s + 1) if x % 2 == 1}:
            return f"odd {s}"
        if w == {x for x in range(s + 1) if x % 2 == 0}:
            return f"even {s}"
        if w == set(range(1, s)):
            return f"nae {s}"
        if len(w) == 1:
            return f"rin {next(iter(w))} {s}"
        if w and w == set(range(0, max(w) + 1)):
            return f"atmost {max(w)} {s}"
        if w and w == set(range(min(w), s + 1)):
            return f"atleast {min(w)} {s}"
    body = ";".join(",".join(str(x) for x in t) for t in sorted(rel.tuples()))
    return f"explicit {s} {body or '-'}"


def parse_instance(text: str) -> Instance:
    """Parse the instance format: `vars <n>` then `c <pair> <v1> ... <vk>` lines."""
    var_count = None
    constraints = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if var_count is None:
            if tokens[0] != "vars" or len(tokens) != 2:
                raise ParseError(lineno, "expected 'vars <n>'")
            try:
                var_count = int(tokens[1])
            except ValueError:
                raise ParseError(lineno, f"bad variable count {tokens[1]!r}")
            if var_count > MAX_VARS:
                raise ParseError(lineno, f"variable count {var_count} above cap {MAX_VARS}")
            if var_count < 0:
                raise ParseError(lineno, "var_count must be >= 0")
            continue
        if tokens[0] != "c":
            raise ParseError(lineno, f"expected constraint line, got {tokens[0]!r}")
        try:
            nums = [int(x) for x in tokens[1:]]
        except ValueError:
            raise ParseError(lineno, "bad integer in constraint")
        if len(nums) < 2:
            raise ParseError(lineno, "constraint needs a pair index and variables")
        con = (nums[0], tuple(nums[1:]))
        if any(not (0 <= v < var_count) for v in con[1]):
            raise ParseError(lineno, f"variable out of range in constraint {con}")
        constraints.append(con)
    if var_count is None:
        raise ParseError(1, "missing 'vars' line")
    return Instance(var_count, tuple(constraints))


def format_instance(inst: Instance) -> str:
    out = [f"vars {inst.var_count}"]
    for ri, tup in inst.constraints:
        out.append("c " + str(ri) + " " + " ".join(str(v) for v in tup))
    return "\n".join(out) + "\n"


def check_instance_against(inst: Instance, t: Template) -> None:
    """Raise unless every constraint references a valid pair at the right arity."""
    for ri, tup in inst.constraints:
        if not (0 <= ri < len(t.pairs)):
            raise StructureError(f"constraint pair index {ri} out of range")
        if len(tup) != t.arity_of(ri):
            raise StructureError(f"constraint on pair {ri} has arity {len(tup)}, "
                                 f"expected {t.arity_of(ri)}")
