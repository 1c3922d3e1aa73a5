"""Machine-checkable certificates that a template admits no bounded doubly
cyclic polymorphism of a given square arity.

Everything here is symbolic: an evaluation is a compact vector of per-block
heights (never a 2**n table), and the unknowns are the values u_k that a
hypothetical polymorphism's transpose takes on the one-run tuples with k
leading ones.  A certificate is a DAG of claims; each node's claim must
follow from its referenced prior claims plus one locally checkable rule:

* plausible tuple families force relation membership of the image values,
* disequality preservation flips values under complementation,
* block rotations and the row/column transpose never change the value,
* halving and completion steps tie almost rectangles to smaller step sizes,
* at the end, two near-threshold almost rectangles that any bounded
  equivalence must identify are proved to take distinct values.

The verifier re-derives every rule instance from scratch, against the
template it is handed, so a certificate accepted here is a proof no matter
which preset guided its generation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .structures import (CASES, PRESETS, BoolRelation, InternalCheckError, Template,
                         build_family, split_pairs)


class CertificateError(ValueError):
    """Malformed context or certificate."""


class GenerationError(RuntimeError):
    """The requested certificate cannot be built at these parameters."""


def _quote(value) -> str:
    """A value read from a file, as a message quotes it: its repr, cut to 60
    characters, so that no message grows with the file."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _int(value, what: str) -> int:
    """Read an integer field: an int and nothing else (no bool, float or
    string), so that no loose value is coerced into a proof."""
    if type(value) is not int:
        raise CertificateError(f"{what} {_quote(value)} is not an integer")
    return value


def _stray_field(obj, fields: frozenset) -> None:
    """Raise on a key of obj that its rule does not read.  Called only when
    obj is longer than `fields`; a value that is not an object, or that
    lacks one of `fields`, is left to the read that fails on it."""
    if type(obj) is dict and obj.keys() > fields:
        key = next(k for k in obj if k not in fields)
        raise CertificateError(f"unexpected field {_quote(key)}")


def _block_field(values, p: int) -> tuple:
    """A block vector read from a claim: p integers.  The length is
    checked before anything else reads the entries."""
    values = tuple(values)
    if len(values) != p:
        raise CertificateError(f"block vector has {len(values)} entries, not p={p}")
    return _ints(values, "block height")


def _ints(values, what: str) -> tuple:
    """Read a list of integer fields, each as strictly as `_int` reads one."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise CertificateError(f"{what} {_quote(v)} is not an integer")
    return values


MAX_FLIP_DEPTH = 64
MAX_FREE_ROOTS = 4

# The most a generated certificate may hold, checked before any node is
# built: 2a + 1 step-one nodes at b = 0, and at b >= 1 the 2p block entries
# that each boundedness node names, one node per pattern pair.  The checker
# has no such cap: it reads a large-p certificate promptly.
MAX_GENERATED = 1 << 17


def _refuse_oversized(size: int, what: str) -> None:
    if size > MAX_GENERATED:
        raise CertificateError(f"certificate needs {size} {what}, above cap {MAX_GENERATED}")


# Miller-Rabin on the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017); larger p are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality; exact for p < MAX_PRIME."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class StaggerParams:
    """What the plausibility tests and the stagger constructions read.

    Those constructions are statements about arbitrary cyclic and doubly
    cyclic functions of arity n = p*p, so they need neither a prime p nor
    p = 1 (mod s); only the case, which fixes the plausibility sense.
    """

    r: int
    s: int
    case: str
    p: int

    def __post_init__(self):
        for name in ("r", "s", "p"):
            _int(getattr(self, name), name)
        if self.case not in CASES:
            raise CertificateError(f"unknown case {_quote(self.case)}")
        if self.r < 0 or self.s < 1 or self.p < 1:
            raise CertificateError("need r >= 0, s >= 1 and p >= 1")

    # Derived constants are cached per instance: cached_property writes the
    # instance __dict__ directly, so it works on these frozen dataclasses
    # and leaves equality and hashing to the fields.
    @cached_property
    def n(self) -> int:
        return self.p * self.p

    def meets_budget(self, total: int, want: int) -> bool:
        """The plausibility test of one sum: at most want in case 2, exactly
        want in the other cases."""
        return total <= want if self.case == "2" else total == want


@dataclass(frozen=True)
class ProofContext(StaggerParams):
    """Parameters of one non-existence proof instance.

    On top of `StaggerParams` it requires a prime p with p = 1 (mod s): that
    is the certificate arithmetic's invariant (it keeps theta*n off the
    integers, see `a`), not the constructions'.
    """

    b: int
    preset: str = "desk"

    def __post_init__(self):
        super().__post_init__()
        if self.preset not in PRESETS:
            raise CertificateError(f"unknown preset {_quote(self.preset)}")
        if _int(self.b, "b") < 0:
            raise CertificateError("b must be >= 0")
        if self.p >= MAX_PRIME:
            raise CertificateError(f"p={self.p} is not below {MAX_PRIME}, "
                                   "where the primality test is exact")
        if not _is_prime(self.p):
            raise CertificateError(f"p={self.p} is not prime")
        if self.p % self.s != 1:
            raise CertificateError(f"p={self.p} is not 1 modulo s={self.s}")
        r, s = self.r, self.s
        if self.case == "1":
            ok = 1 < r and 2 * r < s
        elif self.case == "2":
            ok = r > 1 and s == 2 * r
        elif self.case == "3":
            ok = r > 1 and s == 2 * r and r % 2 == 0
        elif self.case == "4a":
            # normalized to r <= s/2; the swapped template covers the rest
            ok = 1 <= r and 2 * r <= s and s > 2 and (r - s) % 2 == 0
        else:  # 4b
            ok = 1 <= r and 2 * r < s and s > 2 and r % 2 == 0 and s % 2 == 1
        if not ok:
            raise CertificateError(f"case {self.case} incompatible with r={r}, s={s}")

    @cached_property
    def theta(self) -> Fraction:
        return Fraction(1, 2) if self.case == "1" else Fraction(self.r, self.s)

    @cached_property
    def a(self) -> int:
        # largest k with k/n strictly below the threshold; n = 1 mod s keeps
        # theta*n non-integral
        t = self.theta * self.n
        assert t.denominator != 1
        return int(t)

    @property
    def twins(self) -> bool:
        return self.case in ("2", "3")

    @property
    def zero_pad(self) -> int:
        return self.s - 2 * self.r if self.case == "1" else 0

    @property
    def has_neq(self) -> bool:
        return self.case in ("1", "2", "3")

    @property
    def m_half(self) -> int:
        # r/theta - 2
        return self.s - 2 if self.case in ("4a", "4b") else 2 * self.r - 2

    @property
    def m_flip(self) -> int:
        return self.s - 1 if self.case in ("4a", "4b") else 2 * self.r - 1

    def exponent(self, which: str) -> int:
        return PRESETS[self.preset][which]

    def tame_bit(self, k: int) -> int:
        """The parity tameness forces between u_k and u_0, for 0 <= k <= 2a:
        equal up to a, distinct above.  A b >= 1 certificate derives the
        same relation for any index it cites (`_CertBuilder.forced`)."""
        return int(k > self.a)

    def canonical_template(self) -> Template:
        neq = build_family("neq")
        if self.case in ("4a", "4b"):
            return Template(((build_family("exact", self.r, self.s),
                              build_family("nae", self.s)),))
        main_a = (build_family("atmost", self.r, self.s) if self.case == "2"
                  else build_family("exact", self.r, self.s))
        main_b = build_family("atmost", 2 * self.r - 1, self.s)
        return Template(((main_a, main_b), (neq, neq)))


# ---------------------------------------------------------------------------
# block vectors and almost rectangles
# ---------------------------------------------------------------------------

def area(blocks, p: int) -> Fraction:
    """Fraction of ones: (sum of block heights) / p**2."""
    if len(blocks) != p or (blocks and (min(blocks) < 0 or max(blocks) > p)):
        raise CertificateError(f"bad block vector of {len(blocks)} entries for p={p}")
    return Fraction(sum(blocks), p * p)


def _rot(t: tuple, i: int) -> tuple:
    """The i-th cyclic shift of a non-empty tuple: every entry moves i
    places to the right."""
    i %= len(t)
    return t[-i:] + t[:-i]


@dataclass(frozen=True)
class AlmostRectangle:
    """A cyclic shift of (z1 x count1, z2 x (p - count1)) with z1 >= z2.

    blocks == rot(canonical, shift).  Step size is z1 - z2.
    """

    blocks: tuple
    z1: int
    z2: int
    count1: int
    shift: int

    @property
    def step(self) -> int:
        return self.z1 - self.z2

    @property
    def p(self) -> int:
        return len(self.blocks)

    def canonical(self) -> tuple:
        return tuple([self.z1] * self.count1 + [self.z2] * (self.p - self.count1))


def as_almost_rectangle(z) -> Optional[AlmostRectangle]:
    """Recognize a block vector as an almost rectangle, or None.

    Linear in the length: a vector of two values is a rotation of its
    canonical form exactly when the run of the value it does not start with
    is contiguous, and the z1 run starts at the one z2 -> z1 boundary."""
    blocks = tuple(z)
    p = len(blocks)
    if not blocks:
        return None
    z2, z1 = min(blocks), max(blocks)
    if z2 < 0 or z1 > p:
        return None
    if z1 == z2:
        return AlmostRectangle(blocks, z1, z1, p, 0)
    count1 = blocks.count(z1)
    if count1 + blocks.count(z2) != p:
        return None  # a third value
    inner, length = (z2, p - count1) if blocks[0] == z1 else (z1, count1)
    start = blocks.index(inner)
    if blocks[start:start + length].count(inner) != length:
        return None  # the inner run is broken
    shift = start + length if inner == z2 else start
    return AlmostRectangle(blocks, z1, z2, count1, shift % p)


def near_threshold(z, ctx: ProofContext) -> bool:
    """Area within 1/s^(step + near-exponent) of the threshold."""
    ar = as_almost_rectangle(z)
    if ar is None:
        raise CertificateError("near-threshold test needs an almost rectangle")
    e = ar.step + ctx.exponent("near")
    window = Fraction(1, ctx.s ** e) if e >= 0 else Fraction(ctx.s ** (-e))
    return abs(area(z, ctx.p) - ctx.theta) < window


# ---------------------------------------------------------------------------
# plausibility and the explicit matrix constructions
# ---------------------------------------------------------------------------

def is_plausible_1d(ks, ctx: StaggerParams) -> bool:
    """s run lengths in 0..n totalling r*n (at most r*n in case 2); `ctx` is
    a `StaggerParams`."""
    ks = tuple(ks)
    if len(ks) != ctx.s:
        raise CertificateError(f"need {ctx.s} entries, got {len(ks)}")
    n = ctx.n
    total = 0
    for k in ks:
        if not 0 <= k <= n:
            return False
        total += k
    return ctx.meets_budget(total, ctx.r * n)


def is_plausible_2d(tuples, ctx: StaggerParams) -> bool:
    """Block vectors of width p, entries in 0..p, every column summing to r*p
    (at most r*p in case 2); `ctx` is a `StaggerParams`."""
    rows = list(tuples)
    if any(len(row) != ctx.p for row in rows):
        raise CertificateError("block vectors have the wrong width")
    if any(not (0 <= v <= ctx.p) for row in rows for v in row):
        return False
    return all(ctx.meets_budget(sum(row[i] for row in rows), ctx.r * ctx.p)
               for i in range(ctx.p))


def _ones_run(length: int, ones: int, offset: int) -> tuple:
    row = [0] * length
    for j in range(ones):
        row[(offset + j) % length] = 1
    return tuple(row)


def build_shift_matrix_1d(ks, ctx: StaggerParams):
    """Rows are staggered one-runs; returns (matrix, every column lands in P).

    Row i is the (k_1 + ... + k_{i-1})-th cyclic shift of the k_i-run, so the
    runs tile the circle and each column collects exactly r ones (at most r
    when only an upper budget is required).  `ctx` is a `StaggerParams` (a
    `ProofContext` is one).
    """
    ks = list(ks)
    if not is_plausible_1d(ks, ctx):
        raise CertificateError(f"tuple {ks} is not plausible")
    n = ctx.n
    matrix = []
    offset = 0
    for k in ks:
        matrix.append(_ones_run(n, k, offset))
        offset += k
    ok = all(ctx.meets_budget(sum(row[j] for row in matrix), ctx.r) for j in range(n))
    return matrix, ok


def build_shift_matrix_2d(tuples, ctx: StaggerParams):
    """The two-dimensional stagger: per block position, runs of length r*p are
    staggered, folded into r slices, and summed; the folded slices are glued
    into an s x n matrix whose rows are blockwise rotations of the inputs.

    Returns (matrix, every column lands in P).  Structural failures (a fold
    overlapping, a row not a rotation of its input) raise, because they would
    mean the construction itself is broken, not the input.  `ctx` is a
    `StaggerParams` (a `ProofContext` is one).
    """
    rows_in = list(tuples)
    if len(rows_in) != ctx.s:
        raise CertificateError(f"need {ctx.s} block vectors")
    if not is_plausible_2d(rows_in, ctx):
        raise CertificateError("tuple family is not plausible")
    p, r = ctx.p, ctx.r
    big = r * p
    glued = [[] for _ in range(ctx.s)]
    for i in range(p):
        offset = 0
        folded = [[0] * p for _ in range(ctx.s)]
        for j in range(ctx.s):
            k = rows_in[j][i]
            run = _ones_run(big, k, offset)
            offset += k
            for c in range(big):
                folded[j][c % p] += run[c]
            if any(v > 1 for v in folded[j]):
                raise CertificateError("internal: fold overlapped itself")
            target = tuple([1] * k + [0] * (p - k))
            if not any(_rot(target, t) == tuple(folded[j]) for t in range(p)):
                raise CertificateError("internal: folded row is not a rotation")
        for j in range(ctx.s):
            glued[j].extend(folded[j])
    matrix = [tuple(row) for row in glued]
    ok = all(ctx.meets_budget(sum(row[c] for row in matrix), r) for c in range(ctx.n))
    return matrix, ok


def complete_plausible(z, m: int, ctx: ProofContext):
    """Rotate z into m staggered rows and append the column completion l.

    Returns (rows as block tuples, l as AlmostRectangle).  The rows are
    p-ary rotations of z (so they share z's value and area); l tops every
    column up to r*p, and comes out an almost rectangle of the same step
    size.
    """
    ar, l_ar = _complete(z, m, ctx)
    return [_rot(ar.canonical(), (i * ar.count1 + ar.shift) % ctx.p) for i in range(m)], l_ar


def _complete(z, m: int, ctx: ProofContext) -> Tuple[AlmostRectangle, AlmostRectangle]:
    """`complete_plausible` without the rows: (z, l) as almost rectangles,
    in time linear in p whatever m is."""
    ar = as_almost_rectangle(z)
    if ar is None:
        raise CertificateError("completion needs an almost rectangle")
    if m not in (ctx.m_half, ctx.m_flip):
        raise CertificateError(f"m={m} is not one of the two admissible counts")
    gap = abs(area(ar.blocks, ctx.p) - ctx.theta)
    if gap > Fraction(1, ctx.s ** ctx.exponent("producing")):
        raise CertificateError("area too far from the threshold to complete")
    p = ctx.p
    want = ctx.r * p
    l_blocks = tuple([want - total for total in _stagger_sums(ar, m)])
    for i, v in enumerate(l_blocks):
        if not (0 <= v <= p):
            raise CertificateError(f"completion column {i} out of range ({v})")
    # p is prime and 0 < m < p, so 0 < rem < p in _stagger_sums unless z is
    # flat: l is an almost rectangle of z's step
    return ar, as_almost_rectangle(l_blocks)


def _stagger_sums(ar: AlmostRectangle, m: int) -> List[int]:
    """The column sums of ar's m staggered rows, without building them.

    Row i holds z1 on the count1 columns from (i*count1 + shift) mod p, so
    the z1 runs tile the m*count1 columns from shift, going round the
    circle: with m*count1 = q*p + rem, the rem columns from shift hold z1
    in q + 1 rows and the others in q rows."""
    p = ar.p
    q, rem = divmod(m * ar.count1, p)
    sums = [m * ar.z2 + ar.step * q] * p
    for j in range(ar.shift, ar.shift + rem):
        sums[j % p] += ar.step
    return sums


def halve(l) -> Tuple[AlmostRectangle, AlmostRectangle]:
    """Round each block down and up; both halves are almost rectangles of
    strictly smaller step (the input step must be at least 2): rounding
    keeps the blocks' two runs, and a step d >= 2 becomes one in 1..d-1."""
    ar = as_almost_rectangle(l)
    if ar is None:
        raise CertificateError("halving needs an almost rectangle")
    if ar.step < 2:
        raise CertificateError("halving needs step size >= 2")
    lo = tuple(v // 2 for v in ar.blocks)
    hi = tuple(v - v // 2 for v in ar.blocks)
    return as_almost_rectangle(lo), as_almost_rectangle(hi)


# ---------------------------------------------------------------------------
# claims, justifications, nodes
# ---------------------------------------------------------------------------

ZERO = ("zero",)


def sigma_term(k: int) -> tuple:
    return ("sigma", k)


def rect_term(blocks) -> tuple:
    return ("rect", tuple(blocks))


def _term_to_json(term):
    if term[0] == "sigma":
        return {"sigma": term[1]}
    return {"blocks": list(term[1])}


_SIGMA_TERM = frozenset(("sigma",))
_RECT_TERM = frozenset(("blocks",))


def _term_from_json(obj):
    if len(obj) > len(_SIGMA_TERM):  # as many as _RECT_TERM
        _stray_field(obj, _SIGMA_TERM if "sigma" in obj else _RECT_TERM)
    if "sigma" in obj:
        return "sigma", _int(obj["sigma"], "sigma index")
    return "rect", _ints(obj["blocks"], "block height")


@dataclass(slots=True)
class Node:
    id: int
    claim: dict
    justify: dict
    refs: tuple
    # the first key of the node object in the file that is none of the four
    # fields above; the checker rejects the node for it
    stray: Optional[str] = None

    def to_json(self) -> dict:
        return {"id": self.id, "claim": self.claim, "justify": self.justify,
                "refs": list(self.refs)}


@dataclass(frozen=True)
class Certificate:
    context: ProofContext
    nodes: tuple
    conclusion: str  # "tame_base" or "contradiction"

    def to_json(self) -> dict:
        ctx = self.context
        return {
            "context": {"r": ctx.r, "s": ctx.s, "case": ctx.case, "p": ctx.p,
                        "b": ctx.b,
                        "theta": f"{ctx.theta.numerator}/{ctx.theta.denominator}",
                        "exponent_preset": ctx.preset},
            "nodes": [n.to_json() for n in self.nodes],
            "conclusion": self.conclusion,
        }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


_NODE_KEYS = frozenset(("id", "claim", "justify", "refs"))


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate.  Its containers are read strictly: the
    certificate and its context must be JSON objects, `nodes` and every
    `refs` JSON arrays and every node a JSON object with all four fields;
    anything else raises CertificateError, naming the container."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        # besides JSONDecodeError: an integer of more digits than int()
        # converts, and nesting past the interpreter's recursion limit
        raise CertificateError(f"bad JSON: {e}")
    if type(obj) is not dict:
        raise CertificateError("malformed certificate: top level is not a JSON object")
    try:
        c = obj["context"]
        if type(c) is not dict:
            raise CertificateError("malformed certificate: context is not a JSON object")
        preset = c["exponent_preset"]
        if type(preset) is not str:  # a list or object would not hash
            raise CertificateError(f"malformed certificate: exponent_preset "
                                   f"{_quote(preset)} is not a string")
        ctx = ProofContext(c["r"], c["s"], c["case"], c["p"], c["b"], preset)
        # theta is stored as the string the writer prints, in lowest terms
        theta = ctx.theta
        if c["theta"] != f"{theta.numerator}/{theta.denominator}":
            raise CertificateError("stored threshold disagrees with the case")
        items = obj["nodes"]
        if type(items) is not list:
            raise CertificateError("malformed certificate: nodes is not a JSON array")
        nodes = []
        for nd in items:
            # a node's index is the count of nodes read before it
            try:
                nid, claim, justify, refs = nd["id"], nd["claim"], nd["justify"], nd["refs"]
            except KeyError as e:
                raise CertificateError(f"malformed certificate: node {len(nodes)} "
                                       f"has no field {e}")
            except TypeError:  # any JSON value but an object
                raise CertificateError(f"malformed certificate: node {len(nodes)} "
                                       "is not a JSON object")
            if type(refs) is not list:
                raise CertificateError(f"malformed certificate: node {len(nodes)}: "
                                       "refs is not a JSON array")
            # with the four fields present, a fifth key is one no rule reads;
            # ids are kept as read, and the verifier rejects a node whose id
            # is not its index
            stray = None
            if len(nd) > len(_NODE_KEYS):
                stray = next(k for k in nd if k not in _NODE_KEYS)
            nodes.append(Node(nid, claim, justify, tuple(refs), stray))
        conclusion = obj["conclusion"]
    except KeyError as e:
        raise CertificateError(f"malformed certificate: missing field {e}")
    return Certificate(ctx, tuple(nodes), conclusion)


# claim constructors

def claim_forced(k: int, bit: int) -> dict:
    return {"kind": "forced", "k": k, "bit": bit}


def claim_absolute(k: int, bit: int) -> dict:
    return {"kind": "absolute", "k": k, "bit": bit}


def claim_distinct(a, b) -> dict:
    return {"kind": "distinct", "a": _term_to_json(a), "b": _term_to_json(b)}


def claim_equal(a, b) -> dict:
    return {"kind": "equal", "a": _term_to_json(a), "b": _term_to_json(b)}


def claim_tame(blocks) -> dict:
    return {"kind": "tame", "blocks": list(blocks)}


_SIGMA0 = sigma_term(0)

# the fields of each kind of claim, and of each rule's justification
_BIT_CLAIM = frozenset(("kind", "k", "bit"))
_PAIR_CLAIM = frozenset(("kind", "a", "b"))
_TAME_CLAIM = frozenset(("kind", "blocks"))
_RULE_FIELDS = {
    "closure": frozenset(("tag",)),
    "plausible1d": frozenset(("tag", "tuples", "twin")),
    "negation": frozenset(("tag", "k")),
    "double_cyclicity": frozenset(("tag",)),
    "halving": frozenset(("tag",)),
    "completion": frozenset(("tag",)),
    "boundedness": frozenset(("tag", "z21", "z22")),
}


def _claim_edge(claim: dict, ctx: ProofContext) -> tuple:
    """The one parity edge (x, y, parity) a claim states."""
    kind = claim["kind"]
    if kind == "forced" or kind == "absolute":
        if len(claim) > len(_BIT_CLAIM):
            _stray_field(claim, _BIT_CLAIM)
        k = _int(claim["k"], "claim k")
        bit = claim["bit"]
        if type(bit) is not int or bit not in (0, 1):
            raise CertificateError(f"claim bit {_quote(bit)} is not 0 or 1")
        return ("sigma", k), (_SIGMA0 if kind == "forced" else ZERO), bit
    if kind == "distinct" or kind == "equal":
        if len(claim) > len(_PAIR_CLAIM):
            _stray_field(claim, _PAIR_CLAIM)
        return (_term_from_json(claim["a"]), _term_from_json(claim["b"]),
                int(kind == "distinct"))
    if kind == "tame":
        if len(claim) > len(_TAME_CLAIM):
            _stray_field(claim, _TAME_CLAIM)
        blocks = _ints(claim["blocks"], "block height")
        return rect_term(blocks), sigma_term(0), int(area(blocks, ctx.p) > ctx.theta)
    raise CertificateError(f"unknown claim kind {_quote(kind)}")


# ---------------------------------------------------------------------------
# the parity engine
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class QConstraint:
    """Image membership of one plausible family: the multiset of term values
    has its weight inside the allowed set.

    With a twin, the complemented family is plausible too, so the weight
    with the flip-marked terms complemented must also lie in the set.  Flip
    marking matters because zero-height padding tuples are appended fresh to
    both families rather than complemented.
    """

    terms: tuple  # ((term, multiplicity, flip_in_twin), ...)
    weights: frozenset
    twin: bool


class _Contradiction(Exception):
    """The facts contradict each other; `edge` is the first one that
    contradicts the facts before it."""

    def __init__(self, edge: tuple):
        super().__init__(edge)
        self.edge = edge


def _union(cls: Dict[tuple, tuple], members: Dict[tuple, list], x, y,
           parity: int) -> bool:
    """Join x's and y's classes at the given parity.

    `cls` maps a term to its (root, parity to it) and `members` a root to
    its class, so a lookup is one dict read; a term `cls` lacks is its own
    root.  A union relabels the smaller class.  Returns whether the edge
    was new; raises `_Contradiction`, changing nothing, when the classes
    already hold the opposite parity."""
    cx = cls.get(x)
    cy = cls.get(y)
    if cx is None:
        if cy is None:
            if x == y:
                if parity:
                    raise _Contradiction((x, y, parity))
                return False
            cls[x] = (x, 0)
            cls[y] = (x, parity)
            members[x] = [x, y]
        else:
            root = cy[0]
            cls[x] = (root, cy[1] ^ parity)
            members[root].append(x)
    elif cy is None:
        root = cx[0]
        cls[y] = (root, cx[1] ^ parity)
        members[root].append(y)
    else:
        (rx, px), (ry, py) = cx, cy
        if rx == ry:
            if px ^ py != parity:
                raise _Contradiction((x, y, parity))
            return False
        if len(members[rx]) < len(members[ry]):
            rx, ry = ry, rx
        off = px ^ py ^ parity  # the parity between the two roots
        small = members.pop(ry)
        for t in small:
            cls[t] = rx, cls[t][1] ^ off
        members[rx] += small
    return True


def _flat_classes(fact_edges) -> Dict[tuple, tuple]:
    """The classes the facts form, flat: term -> (root, parity to it); a
    term no fact names is left out, as its own class.  Raises
    `_Contradiction` when the facts are contradictory."""
    cls: Dict[tuple, tuple] = {}
    members: Dict[tuple, list] = {}
    for x, y, parity in fact_edges:
        _union(cls, members, x, y, parity)
    return cls


def _fold(terms, cls: Dict[tuple, tuple], zroot, zbit: int, twin: bool):
    """A family's weight as base + the gains of the free roots set to 1.

    `cls` maps a term to its (root, parity); a term it lacks is its own
    root.  In the complemented family (twin) a flip-marked term counts
    mult - weight.  ZERO's root is not free: its gain goes into the base at
    its bit."""
    base = 0
    gain: Dict[tuple, int] = {}
    for t, mult, flip in terms:
        root, par = cls.get(t) or (t, 0)
        if twin and flip:
            par ^= 1
        if par:  # the term is 1 exactly when its root is 0
            base += mult
            mult = -mult
        gain[root] = gain.get(root, 0) + mult
    base += gain.pop(zroot, 0) * zbit
    return base, gain


def _survivors(con: QConstraint, cls: Dict[tuple, tuple], extra_roots=()):
    """The assignments of the free classes that the constraint admits.

    `cls` maps a term to its (root, parity); a term it lacks is its own root.
    The free roots are the roots of the constraint's classes and the extra
    roots, ZERO's root left out; free root i is bit i of an assignment
    mask, and ZERO's root takes the bit that makes ZERO itself 0.  Returns
    (ZERO's root, its bit, the free roots, the surviving masks).  Raises if
    too many roots are free.
    """
    zroot, zbit = cls.get(ZERO) or (ZERO, 0)
    base, gain = _fold(con.terms, cls, zroot, zbit, False)
    for root in extra_roots:
        if root != zroot and root not in gain:
            gain[root] = 0
    if len(gain) > MAX_FREE_ROOTS:
        raise CertificateError("too many undetermined classes for a local check")
    free = list(gain)
    weights = con.weights
    masks = []
    m = 0
    for w in _mask_sums(base, gain.values()):
        if w in weights:
            masks.append(m)
        m += 1
    if con.twin:
        twin_base, twin_gain = _fold(con.terms, cls, zroot, zbit, True)
        twin_sums = _mask_sums(twin_base, [twin_gain.get(r, 0) for r in free])
        masks = [m for m in masks if twin_sums[m] in weights]
    return zroot, zbit, free, masks


def _mask_sums(base: int, gains) -> List[int]:
    """The weight under every mask: base plus gains[i] for each set bit i
    (bit i doubles the list)."""
    sums = [base]
    for g in gains:
        for i in range(len(sums)):
            sums.append(sums[i] + g)
    return sums


def _deduce_claim(claim: dict, ctx: ProofContext, con: Optional[QConstraint],
                  fact_edges) -> str | tuple:
    """Check that the claim holds in every consistent assignment.

    fact_edges form flat classes; con (a twin pair is folded into one
    constraint) prunes the free-root assignments, and without it the claim
    must follow from the facts alone.  Returns the claim's parity edge when
    the claim is forced, else a reason string.
    """
    try:
        cls = _flat_classes(fact_edges)
    except _Contradiction:
        return "referenced facts are contradictory"
    edge = x, y, parity = _claim_edge(claim, ctx)
    (rx, px), (ry, py) = cls.get(x) or (x, 0), cls.get(y) or (y, 0)
    if con is None:
        # pure closure: the claim must already follow from the facts
        if rx != ry:
            return "claim does not follow from the referenced facts"
        if px ^ py != parity:
            return "claim contradicts the referenced facts"
        return edge
    zroot, zbit, free, masks = _survivors(con, cls, (rx, ry))
    if not masks:
        return "no consistent assignment survives (inconsistent node)"
    # x ^ y == parity holds in a mask when the bits of x's and y's roots XOR
    # to `want`; a root that is not free is ZERO's, with its fixed bit
    want = px ^ py ^ parity
    select = 0
    for root in (rx, ry):
        if root == zroot:
            want ^= zbit
        else:
            select ^= 1 << free.index(root)
    for m in masks:
        if (m & select).bit_count() & 1 != want:
            return "claim is not forced by the constraint"
    return edge


# ---------------------------------------------------------------------------
# chain generation
# ---------------------------------------------------------------------------

def _ktuple_constraint(ks, weights: frozenset, twin: bool) -> QConstraint:
    """The family of one-run tuples of lengths ks: one term per distinct
    length, with its multiplicity, in order of first occurrence."""
    mult: Dict[int, int] = {}
    for k in ks:
        mult[k] = mult.get(k, 0) + 1
    terms = []
    for k, m in mult.items():
        terms.append((("sigma", k), m, True))
    return QConstraint(tuple(terms), weights, twin)


def _near_equal(total: int, parts: int) -> list:
    """total split into parts entries that differ by at most one, the larger
    ones first."""
    q, rem = divmod(total, parts)
    return [q + 1] * rem + [q] * (parts - rem)


def _twin_available(ks, ctx: ProofContext) -> bool:
    """The complement rule applies only when the complemented family is
    itself plausible (automatic at exact budget when s = 2r)."""
    if not ctx.twins:
        return False
    return is_plausible_1d([ctx.n - k for k in ks], ctx)


def gen_stepone_chain(ctx: ProofContext) -> List[Node]:
    """Step one as a b = 0 certificate holds it, unchecked: the plausible
    tuple and negation nodes that `_CertBuilder.derive` writes for each
    index 0..2a.

    These are the nodes that `propagate` re-derives on its own, reading
    only their justifications; their refs name earlier chain nodes."""
    builder = _CertBuilder(ctx)
    builder.derive_tame_range()
    return builder.nodes


@dataclass
class PropagationResult:
    status: str  # "ok", "incomplete", or "contradiction"
    forced: Dict[int, int]
    absolute: Dict[int, int]
    missing: tuple = ()

    def matches_tame_pattern(self, ctx: ProofContext) -> bool:
        return self.status == "ok" and all(
            self.forced.get(k) == ctx.tame_bit(k) for k in range(2 * ctx.a + 1))


def propagate(chain, q: BoolRelation, ctx: ProofContext) -> PropagationResult:
    """Run the fixpoint deduction engine over a chain's constraints.

    The chain's claims are ignored: only the justifications' tuples (and
    negation steps) feed the engine, so this independently re-derives what
    the chain asserts.  Deduction is per-constraint pruning over at most
    MAX_FREE_ROOTS undetermined classes, iterated to a fixpoint; each
    relation it forces joins the flat classes (`_union`) that the next
    constraint reads.  The result is order-independent.
    """
    weights = frozenset(q.weights)
    constraints: List[QConstraint] = []
    negations = []
    for node in chain:
        tag = node.justify.get("tag")
        if tag == "plausible1d":
            for ks in node.justify["tuples"]:
                if not is_plausible_1d(ks, ctx):
                    raise CertificateError(f"chain tuple {ks} is not plausible")
                twin = bool(node.justify.get("twin", False))
                if twin and not _twin_available(ks, ctx):
                    raise CertificateError("complement rule unavailable for this tuple")
                constraints.append(_ktuple_constraint(ks, weights, twin))
        elif tag == "negation":
            if not ctx.has_neq:
                raise CertificateError("negation step in a case without disequality")
            k = node.justify["k"]
            negations.append((sigma_term(k), sigma_term(ctx.n - k), 1))
        else:
            raise CertificateError(f"chain nodes cannot carry {tag!r}")

    cls: Dict[tuple, tuple] = {}
    members: Dict[tuple, list] = {}
    try:
        for edge in negations:
            _union(cls, members, *edge)
        changed = True
        while changed:
            changed = False
            for con in constraints:
                try:
                    zroot, zbit, free, masks = _survivors(con, cls)
                except CertificateError:
                    continue
                if not masks:
                    return PropagationResult("contradiction", {}, {})
                # root i's bit in each mask: ZERO's root first, then the free ones
                roots = [zroot] + free
                bits = [[zbit] * len(masks)] + [[(m >> i) & 1 for m in masks]
                                                 for i in range(len(free))]
                for i in range(len(roots)):
                    for j in range(i + 1, len(roots)):
                        rels = {u ^ v for u, v in zip(bits[i], bits[j])}
                        if len(rels) == 1 and _union(cls, members, roots[i],
                                                     roots[j], rels.pop()):
                            changed = True
    except _Contradiction:
        return PropagationResult("contradiction", {}, {})

    root0, par0 = cls.get(_SIGMA0) or (_SIGMA0, 0)
    rootz, parz = cls.get(ZERO) or (ZERO, 0)
    forced, absolute = {}, {}
    for k in range(0, ctx.n + 1):
        t = sigma_term(k)
        root, par = cls.get(t) or (t, 0)
        if root == root0:
            forced[k] = par ^ par0
        if root == rootz:
            absolute[k] = par ^ parz
    missing = tuple(k for k in range(0, 2 * ctx.a + 1) if k not in forced)
    if missing:
        return PropagationResult("incomplete", forced, absolute, missing)
    return PropagationResult("ok", forced, absolute)

# ---------------------------------------------------------------------------
# per-node verification
# ---------------------------------------------------------------------------

def _padded_2d_constraint(z_blocks, members, pad: int, q_weights, twin: bool,
                          z_mult: int) -> QConstraint:
    mult: Dict[tuple, int] = {rect_term(z_blocks): z_mult}
    for blocks in members:
        t = rect_term(blocks)
        mult[t] = mult.get(t, 0) + 1
    terms = [(t, m, True) for t, m in sorted(mult.items())]
    if pad:
        # padding tuples are appended fresh to the complemented family too
        terms.append((sigma_term(0), pad, False))
    return QConstraint(tuple(terms), q_weights, twin)


def _check_completion_payload(node: Node, ctx: ProofContext, q_weights: frozenset,
                              facts: list) -> str | tuple:
    """The halving and completion rules: the claim's rectangle z, its m
    staggered rotations, and the column completion l or, for halving, l's
    two halves in place of l form one plausible family (and, with a twin,
    so do their complements).

    Only z is read; m is the tag's admissible row count, and l and the
    halves are computed by the construction.  So every column sums to
    exactly r*p, and with a twin the family has 2r rows."""
    if node.claim.get("kind") != "tame":
        return "claim does not name the constructed rectangle"
    z = _block_field(node.claim["blocks"], ctx.p)
    halving = node.justify["tag"] == "halving"
    m = ctx.m_half if halving else ctx.m_flip
    try:
        _, l_ar = _complete(z, m, ctx)
    except CertificateError as e:
        return f"completion rejected: {e}"
    members = [l_ar.blocks]
    if halving:
        try:
            members = [h.blocks for h in halve(l_ar.blocks)]
        except CertificateError as e:
            return f"halving rejected: {e}"
    con = _padded_2d_constraint(z, members, ctx.zero_pad, q_weights, ctx.has_neq, m)
    return _deduce_claim(node.claim, ctx, con, facts)


def _check_node(node: Node, ctx: ProofContext, q_weights: frozenset,
                edges: list, template_has_neq: bool) -> str | tuple:
    """Re-derive one node's claim; its parity edge when sound, else the
    reason string.

    `edges` holds the parity edge of each earlier node's claim, by id; the
    node's id is its index.  A missing or loosely typed field raises
    KeyError, TypeError or ValueError instead; the verifier reports it as a
    malformed node."""
    claim, justify, refs = node.claim, node.justify, node.refs
    if type(claim) is not dict:
        return "claim is not a JSON object"
    if type(justify) is not dict:
        return "justification is not a JSON object"
    if node.stray is not None:
        raise CertificateError(f"unexpected field {_quote(node.stray)}")
    facts = []
    count = len(edges)
    for rid in refs:
        if type(rid) is not int:
            return f"reference {_quote(rid)} is not an integer"
        if not 0 <= rid < count:
            return f"reference {_quote(rid)} is not an earlier node"
        facts.append(edges[rid])
    # A justification longer than its rule's fields carries a field that
    # no rule reads.  An unhashable tag is left to the unknown-rule reason.
    tag = justify.get("tag")
    fields = _RULE_FIELDS.get(tag) if type(tag) is str else None
    if fields is not None and len(justify) > len(fields):
        _stray_field(justify, fields)

    if tag == "closure":  # the most frequent rule
        return _deduce_claim(claim, ctx, None, facts)

    if tag == "plausible1d":
        tuples = justify.get("tuples")
        if not isinstance(tuples, list) or len(tuples) != 1:
            return "plausible tuple nodes carry exactly one tuple"
        ks = _ints(tuples[0], "tuple entry")
        if not is_plausible_1d(ks, ctx):
            return f"tuple {_quote(list(ks))} is not plausible"
        twin = justify.get("twin")
        if type(twin) is not bool:
            return "twin flag is not true or false"
        if twin:
            if not template_has_neq:
                return "complement rule needs a disequality pair"
            if not _twin_available(ks, ctx):
                return "complement rule unavailable for this tuple"
        return _deduce_claim(claim, ctx, _ktuple_constraint(ks, q_weights, twin), facts)

    if tag == "negation":
        if not template_has_neq:
            return "negation step needs a disequality pair"
        k = _int(justify["k"], "negation index")
        if not (0 <= k <= ctx.n):
            return "negation index out of range"
        edge = (sigma_term(k), sigma_term(ctx.n - k), 1)
        return _deduce_claim(claim, ctx, None, facts + [edge])

    if tag == "double_cyclicity":
        if claim.get("kind") != "tame":
            return "claim does not name the flattened rectangle"
        blocks = _block_field(claim["blocks"], ctx.p)
        ar = as_almost_rectangle(blocks)
        if ar is None or ar.step > 1:
            return "row-wise reading needs step size at most one"
        edge = (rect_term(blocks), sigma_term(sum(blocks)), 0)
        return _deduce_claim(claim, ctx, None, facts + [edge])

    if tag in ("halving", "completion"):
        return _check_completion_payload(node, ctx, q_weights, facts)

    if tag == "boundedness":
        z21 = _int(justify["z21"], "pattern height")
        z22 = _int(justify["z22"], "pattern height")
        p, b, theta = ctx.p, ctx.b, ctx.theta
        # The claim's rectangles are sized first: the file bounds their
        # length, so the p-entry rectangles below are built only when the
        # certificate itself holds 2p entries.
        for side in (claim.get("a"), claim.get("b")):
            if not (type(side) is dict and type(side.get("blocks")) is list
                    and len(side["blocks"]) == p):
                return "claim does not name the two finale rectangles"
        if not (theta * p - 2 * b < z21 < z22 < theta * p and 0 <= z21):
            return "pattern heights leave the pigeonhole interval"
        zbs = _finale_rectangles(ctx, z21, z22)
        if zbs is None:
            return "finale rectangle is not near-threshold"
        want = claim_distinct(rect_term(zbs[0]), rect_term(zbs[1]))
        if claim != want:
            return "claim does not name the two finale rectangles"
        return _deduce_claim(claim, ctx, None, facts)

    return f"unknown justification {_quote(tag)}"


# ---------------------------------------------------------------------------
# certificate generation
# ---------------------------------------------------------------------------

def _pigeonhole_interval(ctx: ProofContext) -> range:
    """The pattern heights: integers k >= 0 with theta*p - 2b < k < theta*p.

    The lower end is truncated toward zero, so for -1 < theta*p - 2b < 0
    the height 0 is left out.  That is kept on purpose: the contradiction
    needs any b + 1 heights from the admissible range, and generation and
    the checker read this same subset.  So a missing height can make a p
    unworkable, but it cannot let an unsound certificate through.
    """
    lo, hi = ctx.theta * ctx.p - 2 * ctx.b, ctx.theta * ctx.p
    return range(max(int(lo) + 1, 0), math.ceil(hi))


class _CertBuilder:
    """Emits nodes and keeps, for every term their claims name, the node
    that links it to the root of its class.  No node is checked here:
    `gen_certificate` re-derives each one once, in its final
    `verify_certificate`.  Step one is one construction, `derive`: at
    b = 0 over every index 0..2a (`derive_tame_range`), and at b >= 1 only
    for the indices that `forced` is asked for.  It only appends, to
    `nodes` and its three dicts, so an attempt that fails rolls back to
    the `_mark` taken before it and leaves nothing behind.

    Every claim relates a new term straight to the root of the class it
    joins: u_a in cases 3, 4a and 4b, the constant in cases 1 and 2.  A
    relation between two known terms then costs one reference per term:
    the node that links it to the root."""

    def __init__(self, ctx: ProofContext):
        self.ctx = ctx
        self.nodes: List[Node] = []
        # term -> the node linking it to its root; None for a root
        self.up: Dict[tuple, Optional[int]] = {}
        self.forced_ids: Dict[int, int] = {}
        self.tame_ids: Dict[tuple, int] = {}
        if ctx.case not in ("1", "2"):
            self.up[sigma_term(ctx.a)] = None  # the root of `_derive_nae`

    def _mark(self) -> tuple:
        return len(self.nodes), len(self.up), len(self.forced_ids), len(self.tame_ids)

    def _rollback(self, mark: tuple) -> None:
        """Drop all emitted since `mark`: each dict's newest entries."""
        del self.nodes[mark[0]:]
        for d, size in zip((self.up, self.forced_ids, self.tame_ids), mark[1:]):
            while len(d) > size:
                d.popitem()

    def _links(self, terms) -> List[int]:
        """The node linking each known term to its root; a root, or a term
        not yet named, has none.  Maybe repeated; `emit` sorts them once."""
        return [nid for nid in map(self.up.get, terms) if nid is not None]

    def emit(self, claim: dict, pair: tuple, justify: dict, refs) -> int:
        """Append a node; `pair` is the two terms the claim relates."""
        nid = len(self.nodes)
        self.nodes.append(Node(nid, claim, justify, tuple(sorted(set(refs)))))
        # A builder claim either names a new term or relates two terms the
        # facts already relate, so the facts form trees and a claim between
        # two linked terms adds nothing.
        x, y = pair
        up = self.up
        if x not in up:
            if y not in up:
                if y == ZERO:
                    x, y = y, x
                up[x] = None  # the constant, when present, is the root
                up[y] = nid
            else:
                up[x] = nid
        elif y not in up:
            up[y] = nid
        return nid

    def emit_tame(self, blocks: tuple, justify: dict, refs) -> int:
        return self.emit(claim_tame(blocks), (rect_term(blocks), _SIGMA0), justify, refs)

    # -- step one --

    def _derive_absolute(self, k: int) -> None:
        """Name u_k in case 1 or 2, unless it is named.  Above a, u_k = 1 is
        the negation of u_(n-k).  For k <= a, u_k = 0 by one tuple in which
        u_k = 1 would put 2r ones or more, past the B side's 2r - 1.

        Case 2: the tuple [k]*s, of total 2rk < rn.  Case 1: r copies of k,
        r copies of an index h whose u_h = 1 is named first, and s - 2r
        slack entries, split near-equally, that absorb the rest of r*n.  At
        k = a, h = a and nothing is named first.  Below a, h is the least
        index above a that keeps each slack entry within n,
        h = max(a + 1, ceil(n - k - (s - 2r)n/r)), so the recursion moves
        from k to n - h, which is a or more than k + n/r - 1: it reaches a
        in O(r) steps, whatever p is."""
        x = sigma_term(k)
        if x in self.up:
            return
        ctx = self.ctx
        n, a, r, s = ctx.n, ctx.a, ctx.r, ctx.s
        if k > a:
            self._derive_absolute(n - k)
            self.emit(claim_absolute(k, 1), (x, ZERO), {"tag": "negation", "k": n - k},
                      self._links([sigma_term(n - k)]))
            return
        if ctx.case == "2":
            ks, refs = [k] * s, []
        else:
            h = a if k == a else max(a + 1, -(((k - n) * r + (s - 2 * r) * n) // r))
            if h > a:
                self._derive_absolute(h)
            ks = [k] * r + [h] * r + _near_equal(r * (n - k - h), s - 2 * r)
            refs = self._links([sigma_term(h)])
        self.emit(claim_absolute(k, 0), (x, ZERO),
                  {"tag": "plausible1d", "tuples": [ks], "twin": _twin_available(ks, ctx)},
                  refs)

    def _derive_nae(self, k: int, active: frozenset = frozenset()) -> None:
        """Name u_k in case 3, 4a or 4b, unless it is named, against the
        root u_a.  Take j copies of k and a near-equal split of r*n - j*k
        into s - j entries.  When every entry lies strictly on the other
        side of theta*n from k, the entries, named first, are known equal
        (this recursion names each index e at parity [e > a] to u_a), and
        not-all-equal (in case 3, the B side with its twin) forces u_k to
        differ from them.

        The split's mean lies j/(s - j) times as far from theta*n as k: at
        j = 1, at most half as far.  So away from the threshold each step
        at least halves the distance, and the indices one level needs span
        an interval that the next level maps to one about 1/(s - 1) as wide
        plus two: a cited index needs O(log n) nodes.  Near the threshold
        rounding can put an entry on k's side, so each j from 1 up is
        tried in turn, the entry nearer theta*n derived first; a j with an
        entry still being derived (`active`) would be a cycle and is passed
        over; so is a j whose entries fail, once all they emitted is rolled
        back.  At k = a + 1 and j = r the split is s - r copies of a.
        Raises GenerationError naming u_k when no j works."""
        x = sigma_term(k)
        up = self.up
        if x in up:
            return
        ctx = self.ctx
        r, s, n, a = ctx.r, ctx.s, ctx.n, ctx.a
        for j in range(1, s):
            rest = r * n - j * k
            if not 0 <= rest <= (s - j) * n:
                continue
            split = _near_equal(rest, s - j)
            hi, lo = split[0], split[-1]
            if hi > a if k > a else lo <= a:
                continue  # an entry on k's side
            if sigma_term(hi) not in up or sigma_term(lo) not in up:
                if not active.isdisjoint(split):
                    continue  # an entry still being derived
                mark = self._mark()
                try:
                    for e in ((hi, lo) if k > a else (lo, hi)):
                        self._derive_nae(e, active | {k})
                except GenerationError:
                    self._rollback(mark)
                    continue
            ks = [k] * j + split
            root = sigma_term(a)
            self.emit((claim_distinct if k > a else claim_equal)(root, x), (root, x),
                      {"tag": "plausible1d", "tuples": [ks], "twin": _twin_available(ks, ctx)},
                      self._links((sigma_term(hi), sigma_term(lo))))
            return
        raise GenerationError(f"no plausible tuple forces {x}")

    def derive(self, k: int) -> None:
        """Name u_k at its tame parity, [k > a] against u_0, unless it is
        named, or raise GenerationError naming u_k: by `_derive_absolute`
        in cases 1 and 2, and by `_derive_nae` in cases 3, 4a and 4b."""
        if self.ctx.case in ("1", "2"):
            self._derive_absolute(k)
        else:
            self._derive_nae(k)

    def derive_tame_range(self) -> None:
        """Name u_0 .. u_2a, the indices that a b = 0 certificate's
        `tame_base` conclusion replays, outward from the threshold: a,
        a + 1, a - 1, a + 2, a - 2, and so on.  So the entries of each
        derivation, which lie nearer the threshold, are mostly named
        already.  Refuses a context whose 2a + 1 nodes pass
        MAX_GENERATED before naming any."""
        a = self.ctx.a
        _refuse_oversized(2 * a + 1, "step-one nodes")
        self.derive(a)
        for i in range(1, a + 1):
            self.derive(a + i)
            self.derive(a - i)

    def forced(self, k: int) -> int:
        """The closure node stating u_k's tame relation to u_0, for a b >= 1
        certificate: emitted the first time it is cited, after u_k and u_0
        are named on demand, on their links to their common root."""
        nid = self.forced_ids.get(k)
        if nid is None:
            self.derive(k)
            self.derive(0)
            x = sigma_term(k)
            nid = self.forced_ids[k] = self.emit(
                claim_forced(k, self.ctx.tame_bit(k)), (x, _SIGMA0), {"tag": "closure"},
                self._links((x, _SIGMA0)) if k else [])
        return nid

    # -- induction over almost rectangles --

    def ensure_tame(self, blocks, depth: int = 0) -> int:
        blocks = tuple(blocks)
        if blocks in self.tame_ids:
            return self.tame_ids[blocks]
        if depth > MAX_FLIP_DEPTH:
            raise GenerationError("induction recursion exceeded its depth cap")
        ar = as_almost_rectangle(blocks)  # every caller passes one

        if ar.step <= 1:
            nid = self.emit_tame(blocks, {"tag": "double_cyclicity"},
                                 [self.forced(sum(blocks))])
        else:
            mark = self._mark()
            try:
                nid, halving = self._try_halving(blocks, depth), None
            except GenerationError as e:
                self._rollback(mark)
                nid, halving = None, e  # why the halving failed
            if nid is None:
                try:
                    nid = self._flip(blocks, depth)
                except GenerationError as e:
                    raise e if halving is None else GenerationError(f"{e}; halving: ({halving})")
        self.tame_ids[blocks] = nid
        return nid

    def _try_halving(self, blocks, depth: int) -> Optional[int]:
        """The halving node for `blocks`, or None when no halving applies.
        A half whose subproof fails raises its GenerationError, and
        `ensure_tame` rolls the attempt back before it falls back."""
        ctx = self.ctx
        lam = area(blocks, ctx.p)  # never theta: see ProofContext.a
        if abs(lam - ctx.theta) < Fraction(1, ctx.s ** (ctx.b + ctx.exponent("tooclose"))):
            return None  # too close to the threshold
        try:
            _, l_ar = _complete(blocks, ctx.m_half, ctx)
            h1, h2 = halve(l_ar.blocks)
        except CertificateError:
            return None
        want = ctx.theta < lam  # children must sit on the other side
        for h in (h1, h2):
            side = area(h.blocks, ctx.p)
            if (side < ctx.theta) != want:
                return None
        s1 = self.ensure_tame(h1.blocks, depth + 1)
        s2 = self.ensure_tame(h2.blocks, depth + 1)
        return self.emit_tame(blocks, {"tag": "halving"}, [s1, s2])

    def _flip(self, blocks, depth: int) -> int:
        ctx = self.ctx
        try:
            _, w_ar = _complete(blocks, ctx.m_flip, ctx)
        except CertificateError as e:
            raise GenerationError(f"p too small: {e}")
        sub = self.ensure_tame(w_ar.blocks, depth + 1)
        return self.emit_tame(blocks, {"tag": "completion"}, [sub])


def _finale_heights(ctx: ProofContext, z2: int) -> int:
    """The maximal first-block height keeping the area below the threshold:
    the largest z1 <= p with m*z1 + (p - m)*z2 < theta*p^2, for a pattern
    height 0 <= z2 < theta*p.  There z1 = 0 leaves the area (p - m)*z2/p^2
    below theta, so the result is never negative.  Every context has
    p >= 5, so m = (p - 1) // 2 >= 2."""
    p, m = ctx.p, (ctx.p - 1) // 2
    return min(p, math.ceil((ctx.theta * p * p - (p - m) * z2) / m) - 1)


def _finale_rectangles(ctx: ProofContext, z21: int, z22: int) -> Optional[tuple]:
    """The two finale rectangles of the pattern heights z21 < z22: m blocks
    at the maximal first height `_finale_heights(ctx, z21)`, the other
    p - m at z21 and at z22 respectively; None unless both are
    near-threshold.  The generator and the checker's `boundedness` rule
    build the pair here."""
    p, m = ctx.p, (ctx.p - 1) // 2
    z1h = _finale_heights(ctx, z21)
    zbs = tuple(tuple([z1h] * m + [z2] * (p - m)) for z2 in (z21, z22))
    # The interval and the maximality of z1h put z1h strictly between
    # theta*p and theta*p + 3b, so the second rectangle (p - m > m blocks
    # raised) lies above the threshold and both steps are below 5b.
    if not all(near_threshold(zb, ctx) for zb in zbs):
        return None
    return zbs


def gen_certificate(ctx: ProofContext) -> "Certificate":
    """Generate the full certificate for the context.

    With b = 0 the result is step one alone: the derivations of every
    index 0..2a.  With b >= 1 it holds, for every pattern pair in the
    pigeonhole interval, tameness subproofs of the two composite rectangles
    and the distinctness node that contradicts boundedness, and the
    derivations of only the step-one indices those subproofs cite.
    Failures (an interval with too few integers, an index no tuple forces,
    completion running out of range) raise GenerationError: the
    parameters, usually p, are too small.  A context whose certificate
    would pass MAX_GENERATED is refused with CertificateError before
    anything is generated.  When a halving fails and the
    completion it falls back to fails too, the message names both causes,
    the halving's in parentheses.

    The final `verify_certificate`, the checker `pcsp verify` runs, is the
    one self-check; a failure raises InternalCheckError naming the node.
    """
    cb = _CertBuilder(ctx)
    if ctx.b == 0:
        cb.derive_tame_range()
    else:
        ints = _pigeonhole_interval(ctx)
        pairs = len(ints) * (len(ints) - 1) // 2
        _refuse_oversized(2 * ctx.p * pairs, "block entries in boundedness nodes")
        if len(ints) < ctx.b + 1:
            raise GenerationError(
                f"p too small for b: interval has {len(ints)} integers, "
                f"needs {ctx.b + 1}")
        for i, z21 in enumerate(ints):
            for z22 in ints[i + 1:]:
                zbs = _finale_rectangles(ctx, z21, z22)
                if zbs is None:
                    raise GenerationError("p too small for b: rectangle "
                                          "not near-threshold")
                zb1, zb2 = zbs
                pair = rect_term(zb1), rect_term(zb2)
                cb.emit(claim_distinct(*pair), pair,
                        {"tag": "boundedness", "z21": z21, "z22": z22},
                        [cb.ensure_tame(zb1), cb.ensure_tame(zb2)])
    cert = Certificate(ctx, tuple(cb.nodes), "contradiction" if ctx.b else "tame_base")
    check = verify_certificate(cert, ctx.canonical_template())
    if not check.ok:
        where = "the conclusion"
        if check.failed_node is not None:
            node = cert.nodes[check.failed_node]
            where = (f"node {node.id} (claim {node.claim}, "
                     f"justification {node.justify.get('tag')!r})")
        raise InternalCheckError(f"generated certificate fails its own "
                                 f"verification at {where}: {check.reason}")
    return cert


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failed_node: Optional[int] = None
    reason: Optional[str] = None


def _match_template(ctx: ProofContext, template: Template):
    """Find the orientation of the template matching the context's A side.

    Returns (B-side weights, template has disequality) or None.  The B side
    is taken from the template as given: the verifier's deductions must hold
    against the actual relaxed relation, whatever it is.
    """
    for t in (template, template.swap01()):
        neqs, others = split_pairs(t)
        if others is None or len(others) != 1:
            continue
        a_rel, b_rel = others[0]
        if a_rel.arity != ctx.s:
            continue
        if ctx.case == "2":
            want = set(range(0, ctx.r + 1))
        else:
            want = {ctx.r}
        if set(a_rel.weights) != want:
            continue
        if ctx.has_neq and not neqs:
            continue
        return frozenset(b_rel.weights), bool(neqs)
    return None


def verify_certificate(cert: Certificate, template: Template) -> VerificationResult:
    """Re-check every node and the conclusion against the given template.

    All deduction steps take the relaxed relation from the template itself,
    so replaying a certificate against a template with a larger B side makes
    the propagation incomplete and the certificate is rejected.  A malformed
    node (KeyError, TypeError or ValueError while reading it) is rejected;
    any other exception is a checker bug and raises InternalCheckError.
    """
    ctx = cert.context
    matched = _match_template(ctx, template)
    if matched is None:
        return VerificationResult(False, None, "template does not match the context")
    q_weights, has_neq = matched

    edges: List[tuple] = []  # edges[i]: node i's claim as a parity edge
    for idx, node in enumerate(cert.nodes):
        try:
            if type(node.id) is not int or node.id != idx:
                if _int(node.id, "node id") != idx:
                    return VerificationResult(False, idx, "node ids must be sequential")
            got = _check_node(node, ctx, q_weights, edges, has_neq)
        except KeyError as e:
            got = f"malformed node: missing field {e}"
        except (TypeError, ValueError) as e:  # CertificateError among them
            got = f"malformed node: {e}"
        except Exception as e:
            # a payload that reads strictly raises nothing else: a bug in
            # the checker is not a rejected certificate
            raise InternalCheckError(f"the checker failed at node {idx}: "
                                     f"{type(e).__name__}: {e}") from e
        if type(got) is str:
            return VerificationResult(False, idx, got)
        edges.append(got)

    if cert.conclusion == "tame_base":
        if ctx.b != 0:
            return VerificationResult(False, None,
                                      "base-only conclusion requires b = 0")
        try:
            cls = _flat_classes(edges)
        except _Contradiction as e:
            # an equal edge earlier in the list was consistent when read
            # and, as classes only merge, would be still: the first equal
            # edge is the contradicting one
            return VerificationResult(False, edges.index(e.edge),
                                      "claims are mutually inconsistent")
        root0, par0 = cls.get(_SIGMA0) or (_SIGMA0, 0)
        for k in range(2 * ctx.a + 1):
            t = sigma_term(k)
            root, par = cls.get(t) or (t, 0)
            if root != root0 or par ^ par0 != ctx.tame_bit(k):
                return VerificationResult(False, None,
                                          f"tameness coverage missing at {k}")
        return VerificationResult(True)

    if cert.conclusion == "contradiction":
        if ctx.b < 1:
            return VerificationResult(False, None, "contradiction needs b >= 1")
        ints = _pigeonhole_interval(ctx)
        if len(ints) < ctx.b + 1:
            return VerificationResult(
                False, None, "pigeonhole interval has too few integers")
        have = set()
        for node in cert.nodes:
            if node.justify.get("tag") == "boundedness":
                have.add((node.justify["z21"], node.justify["z22"]))
        for i, z21 in enumerate(ints):
            for z22 in ints[i + 1:]:
                if (z21, z22) not in have:
                    return VerificationResult(
                        False, None, f"pattern pair ({z21},{z22}) is not covered")
        return VerificationResult(True)

    return VerificationResult(False, None, f"unknown conclusion {_quote(cert.conclusion)}")


def find_minimal_p(r: int, s: int, case: str, b: int, preset: str = "desk",
                   p_limit: int = 400):
    """Search primes congruent to 1 modulo s for the smallest workable p.

    Returns (p, certificate).  Raises GenerationError when no prime up to
    p_limit yields a certificate.
    """
    failures = []
    p = 2
    while p <= p_limit:
        if _is_prime(p) and p % s == 1:
            try:
                ctx = ProofContext(r, s, case, p, b, preset)
                return p, gen_certificate(ctx)
            except (CertificateError, GenerationError) as e:
                failures.append(f"p={p}: {e}")
        p += 1
    raise GenerationError("no workable prime up to "
                          f"{p_limit}; attempts: {'; '.join(failures[-3:])}")
