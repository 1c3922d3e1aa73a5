"""Finite functions as packed truth tables: minors, identities, polymorphisms.

A function of arity n over a domain of size d is a table of d**n values,
indexed by reading the argument tuple as a base-d number with the first
argument most significant.  Boolean tables are packed into a single int
(bit i = entry i); small non-Boolean domains (needed for inner functions of
the square composition) use bytes.

Cyclicity, double cyclicity, the row/column transpose, and boundedness are
all decided by exhaustive evaluation, which is the point: these are the
desk-scale oracles the symbolic certificate machinery is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Tuple

from .structures import BoolRelation, Template


class FunctionError(ValueError):
    """Malformed function, map, or identity."""


class ResourceGuard(RuntimeError):
    """An operation would enumerate more than its configured limit."""


MAX_ARITY = 24
MAX_POLY_CONSTRAINTS = 2_000_000

@dataclass(frozen=True)
class BoolFunction:
    """An n-ary function over {0,..,domain_size-1} as a packed table."""

    arity: int
    table: object  # int bitmask when domain_size == 2, bytes otherwise
    domain_size: int = 2

    def __post_init__(self):
        if self.arity < 1:
            raise FunctionError("arity must be >= 1")
        if self.arity > MAX_ARITY:
            raise FunctionError(f"arity {self.arity} above cap {MAX_ARITY}")
        if not (2 <= self.domain_size <= 4):
            raise FunctionError("domain size must be between 2 and 4")
        size = self.domain_size ** self.arity
        if self.domain_size == 2:
            if not isinstance(self.table, int) or self.table < 0 or self.table >> size:
                raise FunctionError("Boolean table must be an int with 2**arity bits")
        else:
            if not isinstance(self.table, bytes) or len(self.table) != size:
                raise FunctionError(f"table must be bytes of length {size}")
            if any(v >= self.domain_size for v in self.table):
                raise FunctionError("table entry outside the domain")

    @property
    def size(self) -> int:
        return self.domain_size ** self.arity

    def value_at(self, index: int) -> int:
        if self.domain_size == 2:
            return (self.table >> index) & 1
        return self.table[index]

    def __call__(self, args) -> int:
        return self.value_at(pack_args(args, self.domain_size))

    def values(self) -> Iterator[int]:
        for i in range(self.size):
            yield self.value_at(i)


def pack_args(args, domain_size: int = 2) -> int:
    idx = 0
    for a in args:
        idx = idx * domain_size + a
    return idx


def unpack_index(index: int, arity: int, domain_size: int = 2) -> tuple:
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        out[i] = index % domain_size
        index //= domain_size
    return tuple(out)


def make_function(arity: int, values, domain_size: int = 2) -> BoolFunction:
    """Build a function from an iterable of table values in index order."""
    vals = list(values)
    if len(vals) != domain_size ** arity:
        raise FunctionError(f"expected {domain_size ** arity} values, got {len(vals)}")
    if domain_size == 2:
        table = 0
        for i, v in enumerate(vals):
            if v not in (0, 1):
                raise FunctionError(f"bad Boolean value {v!r}")
            if v:
                table |= 1 << i
        return BoolFunction(arity, table, 2)
    return BoolFunction(arity, bytes(vals), domain_size)


def function_from_callable(arity: int, fn, domain_size: int = 2) -> BoolFunction:
    vals = (fn(unpack_index(i, arity, domain_size))
            for i in range(domain_size ** arity))
    return make_function(arity, vals, domain_size)


def projection(arity: int, coord: int, domain_size: int = 2) -> BoolFunction:
    return function_from_callable(arity, lambda xs: xs[coord], domain_size)


def parity_function(arity: int) -> BoolFunction:
    return function_from_callable(arity, lambda xs: sum(xs) % 2)


def majority_function(arity: int) -> BoolFunction:
    if arity % 2 == 0:
        raise FunctionError("majority needs odd arity")
    return function_from_callable(arity, lambda xs: 1 if sum(xs) > arity // 2 else 0)


def alternating_threshold(arity: int) -> BoolFunction:
    """sign(x1 - x2 + x3 - ...) thresholded at > 0, for odd arity."""
    if arity % 2 == 0:
        raise FunctionError("alternating threshold needs odd arity")
    return function_from_callable(
        arity, lambda xs: 1 if sum(x if i % 2 == 0 else -x for i, x in enumerate(xs)) > 0 else 0)


def constant_function(arity: int, value: int, domain_size: int = 2) -> BoolFunction:
    return function_from_callable(arity, lambda xs: value, domain_size)


# ---------------------------------------------------------------------------
# minors and h1 identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorMap:
    """pi maps source argument positions (0-based) to target variables."""

    source_arity: int
    target_arity: int
    mapping: tuple

    def __post_init__(self):
        if len(self.mapping) != self.source_arity:
            raise FunctionError("mapping length must equal source arity")
        if any(not (0 <= v < self.target_arity) for v in self.mapping):
            raise FunctionError("mapping value out of range")

    def compose(self, rho: "MinorMap") -> "MinorMap":
        """The map performing self first, then rho (rho relabels our targets)."""
        if rho.source_arity != self.target_arity:
            raise FunctionError("maps do not compose")
        return MinorMap(self.source_arity, rho.target_arity,
                        tuple(rho.mapping[v] for v in self.mapping))


def minor(f: BoolFunction, pi: MinorMap) -> BoolFunction:
    """The minor f^pi: g(x_0..x_{n-1}) = f(x_pi(0), ..., x_pi(m-1))."""
    if pi.source_arity != f.arity:
        raise FunctionError(f"minor map source arity {pi.source_arity} != {f.arity}")
    d = f.domain_size
    n = pi.target_arity

    def val(xs):
        return f.value_at(pack_args((xs[v] for v in pi.mapping), d))

    return function_from_callable(n, val, d)


@dataclass(frozen=True)
class H1Identity:
    """A height-one identity: slot(pattern) == slot(pattern), universally.

    Slots select from the two functions an identity is tested against, so
    f(x,y,x) ~ g(y,x,x,z) is H1Identity(0, (0,1,0), 1, (1,0,0,2)).
    """

    lhs_slot: int
    lhs_pattern: tuple
    rhs_slot: int
    rhs_pattern: tuple

    def __post_init__(self):
        if self.lhs_slot not in (0, 1) or self.rhs_slot not in (0, 1):
            raise FunctionError("slots must be 0 or 1")
        for pat in (self.lhs_pattern, self.rhs_pattern):
            if not pat or any(not isinstance(v, int) or v < 0 for v in pat):
                raise FunctionError(f"bad pattern {pat}")

    def variable_count(self) -> int:
        return max(max(self.lhs_pattern), max(self.rhs_pattern)) + 1


def satisfies_h1(f: BoolFunction, g: BoolFunction, ident: H1Identity) -> bool:
    funcs = (f, g)
    lhs_f, rhs_f = funcs[ident.lhs_slot], funcs[ident.rhs_slot]
    if len(ident.lhs_pattern) != lhs_f.arity or len(ident.rhs_pattern) != rhs_f.arity:
        raise FunctionError("pattern length does not match function arity")
    if lhs_f.domain_size != rhs_f.domain_size:
        raise FunctionError("functions live over different domains")
    nvars = ident.variable_count()
    lhs = minor(lhs_f, MinorMap(lhs_f.arity, nvars, ident.lhs_pattern))
    rhs = minor(rhs_f, MinorMap(rhs_f.arity, nvars, ident.rhs_pattern))
    return lhs.table == rhs.table


# ---------------------------------------------------------------------------
# polymorphisms
# ---------------------------------------------------------------------------

def _pair_constraints(pair, n: int) -> Iterator[Tuple[tuple, BoolRelation]]:
    """Yield (row index tuple, target relation) for every n-column selection."""
    rel_a, rel_b = pair
    cols = list(rel_a.tuples())
    for sel in product(cols, repeat=n):
        rows = tuple(pack_args(tuple(sel[j][i] for j in range(n)))
                     for i in range(rel_a.arity))
        yield rows, rel_b


def is_polymorphism(f: BoolFunction, t: Template) -> bool:
    """True iff applying f across columns of every A-relation lands in B."""
    if f.domain_size != 2:
        raise FunctionError("polymorphism testing is for Boolean functions")
    n = f.arity
    for pair in t.pairs:
        count = pair[0].count_tuples() ** n
        if count > MAX_POLY_CONSTRAINTS:
            raise ResourceGuard(f"{count} column selections exceed the guard")
        for rows, rel_b in _pair_constraints(pair, n):
            image = tuple(f.value_at(r) for r in rows)
            if not rel_b.contains(image):
                return False
    return True


def enumerate_polymorphisms(t: Template, n: int) -> Iterator[BoolFunction]:
    """Yield every n-ary Boolean polymorphism of t, in increasing table order.

    Backtracks over table entries from the most significant end so that the
    emission order equals numeric order of the packed table.
    """
    if n > MAX_ARITY:
        raise ResourceGuard(f"arity {n} above cap {MAX_ARITY}")
    size = 2 ** n
    total = sum(pair[0].count_tuples() ** n for pair in t.pairs)
    if total > MAX_POLY_CONSTRAINTS:
        raise ResourceGuard(f"{total} column selections exceed the guard")

    by_min: List[list] = [[] for _ in range(size)]
    for pair in t.pairs:
        seen = set()
        for rows, rel_b in _pair_constraints(pair, n):
            key = rows
            if key in seen:
                continue
            seen.add(key)
            by_min[min(rows)].append((rows, rel_b))

    values = [0] * size  # values[i] = table entry i

    def feasible(rows, rel_b) -> bool:
        image = tuple(values[r] for r in rows)
        return rel_b.contains(image)

    def dfs(entry: int) -> Iterator[BoolFunction]:
        if entry < 0:
            table = 0
            for i, v in enumerate(values):
                if v:
                    table |= 1 << i
            yield BoolFunction(n, table, 2)
            return
        for v in (0, 1):
            values[entry] = v
            if all(feasible(rows, rel_b) for rows, rel_b in by_min[entry]):
                yield from dfs(entry - 1)
        values[entry] = 0

    yield from dfs(size - 1)


# ---------------------------------------------------------------------------
# cyclicity and the square composition
# ---------------------------------------------------------------------------

def _rotation_map(arity: int) -> MinorMap:
    # position i reads variable i+1 (mod arity)
    return MinorMap(arity, arity, tuple((i + 1) % arity for i in range(arity)))


def is_cyclic(f: BoolFunction) -> bool:
    """True iff f is invariant under cyclically shifting its arguments."""
    if f.arity == 1:
        return True
    return minor(f, _rotation_map(f.arity)).table == f.table


def compose_eq1(c: BoolFunction, p: int) -> BoolFunction:
    """The p*p-ary composition t(columns) = c(c(col_1), ..., c(col_p)).

    Arguments are grouped column-wise: the first p arguments form column 1.
    """
    if c.arity != p:
        raise FunctionError(f"inner function arity {c.arity} != p={p}")
    if p * p > MAX_ARITY:
        raise FunctionError(f"composed arity {p * p} above cap")
    d = c.domain_size

    def val(xs):
        inner = [c.value_at(pack_args(xs[j * p:(j + 1) * p], d)) for j in range(p)]
        return c.value_at(pack_args(inner, d))

    return function_from_callable(p * p, val, d)


def _block_rotation_map(p: int, block: int) -> MinorMap:
    mapping = list(range(p * p))
    base = block * p
    for i in range(p):
        mapping[base + i] = base + (i + 1) % p
    return MinorMap(p * p, p * p, tuple(mapping))


def _block_shift_map(p: int) -> MinorMap:
    mapping = [0] * (p * p)
    for j in range(p):
        for i in range(p):
            mapping[j * p + i] = ((j + 1) % p) * p + i
    return MinorMap(p * p, p * p, tuple(mapping))


def is_doubly_cyclic(t: BoolFunction, p: int) -> bool:
    """Invariance under in-block rotations and the whole-block shift.

    Checking the two generating identities (rotate the first block by one,
    shift blocks by one) suffices: conjugating the first-block rotation by
    block shifts yields every in-block rotation, and together these generate
    the full group of identities in the definition.
    """
    if t.arity != p * p:
        raise FunctionError(f"arity {t.arity} is not p^2 for p={p}")
    if minor(t, _block_rotation_map(p, 0)).table != t.table:
        return False
    return minor(t, _block_shift_map(p)).table == t.table


def sigma_transform(t: BoolFunction, p: int) -> BoolFunction:
    """Transpose the p x p argument matrix: entry (i,j) moves to (j,i)."""
    if t.arity != p * p:
        raise FunctionError(f"arity {t.arity} is not p^2 for p={p}")
    mapping = [0] * (p * p)
    for i in range(p):
        for j in range(p):
            mapping[i * p + j] = j * p + i
    return minor(t, MinorMap(p * p, p * p, tuple(mapping)))


# ---------------------------------------------------------------------------
# boundedness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockEquivalence:
    """An equivalence on the 2**p two-variable patterns of one block.

    A pattern is a p-bit int, most significant bit first; bit 1 means the
    first free variable, bit 0 the second.
    """

    p: int
    blocks: tuple  # tuple of frozensets of pattern ints

    def __post_init__(self):
        seen = set()
        for blk in self.blocks:
            if not blk:
                raise FunctionError("empty equivalence block")
            for pat in blk:
                if not (0 <= pat < 2 ** self.p):
                    raise FunctionError(f"pattern {pat} out of range")
                if pat in seen:
                    raise FunctionError(f"pattern {pat} in two blocks")
                seen.add(pat)
        if len(seen) != 2 ** self.p:
            raise FunctionError("blocks do not cover all patterns")

    def block_count(self) -> int:
        return len(self.blocks)


def _pattern_values(pattern: int, p: int, x: int, y: int) -> tuple:
    return tuple(x if (pattern >> (p - 1 - i)) & 1 else y for i in range(p))


def derive_sim(c: BoolFunction) -> BlockEquivalence:
    """Group patterns by the binary function (x,y) -> c(pattern substituted)."""
    p = c.arity
    d = c.domain_size
    groups: dict = {}
    for pat in range(2 ** p):
        key = tuple(c(_pattern_values(pat, p, x, y))
                    for x in range(d) for y in range(d))
        groups.setdefault(key, []).append(pat)
    blocks = tuple(frozenset(g) for _, g in sorted(groups.items()))
    return BlockEquivalence(p, blocks)


def is_b_bounded(t: BoolFunction, p: int, sim: BlockEquivalence) -> bool:
    """Check the pattern-swap identities: replacing one block's pattern by an
    equivalent one never changes t.  Single-block swaps compose to the full
    component-wise condition."""
    if t.arity != p * p:
        raise FunctionError(f"arity {t.arity} is not p^2 for p={p}")
    if sim.p != p:
        raise FunctionError("equivalence is over the wrong block width")
    d = t.domain_size
    others = list(product(range(2 ** p), repeat=p - 1))
    for blk in sim.blocks:
        pats = sorted(blk)
        base = pats[0]
        for other in pats[1:]:
            for pos in range(p):
                for rest in others:
                    full_a = rest[:pos] + (base,) + rest[pos:]
                    full_b = rest[:pos] + (other,) + rest[pos:]
                    for x in range(d):
                        for y in range(d):
                            args_a = [v for pat in full_a
                                      for v in _pattern_values(pat, p, x, y)]
                            args_b = [v for pat in full_b
                                      for v in _pattern_values(pat, p, x, y)]
                            if t(args_a) != t(args_b):
                                return False
    return True


# ---------------------------------------------------------------------------
# symmetry-constrained enumeration
# ---------------------------------------------------------------------------

def _doubly_cyclic_orbits(p: int):
    """Orbits of {0,1}^(p^2) inputs under in-block rotations and block shift."""
    n = p * p
    gens = [[_ for _ in m.mapping] for m in
            [_block_rotation_map(p, b) for b in range(p)] + [_block_shift_map(p)]]

    def act(index: int, mapping) -> int:
        xs = unpack_index(index, n)
        return pack_args(tuple(xs[mapping[i]] for i in range(n)))

    orbit_of = [-1] * (2 ** n)
    orbits = []
    for start in range(2 ** n):
        if orbit_of[start] >= 0:
            continue
        oid = len(orbits)
        stack, members = [start], []
        orbit_of[start] = oid
        while stack:
            cur = stack.pop()
            members.append(cur)
            for g in gens:
                nxt = act(cur, g)
                if orbit_of[nxt] < 0:
                    orbit_of[nxt] = oid
                    stack.append(nxt)
        orbits.append(sorted(members))
    return orbits, orbit_of


def enumerate_doubly_cyclic_polymorphisms(t: Template, p: int) -> List[BoolFunction]:
    """All doubly cyclic p*p-ary Boolean polymorphisms of t.

    Works over input orbits of the block-rotation group, so it stays feasible
    at p = 3 where the raw table space (2**512) is far out of reach.
    """
    n = p * p
    if n > MAX_ARITY:
        raise ResourceGuard(f"arity {n} above cap")
    orbits, orbit_of = _doubly_cyclic_orbits(p)
    total = sum(pair[0].count_tuples() ** n for pair in t.pairs)
    if total > MAX_POLY_CONSTRAINTS:
        raise ResourceGuard(f"{total} column selections exceed the guard")

    constraints = set()
    for pair in t.pairs:
        for rows, rel_b in _pair_constraints(pair, n):
            constraints.add((tuple(orbit_of[r] for r in rows), rel_b))
    cons = sorted(constraints, key=lambda c: (c[0], sorted(c[1].weights), c[1].name))

    m = len(orbits)
    by_max = [[] for _ in range(m)]
    for orbit_rows, rel_b in cons:
        by_max[max(orbit_rows)].append((orbit_rows, rel_b))

    vals = [0] * m
    found = []

    def dfs(k: int):
        if k == m:
            table = 0
            for oid, members in enumerate(orbits):
                if vals[oid]:
                    for idx in members:
                        table |= 1 << idx
            found.append(BoolFunction(n, table, 2))
            return
        for v in (0, 1):
            vals[k] = v
            if all(rel_b.contains(tuple(vals[o] for o in rows))
                   for rows, rel_b in by_max[k]):
                dfs(k + 1)

    dfs(0)
    found.sort(key=lambda f: f.table)
    return found


# ---------------------------------------------------------------------------
# truth-table files
# ---------------------------------------------------------------------------

def parse_function(text: str) -> BoolFunction:
    """Parse the two-line format: `fn <arity> <domain_size>` then the table."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise FunctionError("function file needs exactly two non-empty lines")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "fn":
        raise FunctionError("first line must be 'fn <arity> <domain_size>'")
    try:
        arity, d = int(head[1]), int(head[2])
    except ValueError:
        raise FunctionError("bad arity or domain size")
    digits = lines[1]
    try:
        vals = [int(ch) for ch in digits]
    except ValueError:
        raise FunctionError("table must be a digit string")
    return make_function(arity, vals, d)


def format_function(f: BoolFunction) -> str:
    body = "".join(str(v) for v in f.values())
    return f"fn {f.arity} {f.domain_size}\n{body}\n"
