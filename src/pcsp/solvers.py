"""Exact decision backends and the promise solver.

Three backends, all over exact arithmetic: GF(2) elimination on bit-packed
rows, integer linear feasibility by column reduction to a triangular system
(unimodular column operations, so solutions map back exactly), and rational
LP feasibility over the unit box by a bounded-variable phase-one simplex
(Dantzig 1955; Chvatal 1983, ch. 8): the bounds 0 <= x <= 1 stay in the
ratio test instead of becoming rows, and the entering column has the
largest reduced cost, with Bland's rule after a run of degenerate pivots.
The simplex holds each tableau row as sparse integer numerators over one
positive row denominator (the integer-preserving elimination of Edmonds and
Bareiss), so it pivots the rational tableau without Fraction arithmetic.

The integer and LP systems hold a row, from translation to solver, as a
tuple of (column, coefficient) pairs with increasing columns and nonzero
coefficients, so every pass over the rows costs O(nonzeros).

The promise solver translates instances through the recipe the classifier
recognized.  Before the LP, each component of the 2-colored disequality
graph becomes one column, so the disequality rows disappear; the point is
lifted back and re-checked against the untransformed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Tuple

from .classifier import (Complexity, UnsupportedTemplateError, classify,
                         _point_absorbing)
from .structures import (BoolRelation, Instance, InternalCheckError, StructureError, Template,
                         check_instance_against, hom_exists)


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GF2System:
    """Rows are bit masks over n_vars variables; rhs holds the parity bits."""

    n_vars: int
    rows: tuple
    rhs: tuple

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise StructureError("rows/rhs length mismatch")
        for mask in self.rows:
            if mask >> self.n_vars:
                raise StructureError("row mask uses variables out of range")


def solve_gf2(system: GF2System) -> Optional[List[int]]:
    """Gaussian elimination; pivots on the lowest set bit, free variables 0."""
    pivots = {}  # column -> (mask, bit)
    for mask, bit in zip(system.rows, system.rhs):
        for col, (pmask, pbit) in pivots.items():
            if (mask >> col) & 1:
                mask ^= pmask
                bit ^= pbit
        if mask == 0:
            if bit:
                return None
            continue
        col = (mask & -mask).bit_length() - 1
        pivots[col] = (mask, bit)
    x = [0] * system.n_vars
    for col in sorted(pivots, reverse=True):
        mask, bit = pivots[col]
        acc = bit
        rest = mask & ~(1 << col)
        while rest:
            j = (rest & -rest).bit_length() - 1
            acc ^= x[j]
            rest &= rest - 1
        x[col] = acc
    for mask, bit in zip(system.rows, system.rhs):
        acc = 0
        rest = mask
        while rest:
            j = (rest & -rest).bit_length() - 1
            acc ^= x[j]
            rest &= rest - 1
        if acc != bit:
            raise InternalCheckError("GF(2) solution fails re-check")
    return x


# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------

def _check_rows(rows, n_vars: int) -> None:
    """Raise unless each row is (column, coefficient) pairs with strictly
    increasing columns in range(n_vars) and nonzero coefficients."""
    for row in rows:
        last = -1
        for j, c in row:
            if not last < j < n_vars or not c:
                raise StructureError("row columns must increase in range, coefficients nonzero")
            last = j


@dataclass(frozen=True)
class IntLinearSystem:
    """A x = b over the integers; each row is (column, coefficient) pairs."""

    n_vars: int
    rows: tuple
    rhs: tuple

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise StructureError("rows/rhs length mismatch")
        _check_rows(self.rows, self.n_vars)


def solve_diophantine(system: IntLinearSystem) -> Optional[List[int]]:
    """Integer feasibility via column reduction to a triangular system.

    Columns of A are stacked over an identity block, each a sparse map:
    row i of A at key i, identity entry k at key m + k.  Unimodular column
    operations (Euclidean reduction within each row) bring A to a lower
    triangular form whose pivot equations are solved by exact division.
    Free columns are zero in every pivot row, so setting their multipliers
    to zero loses no solutions; skipped rows become consistency checks.
    """
    m, n = len(system.rows), system.n_vars
    work = [{m + j: 1} for j in range(n)]
    for i, row in enumerate(system.rows):
        for j, c in row:
            work[j][i] = c
    b = system.rhs

    pivot_rows = []  # the pivot row of column position p, for p = 0, 1, ...
    for row in range(m):
        p = len(pivot_rows)
        if p >= n:
            break
        active = [j for j in range(p, n) if row in work[j]]
        while len(active) > 1:
            jstar = min(active, key=lambda j: (abs(work[j][row]), j))
            pcol = work[jstar]
            for j in active:
                col = work[j]
                q = col[row] // pcol[row]
                if j == jstar or not q:
                    continue
                for k, v in pcol.items():
                    col[k] = col.get(k, 0) - q * v
                    if not col[k]:
                        del col[k]
            active = [j for j in active if row in work[j]]
        if not active:
            continue
        j = active[0]
        work[p], work[j] = work[j], work[p]
        if work[p][row] < 0:
            work[p] = {k: -v for k, v in work[p].items()}
        pivot_rows.append(row)

    y = []  # the multipliers of the pivot columns; every other one is zero
    for j, row in enumerate(pivot_rows):
        acc = b[row] - sum(work[k].get(row, 0) * y[k] for k in range(j))
        piv = work[j][row]
        if acc % piv != 0:
            return None
        y.append(acc // piv)
    total = {}
    for j, yj in enumerate(y):
        for k, v in work[j].items():
            total[k] = total.get(k, 0) + v * yj
    # consistency of the skipped rows (and a full re-check of pivot rows)
    if any(total.get(i, 0) != b[i] for i in range(m)):
        return None
    x = [total.get(m + k, 0) for k in range(n)]
    for row, bi in zip(system.rows, b):
        if sum(c * x[k] for k, c in row) != bi:
            raise InternalCheckError("integer solution fails re-check")
    return x


# ---------------------------------------------------------------------------
# rational LP feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalInequalitySystem:
    """Rows (terms, sense, rhs) over the unit box 0 <= x <= 1: terms are
    (column, exact rational) pairs, and sense is '<=', '>=' or '='."""

    n_vars: int
    rows: tuple

    def __post_init__(self):
        _check_rows((terms for terms, _, _ in self.rows), self.n_vars)
        for _, sense, _ in self.rows:
            if sense not in ("<=", ">=", "="):
                raise StructureError(f"bad sense {sense!r}")


def _reduce(row: dict, den: int) -> int:
    """Divide a row and its denominator by their gcd; returns the new denominator."""
    g = gcd(den, *row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return den // g


def _eliminate(row: dict, den: int, col: int, prow: dict, pden: int) -> int:
    """Subtract row[col] times the pivot row (prow/pden, 1 at col) from
    row/den, at the pivot row's nonzero columns; returns the new denominator."""
    g = gcd(row[col], pden)
    scale, f = pden // g, row[col] // g
    if scale != 1:
        for j in row:
            row[j] *= scale
    for j, v in prow.items():
        w = row.get(j, 0) - f * v
        if w:
            row[j] = w
        else:
            del row[j]
    return _reduce(row, den * scale)


def _complement(row: dict, col: int) -> None:
    """Substitute 1 - y for the column's y in a row, which moves a column
    from one bound to the other; a reduced row stays reduced."""
    a = row[col]
    row[col] = -a
    b = row.get(-1, 0) - a
    if b:
        row[-1] = b
    else:
        row.pop(-1, None)


# Consecutive degenerate pivots after which the entering rule turns from the
# largest reduced cost to Bland's lowest index, which cannot cycle.
DEGENERATE_RUN = 20


def _phase_one(system: RationalInequalitySystem):
    """Bounded-variable phase-one simplex on exact integer rows.

    Returns the final tableau (rows, dens, basis, flipped).  rows[i] /
    dens[i] is constraint row i with basic column basis[i]; rows[-1] is the
    reduced-cost row of the sum of the artificials, whose constant (key -1)
    is zero exactly when the system is feasible.  flipped[j] marks a
    structural column held as 1 - y_j.
    """
    n = system.n_vars
    # columns: n structural (0 <= y <= 1), one slack or surplus per
    # inequality row, then one artificial per row whose slack cannot start
    # basic; each row is a sparse map column -> numerator over one positive
    # denominator, with the right-hand side under key -1
    ncols = n + sum(1 for _, sense, _ in system.rows if sense != "=")
    rows, dens, basis, art_rows = [], [], [], []
    slack, total = n, ncols
    for i, (terms, sense, rhs) in enumerate(system.rows):
        terms = dict(terms)
        rhs = Fraction(rhs)
        den = lcm(rhs.denominator, *(c.denominator for c in terms.values()))
        sign = -1 if rhs < 0 else 1
        row = {j: sign * c.numerator * (den // c.denominator) for j, c in terms.items()}
        if rhs:
            row[-1] = sign * rhs.numerator * (den // rhs.denominator)
        if sense != "=":
            row[slack] = sign * den if sense == "<=" else -sign * den
            slack += 1
        if sense != "=" and row[slack - 1] > 0:
            basis.append(slack - 1)
        else:
            row[total] = den
            basis.append(total)
            art_rows.append(i)
            total += 1
        rows.append(row)
        dens.append(den)

    # objective: minimize the sum of artificials; its reduced-cost row is the
    # sum of the artificial rows, where the artificial columns cancel
    zden = lcm(*(dens[i] for i in art_rows))
    z = {}
    for i in art_rows:
        for j, v in rows[i].items():
            if j < ncols:
                z[j] = z.get(j, 0) + zden // dens[i] * v
    z = {j: v for j, v in z.items() if v}
    rows.append(z)
    dens.append(_reduce(z, zden))
    is_basic = [False] * total
    for bcol in basis:
        is_basic[bcol] = True
    flipped = [False] * n
    stall = 0
    while True:
        # an artificial that left the basis stays at zero
        cands = [(v, j) for j, v in z.items() if v > 0 and 0 <= j < ncols and not is_basic[j]]
        if not cands:
            return rows, dens, basis, flipped
        if stall < DEGENERATE_RUN:
            enter = max(cands, key=lambda vj: (vj[0], -vj[1]))[1]
        else:
            enter = min(j for _, j in cands)
        # the least step, as (num, den) with den > 0 compared by
        # cross-multiplication: the entering column rising to its upper
        # bound 1, a basic column falling to 0, or a structural one rising
        # to 1; ties go to the bound flip, then to the lower basic column
        best = (1, 1) if enter < n else None
        leave = None
        for i, bcol in enumerate(basis):
            a = rows[i].get(enter)
            if not a or (a < 0 and bcol >= n):
                continue
            b = rows[i].get(-1, 0)
            num, den = (b, a) if a > 0 else (dens[i] - b, -a)
            if (best is None or num * best[1] < best[0] * den or (
                    num * best[1] == best[0] * den and leave is not None and bcol < basis[leave])):
                leave, best = i, (num, den)
        if best is None:
            raise InternalCheckError("phase-one objective unbounded")
        stall = stall + 1 if best[0] == 0 else 0
        flip = enter
        if leave is not None:
            prow = rows[leave]
            if prow[enter] > 0:
                flip = None
            else:  # the basic column leaves at 1
                flip = basis[leave]
                for j in prow:
                    prow[j] = -prow[j]
            pden = dens[leave] = _reduce(prow, prow[enter])
            for i, row in enumerate(rows):
                if i != leave and enter in row:
                    dens[i] = _eliminate(row, dens[i], enter, prow, pden)
            is_basic[basis[leave]], is_basic[enter] = False, True
            basis[leave] = enter
        if flip is not None:
            flipped[flip] = not flipped[flip]
            for row in rows:
                if flip in row:
                    _complement(row, flip)


def _holds(val, sense: str, rhs) -> bool:
    return val <= rhs if sense == "<=" else val >= rhs if sense == ">=" else val == rhs


def _check_point(system: RationalInequalitySystem, x, what: str) -> None:
    """Exact re-check of a point against every row of a system and the
    unit box, with x scaled to integers by the lcm d of its denominators."""
    d = lcm(*(xi.denominator for xi in x))
    xd = [xi.numerator * (d // xi.denominator) for xi in x]
    for terms, sense, rhs in system.rows:
        if not _holds(sum(c * xd[j] for j, c in terms), sense, rhs * d):
            raise InternalCheckError(f"{what} fails re-check")
    for xi in x:
        if not (0 <= xi <= 1):
            raise InternalCheckError(f"{what} violates its box")


def solve_lp_feasible(system: RationalInequalitySystem) -> Optional[List[Fraction]]:
    """Feasibility by a bounded-variable phase-one simplex; a point or None.

    Every column lies in [0, 1], and the upper bound stays a bound: the
    ratio test also stops where a basic column reaches 1 or the entering
    column its own 1 (a bound flip), and a column at its upper bound is
    complemented (y = 1 - y') on the integer rows.  Each tableau row is a
    sparse map column -> integer numerator over one positive row
    denominator, divided by the gcd of its entries whenever it changes.
    The entering column has the largest positive reduced cost; after
    DEGENERATE_RUN degenerate pivots in a row it is the lowest such index
    (Bland's rule) until a pivot makes progress.  The leaving row has the
    least ratio, ties to the lower basic column.  The point is
    re-checked exactly against every row and the box before it is returned.
    """
    rows, dens, basis, flipped = _phase_one(system)
    if rows[-1].get(-1):  # the sum of the artificials stays above zero
        return None
    value = [Fraction(0)] * system.n_vars
    for i, bcol in enumerate(basis):
        if bcol < system.n_vars:
            value[bcol] = Fraction(rows[i].get(-1, 0), dens[i])
    x = [1 - v if f else v for v, f in zip(value, flipped)]
    _check_point(system, x, "LP point")
    return x


# ---------------------------------------------------------------------------
# promise solving
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PromiseAnswer:
    yes: bool
    witness: Optional[object] = None


def _collapse(tup) -> List[Tuple[int, int]]:
    """Distinct variables of a constraint tuple with their multiplicities."""
    mult = {}
    for v in tup:
        mult[v] = mult.get(v, 0) + 1
    return sorted(mult.items())


def _gf2_translate(t: Template, inst: Instance) -> GF2System:
    rows, rhs = [], []
    for ri, tup in inst.constraints:
        a, b = t.pairs[ri]
        if b.is_full():
            continue  # the relaxed side never blocks, so nothing to encode
        mask = 0
        for v in tup:
            mask ^= 1 << v
        if a.is_neq():
            parity = 1
        else:
            odd = all(w % 2 == 1 for w in a.weights)
            even = all(w % 2 == 0 for w in a.weights)
            if not (odd or even):
                raise UnsupportedTemplateError("parity backend needs parity relations")
            parity = 1 if odd else 0
        rows.append(mask)
        rhs.append(parity)
    return GF2System(inst.var_count, tuple(rows), tuple(rhs))


def _weight_sense(a: BoolRelation):
    """The weight row of an A side the LP and integer recipes see:
    disequality, exact or at-most (the polarity swap turns every at-least
    shape into at-most)."""
    w = a.weights
    if a.is_neq():
        return "=", 1
    if len(w) == 1:
        return "=", next(iter(w))
    if w == set(range(0, max(w) + 1)):
        return "<=", max(w)
    raise UnsupportedTemplateError("LP backend needs exact or at-most weight relations")


def _lp_translate(t: Template, inst: Instance) -> RationalInequalitySystem:
    """One weight row per constraint, in constraint order: each distinct
    variable of the tuple with its multiplicity as coefficient."""
    rows = tuple((tuple(_collapse(tup)), *_weight_sense(t.pairs[ri][0]))
                 for ri, tup in inst.constraints)
    return RationalInequalitySystem(inst.var_count, rows)


def _dio_translate(t: Template, inst: Instance) -> IntLinearSystem:
    """The weight rows of `_lp_translate`, which must all be equations."""
    rows = _lp_translate(t, inst).rows
    if any(sense != "=" for _, sense, _ in rows):
        raise UnsupportedTemplateError("integer backend needs exact-weight relations")
    return IntLinearSystem(inst.var_count, tuple(terms for terms, _, _ in rows),
                           tuple(rhs for _, _, rhs in rows))


def _check_in_b(t: Template, inst: Instance, bits, what: str) -> None:
    """Exact re-check that a 0/1 assignment maps every constraint into B."""
    for ri, tup in inst.constraints:
        if not t.pairs[ri][1].contains(tuple(bits[v] for v in tup)):
            raise InternalCheckError(f"{what} leaves the B side")


def _neq_components(t: Template, inst: Instance):
    """2-color the disequality graph.

    Returns (component id per var, color per var) or None when some odd
    cycle (or self-loop) makes the B side unsatisfiable outright.  The ids
    are 0, 1, ... in the order of each component's least variable, which
    has color 0.
    """
    n = inst.var_count
    adj = [[] for _ in range(n)]
    for ri, tup in inst.constraints:
        if t.pairs[ri][0].is_neq():
            u, v = tup
            if u == v:
                return None
            adj[u].append(v)
            adj[v].append(u)
    comp = [-1] * n
    color = [0] * n
    count = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = count
        count += 1
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if comp[w] < 0:
                    comp[w] = comp[start]
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return comp, color


def _presolve(system: RationalInequalitySystem, comp, color):
    """Give each disequality component one column.

    x_v becomes x_c for color 0 and 1 - x_c for color 1, where c is v's
    component and column.  A disequality row becomes the constant row
    0 = 0.  Rows that become constant are dropped when they hold; None when
    one fails, which makes the untransformed system infeasible.  Every
    component column lies in the unit box.
    """
    rows = []
    for terms, sense, rhs in system.rows:
        new = {}
        for j, c in terms:
            if color[j]:
                c, rhs = -c, rhs - c
            new[comp[j]] = new.get(comp[j], 0) + c
        new = tuple(sorted((j, c) for j, c in new.items() if c))
        if new:
            rows.append((new, sense, rhs))
        elif not _holds(0, sense, rhs):
            return None
    return RationalInequalitySystem(max(comp, default=-1) + 1, tuple(rows))


def _lift(point, comp, color) -> List[Fraction]:
    """The inverse of `_presolve`'s substitution."""
    return [1 - point[c] if f else point[c] for c, f in zip(comp, color)]


MAX_ORIENTATION_SEARCH = 1 << 20


def _solve_majority_path(t: Template, inst: Instance, polarity: bool) -> PromiseAnswer:
    """Decision for the at-most/at-least majority shapes and their exact
    relaxations.

    The LP has one weight row per constraint, a repeated variable weighted
    by its multiplicity, so the weight of a row counts the tuple's ones by
    position.  LP feasibility alone is not promise-sound here: a fractional
    point can sit on an odd disequality cycle, or leave a tuple of 2r
    half-valued positions that every rounding sends to 2r ones.
    Bipartiteness of the disequality graph plus a search over per-component
    roundings of the half-valued variables closes exactly those gaps:

    * No stays sound.  An A-side solution y 2-colors the disequality graph
      and satisfies every weight row, because its weight counts positions.
      Its own orientation breaks every clause, since 2r half positions at 1
      would give y at least 2r > r ones.
    * Yes stays in B.  Under a row's sum x <= r, fewer than 2r positions
      exceed 1/2.  Exactly 2r reach 1/2 only when all of them are halves
      and the rest are 0, which is the clause case.  So rounding with a
      clause-respecting orientation leaves at most 2r - 1 ones in every
      tuple, and `_check_in_b` still re-checks the witness.

    None of the four No returns is checked yet: an odd disequality cycle,
    a presolve contradiction, an infeasible LP and a failed orientation
    search each return No without a refutation that is re-checked.  Only
    the Yes witness is.
    """
    t_work = t.swap01() if polarity else t
    two_color = _neq_components(t_work, inst)
    if two_color is None:
        return PromiseAnswer(False)
    comp, color = two_color
    full = _lp_translate(t_work, inst)
    reduced = _presolve(full, comp, color)
    if reduced is None:
        return PromiseAnswer(False)
    point = solve_lp_feasible(reduced)
    if point is None:
        return PromiseAnswer(False)
    x = _lift(point, comp, color)
    _check_point(full, x, "lifted LP point")
    # side[v] is the sign of x_v - 1/2
    side = [(d > 0) - (d < 0) for d in (2 * xv.numerator - xv.denominator for xv in x)]

    clauses = []
    for ri, tup in inst.constraints:
        a, _ = t_work.pairs[ri]
        if a.is_neq():
            continue
        r = max(a.weights)
        g = sum(1 for v in tup if side[v] > 0)
        halves = [v for v in tup if side[v] == 0]
        if g == 0 and len(halves) == 2 * r:
            # forbid the orientation that rounds every half here to one
            pinned = {}
            consistent = True
            for v in halves:
                want = 1 ^ color[v]  # orientation value making v round to 1
                if pinned.setdefault(comp[v], want) != want:
                    consistent = False
                    break
            if consistent:
                clauses.append(pinned)

    involved = sorted({c for cl in clauses for c in cl})
    if 2 ** len(involved) > MAX_ORIENTATION_SEARCH:
        raise UnsupportedTemplateError("half-component orientation search too large")
    orientation = {}
    found = False
    for bits in range(1 << len(involved)):
        trial = {c: (bits >> i) & 1 for i, c in enumerate(involved)}
        if all(any(trial[c] != bad for c, bad in cl.items()) for cl in clauses):
            orientation = trial
            found = True
            break
    if clauses and not found:
        return PromiseAnswer(False)

    rounded = []
    for v in range(inst.var_count):
        if side[v]:
            rounded.append(int(side[v] > 0))
        else:
            rounded.append(orientation.get(comp[v], 0) ^ color[v])
    _check_in_b(t_work, inst, rounded, "rounded LP witness")
    if polarity:
        rounded = [1 - v for v in rounded]
    return PromiseAnswer(True, {v: rounded[v] for v in range(inst.var_count)})


def solve_pcsp(t: Template, inst: Instance) -> PromiseAnswer:
    """Promise-correct decision through the recognized sandwich.

    Answers Yes whenever the instance maps into the A side and No whenever it
    does not map into the B side; between the two anything goes, which is the
    promise contract.  Unrecognized templates raise rather than guess.
    """
    check_instance_against(inst, t)
    verdict = classify(t)
    if verdict.complexity is not Complexity.TRACTABLE:
        raise UnsupportedTemplateError("template is not known tractable")
    if verdict.sandwich is None:
        c = _point_absorbing(t)
        if c is not None:
            return PromiseAnswer(True, {v: c for v in range(inst.var_count)})
        raise UnsupportedTemplateError("tractable template without a recognized recipe")
    spec = verdict.sandwich
    if spec.solver == "gf2":
        sol = solve_gf2(_gf2_translate(t, inst))
        if sol is None:
            return PromiseAnswer(False)
        _check_in_b(t, inst, sol, "GF(2) witness")
        return PromiseAnswer(True, {v: sol[v] for v in range(inst.var_count)})
    if spec.solver == "diophantine":
        sol = solve_diophantine(_dio_translate(t, inst))
        if sol is None:
            return PromiseAnswer(False)
        _check_in_b(t, inst, [int(z >= 1) for z in sol], "rounded integer witness")
        return PromiseAnswer(True, sol)
    return _solve_majority_path(t, inst, spec.polarity)


def brute_force_promise(t: Template, inst: Instance, cap: int = 16):
    """(X -> A, X -> B) satisfiability, each side decided by `hom_exists`;
    the testing oracle, for instances of at most `cap` variables."""
    if inst.var_count > cap:
        raise StructureError(f"instance above brute-force cap {cap}")
    return hom_exists(inst, t, 0) is not None, hom_exists(inst, t, 1) is not None
