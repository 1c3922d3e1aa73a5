import functools
import itertools
import random
from fractions import Fraction

import pytest

from pcsp import solvers
from pcsp.classifier import UnsupportedTemplateError
from pcsp.solvers import (GF2System, IntLinearSystem, RationalInequalitySystem,
                          brute_force_promise, solve_diophantine, solve_gf2,
                          solve_lp_feasible, solve_pcsp)
from pcsp.structures import Instance, StructureError, Template, build_family, hom_exists
from conftest import random_instance, template, with_neq


def B(*args):
    return build_family(*args)


def sparse(row) -> tuple:
    """A dense coefficient row as the solvers' (column, coefficient) pairs."""
    return tuple((j, c) for j, c in enumerate(row) if c)


def int_system(n, rows, rhs) -> IntLinearSystem:
    return IntLinearSystem(n, tuple(sparse(row) for row in rows), rhs)


def lp_system(n, rows) -> RationalInequalitySystem:
    return RationalInequalitySystem(n, tuple((sparse(c), s, r) for c, s, r in rows))


# -- GF(2) ---------------------------------------------------------------------

def test_gf2_inconsistent_triangle():
    sys = GF2System(3, (0b011, 0b110, 0b101), (1, 1, 1))
    assert solve_gf2(sys) is None


def test_gf2_deterministic_witness():
    assert solve_gf2(GF2System(3, (0b111,), (1,))) == [1, 0, 0]


def test_gf2_against_exhaustive(rng):
    for _ in range(500):
        n = rng.randint(1, 10)
        m = rng.randint(1, 12)
        rows = tuple(rng.getrandbits(n) for _ in range(m))
        rhs = tuple(rng.getrandbits(1) for _ in range(m))
        got = solve_gf2(GF2System(n, rows, rhs))
        brute = any(
            all(bin(bits & mask).count("1") % 2 == b for mask, b in zip(rows, rhs))
            for bits in range(1 << n))
        assert (got is not None) == brute
        if got is not None:
            x = sum(v << i for i, v in enumerate(got))
            assert all(bin(x & mask).count("1") % 2 == b
                       for mask, b in zip(rows, rhs))


# -- integers ------------------------------------------------------------------

def test_diophantine_divisibility():
    assert solve_diophantine(int_system(1, ((3,),), (1,))) is None


def test_diophantine_witness():
    sys = int_system(4, ((1, 1, 1, 0), (1, 1, 0, 1)), (1, 1))
    assert solve_diophantine(sys) == [1, 0, 0, 0]


def test_diophantine_against_bounded_search(rng):
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
        # plant a small solution half the time, else use a random rhs
        if rng.random() < 0.5:
            x0 = [rng.randint(-2, 2) for _ in range(n)]
            rhs = tuple(sum(r * x for r, x in zip(row, x0)) for row in rows)
        else:
            rhs = tuple(rng.randint(-4, 4) for _ in range(m))
        got = solve_diophantine(int_system(n, rows, rhs))
        box = any(
            all(sum(r * x for r, x in zip(row, cand)) == b
                for row, b in zip(rows, rhs))
            for cand in itertools.product(range(-5, 6), repeat=n))
        if got is not None:
            assert all(sum(r * x for r, x in zip(row, got)) == b
                       for row, b in zip(rows, rhs))
        elif box:
            raise AssertionError(f"missed solvable system {rows} = {rhs}")


def test_diophantine_big_numbers():
    sys = int_system(2, ((10 ** 20, -1),), (7,))
    x = solve_diophantine(sys)
    assert x is not None and 10 ** 20 * x[0] - x[1] == 7


# -- rational feasibility --------------------------------------------------------

def test_lp_feasible_example():
    sys = lp_system(
        3, (((1, 1, 1), "<=", 1), ((1, 1, 0), "=", 1), ((1, 0, 1), "=", 1)))
    x = solve_lp_feasible(sys)
    assert x is not None
    assert x[0] + x[1] == 1 and x[0] + x[2] == 1 and sum(x) <= 1


def test_lp_infeasible_example():
    sys = lp_system(2, (((1, 1), "<=", 0), ((1, 1), "=", 1)))
    assert solve_lp_feasible(sys) is None


@pytest.mark.parametrize("row", [((1, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (3, 1)),
                                 ((-1, 1),), ((0, 1), (1, 0))],
                         ids=["unsorted", "duplicate", "out of range", "negative", "zero"])
def test_malformed_sparse_rows_are_refused(row):
    """Both systems take only (column, coefficient) pairs with strictly
    increasing columns in range and nonzero coefficients."""
    with pytest.raises(StructureError):
        IntLinearSystem(3, (row,), (1,))
    with pytest.raises(StructureError):
        RationalInequalitySystem(3, ((row, "=", 1),))
    IntLinearSystem(3, (((0, 1), (2, -1)), ()), (1, 0))
    RationalInequalitySystem(3, ((((0, 1), (2, Fraction(1, 2))), "<=", 1),))


def _vertex_oracle(n: int, rows) -> bool:
    """Feasibility by enumerating candidate vertices of the system of dense
    rows in the unit box."""
    planes = []
    for coeffs, sense, rhs in rows:
        planes.append((tuple(Fraction(c) for c in coeffs), Fraction(rhs)))
    for i in range(n):
        unit = tuple(Fraction(1 if j == i else 0) for j in range(n))
        planes.append((unit, Fraction(0)))
        planes.append((unit, Fraction(1)))

    def satisfies(x):
        for coeffs, sense, rhs in rows:
            val = sum(Fraction(c) * xi for c, xi in zip(coeffs, x))
            if sense == "<=" and val > rhs:
                return False
            if sense == ">=" and val < rhs:
                return False
            if sense == "=" and val != rhs:
                return False
        return all(0 <= xi <= 1 for xi in x)

    for subset in itertools.combinations(range(len(planes)), n):
        mat = [list(planes[i][0]) + [planes[i][1]] for i in subset]
        # exact Gaussian elimination
        x = _solve_square(mat, n)
        if x is not None and satisfies(x):
            return True
    return False


def _solve_square(mat, n):
    mat = [row[:] for row in mat]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = Fraction(1) / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def test_lp_against_vertex_enumeration(rng):
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = []
        for _ in range(m):
            coeffs = tuple(rng.randint(-2, 2) for _ in range(n))
            sense = rng.choice(["<=", ">=", "="])
            rhs = Fraction(rng.randint(-2, 4), rng.randint(1, 3))
            rows.append((coeffs, sense, rhs))
        sys = lp_system(n, rows)
        assert (solve_lp_feasible(sys) is not None) == _vertex_oracle(n, rows)


def _assert_in_system(sys: RationalInequalitySystem, x) -> None:
    for terms, sense, rhs in sys.rows:
        val = sum(c * x[j] for j, c in terms)
        assert {"<=": val <= rhs, ">=": val >= rhs, "=": val == rhs}[sense], (sys, x)
    assert all(0 <= xi <= 1 for xi in x), (sys, x)


def test_lp_rational_rows_against_vertex_enumeration(rng):
    """Rational coefficients and right-hand sides, negative ones among them:
    feasibility matches the oracle, every point lies in its rows and box,
    and some final tableau holds a column at its upper bound (flipped)."""

    def q(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 4))

    seen = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        rows = tuple((tuple(q(-4, 4) for _ in range(n)), rng.choice(["<=", ">=", "="]),
                      q(-6, 6)) for _ in range(rng.randint(1, 4)))
        sys = lp_system(n, rows)
        x = solve_lp_feasible(sys)
        assert (x is not None) == _vertex_oracle(n, rows), sys
        if x is not None:
            _assert_in_system(sys, x)
        seen.add("feasible" if x is not None else "infeasible")
        if any(rhs < 0 for _, _, rhs in rows):
            seen.add("negative rhs")
        if any(solvers._phase_one(sys)[3]):
            seen.add("flipped")
    assert seen == {"feasible", "infeasible", "negative rhs", "flipped"}


@functools.lru_cache(maxsize=None)
def _degenerate_systems():
    """30 seeded systems of 8 to 10 rows with right-hand side 0 and one or
    two other rows, each with the oracle's answer."""
    rng = random.Random(5)
    out = []
    for _ in range(30):
        rows = [(tuple(rng.choice((-1, 0, 0, 1, 2)) for _ in range(3)),
                 rng.choice(["<=", ">=", "="]), 0) for _ in range(rng.randint(8, 10))]
        rows += [(tuple(rng.randint(-2, 2) for _ in range(3)), rng.choice(["<=", ">=", "="]),
                  Fraction(rng.randint(-2, 4), rng.randint(1, 3))) for _ in range(rng.randint(1, 2))]
        rng.shuffle(rows)
        out.append((lp_system(3, rows), _vertex_oracle(3, rows)))
    return tuple(out)


@pytest.mark.parametrize("run", [0, 1, solvers.DEGENERATE_RUN])
def test_lp_degenerate_systems_against_vertex_enumeration(run, monkeypatch):
    """The zero rows make most pivots degenerate, so with a short run the
    entering rule falls back to Bland's (with run 0 it is Bland's
    throughout); the answers still match the oracle."""
    monkeypatch.setattr(solvers, "DEGENERATE_RUN", run)
    for sys, feasible in _degenerate_systems():
        x = solve_lp_feasible(sys)
        assert (x is not None) == feasible, sys
        if x is not None:
            _assert_in_system(sys, x)
    assert {feasible for _, feasible in _degenerate_systems()} == {True, False}


# -- promise solving -------------------------------------------------------------

ONE_IN_THREE = template((B("exact", 1, 3), B("nae", 3)))


def test_solve_forced_no():
    ans = solve_pcsp(ONE_IN_THREE, Instance(1, ((0, (0, 0, 0)),)))
    assert not ans.yes


def test_solve_yes_with_witness():
    inst = Instance(4, ((0, (0, 1, 2)), (0, (0, 1, 3))))
    ans = solve_pcsp(ONE_IN_THREE, inst)
    assert ans.yes
    z = ans.witness
    assert z[0] + z[1] + z[2] == 1 and z[0] + z[1] + z[3] == 1
    bits = [1 if v >= 1 else 0 for v in z]
    for ri, tup in inst.constraints:
        assert ONE_IN_THREE.pairs[ri][1].contains(tuple(bits[v] for v in tup))


def test_solve_unsupported_template_raises():
    t = with_neq(B("nae", 3), B("nae", 3))
    with pytest.raises(UnsupportedTemplateError):
        solve_pcsp(t, Instance(2, ((0, (0, 1, 1)),)))


def test_solve_point_absorbing_template():
    t = template((B("exact", 1, 3), B("full", 3)))
    ans = solve_pcsp(t, Instance(2, ((0, (0, 1, 1)),)))
    assert ans.yes


def test_brute_force_examples():
    assert brute_force_promise(ONE_IN_THREE, Instance(1, ((0, (0, 0, 0)),))) == \
        (False, False)
    assert brute_force_promise(ONE_IN_THREE, Instance(3, ((0, (0, 1, 2)),))) == \
        (True, True)
    inst = Instance(3, ((0, (0, 1, 2)), (0, (1, 2, 0))))
    assert brute_force_promise(ONE_IN_THREE, inst) == (True, True)


def test_brute_force_cap():
    with pytest.raises(StructureError):
        brute_force_promise(ONE_IN_THREE, Instance(5, ()), cap=4)
    assert brute_force_promise(ONE_IN_THREE, Instance(3, ()), cap=8) == (True, True)
    # the default cap is 16 variables
    assert brute_force_promise(ONE_IN_THREE, Instance(16, ())) == (True, True)
    with pytest.raises(StructureError):
        brute_force_promise(ONE_IN_THREE, Instance(17, ()))


CATALOG = {
    "parity3": with_neq(B("odd", 3), B("odd", 3)),
    "two_sat": with_neq(B("atmost", 1, 3), B("atmost", 1, 3)),
    "majority24": with_neq(B("atmost", 2, 4), B("atmost", 3, 4)),
    "majority_mirror": with_neq(B("atleast", 2, 3), B("atleast", 2, 3)),
    "one_in_three": ONE_IN_THREE,
    "two_in_four": template((B("exact", 2, 4), B("nae", 4))),
    "two_in_three": template((B("exact", 2, 3), B("nae", 3))),
    "exact_item1": with_neq(B("exact", 2, 5), B("atmost", 3, 5)),
    # GF(2) recipe with a full B side, whose rows the translation skips
    "one_in_three_full": with_neq(B("exact", 1, 3), B("full", 3)),
    # integer recipe with disequality rows
    "one_in_three_neq": with_neq(B("exact", 1, 3), B("nae", 3)),
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_promise_soundness_with_repeats(name, rng):
    """Promise contract under adversarial variable repetition."""
    t = CATALOG[name]
    for _ in range(60):
        inst = random_instance(t, rng, max_vars=6, max_cons=8, allow_repeats=True)
        a_sat, b_sat = brute_force_promise(t, inst)
        ans = solve_pcsp(t, inst)
        assert not (a_sat and not ans.yes), (name, inst)
        assert not (not b_sat and ans.yes), (name, inst)


@pytest.mark.parametrize("n", [24, 32, 40])
def test_promise_soundness_past_the_brute_force_horizon(n):
    """The promise contract on instances too large for `brute_force_promise`,
    each side decided by `hom_exists`: A-satisfiable gives YES,
    B-unsatisfiable gives NO, every YES witness lies in B, and each oracle
    witness lies in its own side.  The densities straddle both sides'
    thresholds, so satisfiable on both sides, on B only, and on neither all
    occur."""
    outcomes = set()
    for name in ("majority24", "exact_item1", "one_in_three", "two_sat"):
        t = CATALOG[name]
        rng = random.Random(f"horizon/{name}/{n}")
        for _ in range(10):
            cons = []
            for _ in range(rng.randint(n // 2, 2 * n)):
                ri = rng.randrange(len(t.pairs))
                cons.append((ri, tuple(rng.sample(range(n), t.arity_of(ri)))))
            inst = Instance(n, tuple(cons))
            witnesses = [hom_exists(inst, t, side) for side in (0, 1)]
            for side, w in enumerate(witnesses):
                if w is not None:
                    assert all(t.pairs[ri][side].contains(tuple(w[v] for v in tup))
                               for ri, tup in inst.constraints)
            a_sat, b_sat = (w is not None for w in witnesses)
            ans = solve_pcsp(t, inst)
            assert ans.yes or not a_sat, (name, inst)
            assert not ans.yes or b_sat, (name, inst)
            if ans.yes:
                for ri, tup in inst.constraints:
                    assert t.pairs[ri][1].contains(tuple(ans.witness[v] for v in tup))
            outcomes.add({(True, True): "both sides", (False, True): "B only",
                          (False, False): "neither"}[a_sat, b_sat])
    assert outcomes == {"both sides", "B only", "neither"}


def test_neq_self_loop_answers_no():
    t = with_neq(B("atmost", 2, 4), B("atmost", 3, 4))
    inst = Instance(2, ((1, (0, 0)),))
    assert not solve_pcsp(t, inst).yes


def test_odd_neq_cycle_answers_no():
    t = with_neq(B("atmost", 2, 4), B("atmost", 3, 4))
    inst = Instance(3, ((1, (0, 1)), (1, (1, 2)), (1, (2, 0)),
                        (0, (0, 1, 2, 0))))
    a_sat, b_sat = brute_force_promise(t, inst)
    assert not b_sat
    assert not solve_pcsp(t, inst).yes


def test_translated_rows_do_not_depend_on_the_variable_count():
    """The same constraints on variables 0-9 give the same rows at vars 10
    and vars 100000, over exactly the instance's columns in both systems.
    A repeated variable is one term whose coefficient is its multiplicity."""
    cons = ((0, (0, 1, 2)), (0, (3, 9, 4)), (0, (5, 5, 6)), (0, (7, 8, 7)))
    lp_small, lp_big = (solvers._lp_translate(CATALOG["two_sat"], Instance(n, cons))
                        for n in (10, 100000))
    dio_small, dio_big = (solvers._dio_translate(ONE_IN_THREE, Instance(n, cons))
                          for n in (10, 100000))
    assert (lp_small.n_vars, lp_big.n_vars) == (dio_small.n_vars, dio_big.n_vars) == (10, 100000)
    assert lp_big.rows == lp_small.rows and len(lp_small.rows) == len(cons)
    assert (dio_big.rows, dio_big.rhs) == (dio_small.rows, dio_small.rhs)
    assert lp_small.rows[2][0] == dio_small.rows[2] == ((5, 2), (6, 1))


def test_gf2_witness_is_a_homomorphism(rng):
    t = with_neq(B("odd", 3), B("odd", 3))
    for _ in range(40):
        inst = random_instance(t, rng, allow_repeats=True)
        ans = solve_pcsp(t, inst)
        if ans.yes:
            w = ans.witness
            for ri, tup in inst.constraints:
                assert t.pairs[ri][0].contains(tuple(w[v] for v in tup))


def _disequality_heavy_instance(t: Template, rng: random.Random, n: int):
    """Disequalities mostly along a hidden 2-coloring, weight constraints on
    the first `core` variables (some repeat the two ends of one disequality,
    so their variables share a component) and a tail of variables that only
    disequalities among themselves touch.  Returns the instance and whether
    it has a repeated-variable constraint inside one component."""
    neq = next(ri for ri, (a, _) in enumerate(t.pairs) if a.is_neq())
    k = t.pairs[1 - neq][0].arity
    color = [rng.randrange(2) for _ in range(n)]
    core = n - rng.randint(2, 3)
    cons, edges = [], []
    for _ in range(rng.randint(n, 2 * n)):
        u, v = rng.sample(range(n), 2)
        if (u < core) == (v < core) and (color[u] != color[v] or rng.random() < 0.05):
            cons.append((neq, (u, v)))
            if v < core:
                edges.append((u, v))
    shared = False
    for _ in range(rng.randint(2, core // 2 + 2)):
        if edges and rng.random() < 0.3:
            u, v = rng.choice(edges)
            tup = [u, v] + [rng.choice((u, v)) for _ in range(k - 2)]
            rng.shuffle(tup)
            shared = True
        else:
            tup = rng.sample(range(core), k)
        cons.append((1 - neq, tuple(tup)))
    rng.shuffle(cons)
    return Instance(n, tuple(cons)), shared


@pytest.mark.parametrize("name", ["two_sat", "majority24", "exact_item1", "two_sat4"])
def test_presolve_promise_soundness_heavy_in_disequalities(name):
    """The disequality presolve keeps the promise contract: A-satisfiable
    instances get YES, B-unsatisfiable ones NO, and every YES witness lies
    in B.  two_sat4 has even arity, so a weight row over two disequality
    pairs becomes constant and can fail outright."""
    t = CATALOG.get(name) or with_neq(B("atmost", 1, 4), B("atmost", 1, 4))
    rng = random.Random(f"presolve/{name}")
    seen = set()
    for _ in range(25):
        inst, shared = _disequality_heavy_instance(t, rng, rng.randint(10, 16))
        a_sat, b_sat = brute_force_promise(t, inst)
        ans = solve_pcsp(t, inst)
        assert ans.yes or not a_sat, inst
        assert not ans.yes or b_sat, inst
        if ans.yes:
            for ri, tup in inst.constraints:
                assert t.pairs[ri][1].contains(tuple(ans.witness[v] for v in tup)), inst
        seen.add("YES" if ans.yes else "NO")
        if shared:
            seen.add("shared component")
    assert seen == {"YES", "NO", "shared component"}
