"""Exact-simplex tests, cross-checked against scipy's float LP solver."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from tworelay.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, maximize


def test_simple_box():
    res = maximize({"x": 1}, [({"x": 1}, 3)], ["x"])
    assert res.status == OPTIMAL
    assert res.value == 3
    assert res.point["x"] == 3


def test_two_variable_vertex():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    res = maximize(
        {"x": 1, "y": 1},
        [({"x": 1, "y": 2}, 4), ({"x": 3, "y": 1}, 6)],
        ["x", "y"],
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(14, 5)
    assert res.point["x"] == Fraction(8, 5)
    assert res.point["y"] == Fraction(6, 5)


def test_infeasible_detected():
    # x <= -1 with x >= 0
    res = maximize({"x": 1}, [({"x": 1}, -1)], ["x"])
    assert res.status == INFEASIBLE


def test_negative_rhs_feasible():
    # -x <= -2 means x >= 2; max -x attains -2
    res = maximize({"x": -1}, [({"x": -1}, -2), ({"x": 1}, 10)], ["x"])
    assert res.status == OPTIMAL
    assert res.value == -2
    assert res.point["x"] == 2


def test_unbounded_detected():
    res = maximize({"x": 1}, [({"y": 1}, 1)], ["x", "y"])
    assert res.status == UNBOUNDED


def test_equality_via_two_rows():
    # x + y = 2 encoded as <= and >=; max x
    res = maximize(
        {"x": 1},
        [({"x": 1, "y": 1}, 2), ({"x": -1, "y": -1}, -2)],
        ["x", "y"],
    )
    assert res.status == OPTIMAL
    assert res.value == 2


def test_degenerate_constraints_do_not_cycle():
    # multiple constraints active at the optimum
    res = maximize(
        {"x": 1, "y": 1},
        [
            ({"x": 1}, 1),
            ({"y": 1}, 1),
            ({"x": 1, "y": 1}, 2),
            ({"x": 1, "y": 1}, 2),
            ({"x": 2, "y": 2}, 4),
        ],
        ["x", "y"],
    )
    assert res.status == OPTIMAL
    assert res.value == 2


def test_exact_rational_answer():
    res = maximize(
        {"x": Fraction(1, 3)},
        [({"x": Fraction(2, 7)}, Fraction(5, 11))],
        ["x"],
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(1, 3) * Fraction(5, 11) * Fraction(7, 2)


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n, m = 4, 7
    a = rng.normal(size=(m, n)).round(3)
    b = rng.normal(loc=1.0, size=m).round(3)
    c = rng.normal(size=n).round(3)

    names = [f"x{j}" for j in range(n)]
    rows = [
        ({names[j]: Fraction(str(a[i, j])) for j in range(n)}, Fraction(str(b[i])))
        for i in range(m)
    ]
    mine = maximize({names[j]: Fraction(str(c[j])) for j in range(n)}, rows, names)

    ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
    if ref.status == 2:
        assert mine.status == INFEASIBLE
    elif ref.status == 3:
        assert mine.status == UNBOUNDED
    else:
        assert ref.status == 0
        assert mine.status == OPTIMAL
        assert float(mine.value) == pytest.approx(-ref.fun, abs=1e-7)
        # the returned point is feasible and attains the value
        xs = np.array([float(mine.point[nm]) for nm in names])
        assert (a @ xs <= b + 1e-9).all()
        assert (xs >= -1e-12).all()
        assert c @ xs == pytest.approx(float(mine.value), abs=1e-9)


# ---------------------------------------------------------------------------
# the presolve pinned against the plain two-phase simplex
# ---------------------------------------------------------------------------


def _plain_pivot(tableau, basis, row, col):
    inv = Fraction(1) / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [v - factor * p for v, p in zip(line, tableau[row])]
    basis[row] = col


def _plain_simplex(tableau, basis, n_cols, blocked):
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        col = next((j for j in range(n_cols) if j not in blocked and obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best_row, best_ratio = None, None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[best_row])):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            return UNBOUNDED
        _plain_pivot(tableau, basis, best_row, col)


def plain_maximize(objective, constraints, variables):
    """The two-phase simplex with every row in the tableau, no presolve."""
    variables = list(variables)
    index = {name: j for j, name in enumerate(variables)}
    n, m = len(variables), len(constraints)
    rows, rhs, flipped = [], [], []
    for coeffs, b in constraints:
        line = [Fraction(0)] * n
        for name, c in coeffs.items():
            line[index[name]] += Fraction(c)
        b = Fraction(b)
        flipped.append(b < 0)
        rows.append([-v for v in line] if b < 0 else line)
        rhs.append(abs(b))
    n_art = sum(flipped)
    n_cols = n + m + n_art
    tableau, basis, art_cols = [], [], []
    for i in range(m):
        line = rows[i] + [Fraction(0)] * (m + n_art) + [rhs[i]]
        line[n + i] = Fraction(-1) if flipped[i] else Fraction(1)
        if flipped[i]:
            col = n + m + len(art_cols)
            line[col] = Fraction(1)
            basis.append(col)
            art_cols.append(col)
        else:
            basis.append(n + i)
        tableau.append(line)
    if n_art:
        obj = [Fraction(0)] * (n_cols + 1)
        for col in art_cols:
            obj[col] = Fraction(1)
        tableau.append(obj)
        for r, bcol in enumerate(basis):
            if bcol in art_cols:
                tableau[-1] = [v - w for v, w in zip(tableau[-1], tableau[r])]
        assert _plain_simplex(tableau, basis, n_cols, set()) == OPTIMAL
        if tableau[-1][-1] != 0:
            return LpResult(INFEASIBLE)
        for r in range(m):
            if basis[r] in art_cols:
                col = next((j for j in range(n + m) if tableau[r][j] != 0), None)
                if col is not None:
                    _plain_pivot(tableau, basis, r, col)
        tableau.pop()
    obj = [Fraction(0)] * (n_cols + 1)
    for name, c in objective.items():
        obj[index[name]] = -Fraction(c)
    tableau.append(obj)
    for r, bcol in enumerate(basis):
        if tableau[-1][bcol] != 0:
            factor = tableau[-1][bcol]
            tableau[-1] = [v - factor * w for v, w in zip(tableau[-1], tableau[r])]
    if _plain_simplex(tableau, basis, n_cols, set(range(n + m, n_cols))) == UNBOUNDED:
        return LpResult(UNBOUNDED)
    point = {name: Fraction(0) for name in variables}
    for r, bcol in enumerate(basis):
        if bcol < n:
            point[variables[bcol]] = tableau[r][-1]
    return LpResult(OPTIMAL, tableau[-1][-1], point)


NAMES = ("x0", "x1", "x2")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_presolve_matches_plain_simplex(data):
    names = NAMES[:data.draw(st.integers(1, 3))]
    coeff = st.fractions(-3, 3, max_denominator=4)
    some_row = st.tuples(st.dictionaries(st.sampled_from(names), coeff, min_size=1),
                         st.fractions(-2, 4, max_denominator=4))
    # variable-free rows: no entries, or entries that are all zero, with
    # a right-hand side below, at or above zero
    zero_row = st.tuples(
        st.dictionaries(st.sampled_from(names), st.just(Fraction(0))),
        st.sampled_from([Fraction(-1, 3), 0, 0, Fraction(2, 5), 1]),
    )
    rows = data.draw(st.lists(st.one_of(some_row, some_row, zero_row), max_size=7))
    objective = data.draw(st.dictionaries(st.sampled_from(names), coeff))
    assert maximize(objective, rows, names) == plain_maximize(objective, rows, names)


@pytest.mark.parametrize(
    "rows",
    [
        # phase 1 decides: x0 >= 2 and x0 <= 1, with inert zero rows around
        [({}, 0), ({"x0": -1}, -2), ({"x1": 0}, 3), ({"x0": 1}, 1)],
        # feasible only through phase 1, zero rows before and after
        [({"x0": 0, "x1": 0}, 1), ({"x0": -1, "x1": -1}, -2), ({"x0": 1}, 3), ({}, 0)],
        # a violated zero row after a row that phase 1 alone would reject
        [({"x0": 1}, -1), ({"x1": 0}, Fraction(-1, 7))],
        # only zero rows: the unbounded objective is still reported
        [({}, 0), ({"x0": 0}, 5)],
    ],
)
def test_presolve_cases_match_plain_simplex(rows):
    objective = {"x0": 1, "x1": Fraction(1, 2)}
    assert maximize(objective, rows, ["x0", "x1"]) == plain_maximize(
        objective, rows, ["x0", "x1"])


def test_every_row_is_validated_before_a_presolve_exit():
    # the violated zero row comes first; the unknown name must still surface
    with pytest.raises(KeyError):
        maximize({"x": 1}, [({}, -1), ({"nope": 1}, 1)], ["x"])
