"""Exact linear programming over nonnegative variables.

A small dense two-phase simplex on ``fractions.Fraction``.  Every system this
package feeds it has a handful of variables and a few dozen rows, so
simplicity and exactness win over sparse cleverness.  Bland's rule keeps the
pivoting cycle-free.  It is the oracle, not the hot path: :mod:`tworelay.fm`
reads its maxima off each system's projection onto the rate and calls
:func:`maximize` only to re-check a disagreement, and the tests hold the
projection to this simplex.

Problems are stated as: maximize c.x subject to A.x <= b, x >= 0.  Strict
inequalities from the rate systems are relaxed to non-strict before reaching
this module; the open/closed distinction never moves a supremum.

A presolve pass settles variable-free rows ``0 <= b`` before any tableau is
built (Andersen and Andersen, "Presolving in linear programming", 1995).  A
row with ``b < 0`` is its own infeasibility certificate, so the problem is
reported infeasible without a phase 1.  A row with ``b >= 0`` is dropped:
its slack column is nonzero only in its own row, so it never enters the
basis and never wins a ratio test, and dropping it keeps the relative order
of every other column.  Bland's rule then makes the same pivots, and the
status, value and point are exactly those of the full tableau.  Every row is
still checked for unknown variable names before an early return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None = None
    point: dict[str, Fraction] | None = None


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    inv = Fraction(1) / piv
    tableau[row] = [v * inv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [v - factor * p for v, p in zip(line, tableau[row])]
    basis[row] = col


def _run_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    n_cols: int,
    blocked: set[int],
) -> str:
    """Drive the objective row (last) to optimality; returns optimal/unbounded.

    The objective row holds reduced costs for a maximization written as
    z - c.x = 0, so a NEGATIVE entry means the column can still improve z.
    """
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        col = next(
            (j for j in range(n_cols) if j not in blocked and obj[j] < 0), None
        )
        if col is None:
            return OPTIMAL
        # ratio test, Bland tie-break on basic variable index
        best_row, best_ratio = None, None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            return UNBOUNDED
        _pivot(tableau, basis, best_row, col)


def maximize(
    objective: Mapping[str, Fraction | int],
    constraints: Sequence[tuple[Mapping[str, Fraction | int], Fraction | int]],
    variables: Sequence[str],
) -> LpResult:
    """Maximize objective.x subject to coeffs.x <= rhs per row and x >= 0."""
    variables = list(variables)
    index = {name: j for j, name in enumerate(variables)}
    n = len(variables)

    # presolve: a row with all-zero coefficients reads 0 <= b
    kept = []
    infeasible = False
    for coeffs, b in constraints:
        for name in coeffs:
            if name not in index:
                raise KeyError(name)
        if any(coeffs.values()):
            kept.append((coeffs, b))
        elif b < 0:
            infeasible = True
    if infeasible:
        return LpResult(INFEASIBLE)

    # equality form: A.x + s = b with b >= 0 after row sign fixes;
    # rows flipped to reach b >= 0 get a -1 slack and an artificial
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    needs_artificial: list[bool] = []
    for coeffs, b in kept:
        line = [Fraction(0)] * n
        for name, c in coeffs.items():
            line[index[name]] += Fraction(c)
        b = Fraction(b)
        if b < 0:
            line = [-v for v in line]
            b = -b
            needs_artificial.append(True)
        else:
            needs_artificial.append(False)
        rows.append(line)
        rhs.append(b)

    m = len(rows)
    n_art = sum(needs_artificial)
    n_cols = n + m + n_art  # structural + slack + artificial
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    art_seen = 0
    for i in range(m):
        line = rows[i] + [Fraction(0)] * (m + n_art) + [rhs[i]]
        slack = Fraction(-1) if needs_artificial[i] else Fraction(1)
        line[n + i] = slack
        if needs_artificial[i]:
            col = n + m + art_seen
            line[col] = Fraction(1)
            basis.append(col)
            art_cols.append(col)
            art_seen += 1
        else:
            basis.append(n + i)
        tableau.append(line)

    if n_art:
        # phase 1: maximize -(sum of artificials)
        obj = [Fraction(0)] * (n_cols + 1)
        for col in art_cols:
            obj[col] = Fraction(1)
        tableau.append(obj)
        # price out the basic artificials
        for r, bcol in enumerate(basis):
            if bcol in art_cols:
                tableau[-1] = [
                    v - w for v, w in zip(tableau[-1], tableau[r])
                ]
        status = _run_simplex(tableau, basis, n_cols, blocked=set())
        assert status == OPTIMAL  # phase-1 objective is bounded by 0
        if tableau[-1][-1] != 0:
            return LpResult(INFEASIBLE)
        # pivot surviving artificials out of the basis where possible
        art_set = set(art_cols)
        for r in range(m):
            if basis[r] in art_set:
                col = next(
                    (j for j in range(n + m) if tableau[r][j] != 0), None
                )
                if col is not None:
                    _pivot(tableau, basis, r, col)
        tableau.pop()

    # phase 2
    obj = [Fraction(0)] * (n_cols + 1)
    for name, c in objective.items():
        obj[index[name]] = -Fraction(c)
    tableau.append(obj)
    for r, bcol in enumerate(basis):
        if tableau[-1][bcol] != 0:
            factor = tableau[-1][bcol]
            tableau[-1] = [
                v - factor * w for v, w in zip(tableau[-1], tableau[r])
            ]
    blocked = set(range(n + m, n_cols))  # artificials stay out
    status = _run_simplex(tableau, basis, n_cols, blocked)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    point = {name: Fraction(0) for name in variables}
    for r, bcol in enumerate(basis):
        if bcol < n:
            point[variables[bcol]] = tableau[r][-1]
    value = tableau[-1][-1]
    return LpResult(OPTIMAL, value, point)
