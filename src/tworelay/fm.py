"""Symbolic Fourier-Motzkin elimination over rate-inequality systems.

A system is a set of rows ``expr < 0`` or ``expr <= 0`` where ``expr`` is
linear in named rate variables with coefficients that are exact rationals,
plus a rational combination of information terms (the symbols).  A symbol is
an :class:`tworelay.info.InfoQuery`, the type the numeric evaluators use, and
is named by its text ``I(L;R|G)``.  Symbols are opaque nonnegative reals here;
identities that hold between them on real distributions (chain rules and the
like) are deliberately ignored, so pruning is conservative and equivalence
claims are settled numerically on sampled bindings, never syntactically.

Pruning has one rule: a row goes when another row, or the always-true
``0 <= 0``, implies it for nonnegative symbols, and of equal rows the first
stays.  Each system compiles its rows once, on first use, into one integer
matrix, and elimination and pruning run on that matrix.  The numeric check
projects each system onto RB once, by the same elimination with every
variable nonnegative, and reads the exact maximum of RB on each binding off
the projected rows: floats with a proven error bound decide what they can,
exact integers the rest (Dantzig and Eaves, "Fourier-Motzkin elimination and
its dual", 1973; Shewchuk, "Adaptive precision floating-point arithmetic",
1997).  The simplex of :mod:`tworelay.lp` only re-checks a disagreement; the
tests hold the projection to it.

The two built-in systems are the per-stage inequality sets of the two coding
schemes; the two built-in target systems are the corresponding single-letter
constraint sets.  Neither is written out here: both come from running the row
code of :mod:`tworelay.rates`, the code the numeric evaluators run, on
symbols and rate variables.  Eliminating the per-stage bookkeeping rates
from the former and comparing against the latter by the exact maximum rate
on sampled bindings is the whole point of this module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .info import InfoQuery, term_plan
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, maximize
from .prob import (
    LAW_FAMILIES,
    ResourceLimitError,
    ValidationError,
    random_joints,
)
from .rates import THEOREMS, Scheme

EQUIV_TOL = 1e-6
# sampled bindings held at once; each t2 binding takes about 4.7 KB, so the
# cap bounds a sample near 0.5 GB.  The joints behind them are built in
# stacks of at most prob.STACK_ENTRIES entries, so the transient arrays do
# not grow with the count.
MAX_BINDINGS = 100_000
# rows one elimination step may form; the builtin reductions peak at 173,
# their projections onto RB at 462
MAX_FM_ROWS = 1000
# every stored row coefficient is below this in magnitude, so that a sum of
# two products of coefficients stays inside int64
MAX_COEFF = 2**31
# entries of one transient block: a pruning comparison, or rows by bindings
# when reading a projection
_BLOCK_ENTRIES = 1 << 13
# one term of a row: a coefficient written as str(Fraction) writes it (an
# integer or an integer ratio), then "*" and a rate variable or I(...)
_TERM = re.compile(r"(-?[0-9]+(?:/0*[1-9][0-9]*)?)\*(.+)")


@dataclass(frozen=True)
class LinearExpr:
    """Rational-linear combination of rate variables and information symbols."""

    vars: tuple[tuple[str, Fraction], ...]
    syms: tuple[tuple[InfoQuery, Fraction], ...]

    @classmethod
    def of(
        cls,
        vars: Mapping[str, Fraction | int] | None = None,
        syms: Mapping[InfoQuery, Fraction | int] | None = None,
    ) -> "LinearExpr":
        v = {k: Fraction(c) for k, c in (vars or {}).items() if c != 0}
        s = {k: Fraction(c) for k, c in (syms or {}).items() if c != 0}
        return cls(
            tuple(sorted(v.items())),
            tuple(sorted(s.items(), key=lambda kv: str(kv[0]))),
        )

    def var_map(self) -> dict[str, Fraction]:
        return dict(self.vars)

    def sym_map(self) -> dict[InfoQuery, Fraction]:
        return dict(self.syms)

    def scaled(self, factor: Fraction) -> "LinearExpr":
        return LinearExpr.of(
            {k: c * factor for k, c in self.vars},
            {k: c * factor for k, c in self.syms},
        )

    def __add__(self, other: "LinearExpr") -> "LinearExpr":
        v = self.var_map()
        for k, c in other.vars:
            v[k] = v.get(k, Fraction(0)) + c
        s = self.sym_map()
        for k, c in other.syms:
            s[k] = s.get(k, Fraction(0)) + c
        return LinearExpr.of(v, s)

    def __sub__(self, other: "LinearExpr") -> "LinearExpr":
        return self + other.scaled(Fraction(-1))


@dataclass(frozen=True)
class Inequality:
    """One row ``expr < 0`` (strict) or ``expr <= 0``."""

    expr: LinearExpr
    strict: bool
    provenance: str

    def normalized(self, var_order: Sequence[str]) -> "Inequality":
        """Scale so the leading coefficient has magnitude 1.

        Leading means the first nonzero rate coefficient in ``var_order``,
        falling back to the first symbol in name order.  The scale factor is
        positive, so the inequality direction is untouched.
        """
        coeffs = self.expr.var_map()
        lead = next((coeffs[v] for v in var_order if coeffs.get(v)), None)
        if lead is None and self.expr.syms:
            lead = self.expr.syms[0][1]
        if lead is None or abs(lead) == 1:
            return self
        return Inequality(self.expr.scaled(Fraction(1) / abs(lead)), self.strict, self.provenance)


@dataclass(frozen=True)
class RateSystem:
    """An inequality system over ordered rate variables."""

    inequalities: tuple[Inequality, ...]
    variables: tuple[str, ...]

    def __post_init__(self):
        repeated = sorted({v for v in self.variables if self.variables.count(v) > 1})
        if repeated:
            raise ValidationError(f"variables declared more than once: {repeated}")
        used = {k for ineq in self.inequalities for k, _ in ineq.expr.vars}
        unknown = used - set(self.variables)
        if unknown:
            raise ValidationError(f"rows reference undeclared variables {sorted(unknown)}")
        unused = set(self.variables) - used
        if unused:
            raise ValidationError(f"declared variables never referenced: {sorted(unused)}")

    @property
    def symbols(self) -> tuple[InfoQuery, ...]:
        found = {sym for ineq in self.inequalities for sym, _ in ineq.expr.syms}
        return tuple(sorted(found, key=str))

    @cached_property
    def _rows(self) -> "_Rows":
        """The rows as one integer matrix, compiled on first use."""
        return _compile(self)

    @cached_property
    def _projection(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """The projection onto RB that :func:`max_rate` reads, computed on
        first use."""
        return _project(self._rows)


def _scheme(which: str, kind: str) -> Scheme:
    if which not in THEOREMS:
        raise ValidationError(f"unknown {kind} {which!r}")
    return THEOREMS[which]


def _symbolic(scheme: Scheme) -> tuple[dict[str, LinearExpr], object, list[str]]:
    """A scheme's terms as information symbols and its rate tuple as rate
    variables: ``rbar`` is RB and every other field its name in capitals.
    Also returns the variable names in field order."""
    t = {name: LinearExpr.of(syms={q: 1}) for name, q in scheme.queries.items()}
    names = ["RB" if f.name == "rbar" else f.name.upper() for f in fields(scheme.rates)]
    return t, scheme.rates(*(LinearExpr.of({name: 1}) for name in names)), names


def _strict(label: str, sense: str, lhs: LinearExpr, rhs: LinearExpr) -> Inequality:
    """A paper row as an open condition: ``lhs > rhs`` reads ``rhs - lhs < 0``
    and ``lhs < rhs`` or ``lhs <= rhs`` reads ``lhs - rhs < 0``."""
    return Inequality(rhs - lhs if sense == ">" else lhs - rhs, True, label)


def _system(rows: list[Inequality], names: Sequence[str]) -> RateSystem:
    """The rows over RB and the variables they use, in field order, plus the
    rows every paper system shares: each variable but RB is nonnegative and,
    where R1 exists, the block rate is RB = R1 + R21 + R22."""
    used = {v for ineq in rows for v, _ in ineq.expr.vars}
    variables = ("RB",) + tuple(v for v in names if v in used and v != "RB")
    rows = rows + [Inequality(LinearExpr.of({v: -1}), False, f"{v}>=0") for v in variables[1:]]
    if "R1" in variables:
        total = LinearExpr.of({"RB": 1, "R1": -1, "R21": -1, "R22": -1})
        rows += [Inequality(e, False, "RB-def") for e in (total, total.scaled(Fraction(-1)))]
    return RateSystem(tuple(rows), variables)


@cache
def builtin_system(which: str) -> RateSystem:
    """The per-stage inequality system of one coding scheme: its proof rows
    in :data:`tworelay.rates.THEOREMS` on symbols and rate variables.  Built
    once per tag; the frozen system, and its compiled rows, are shared."""
    scheme = _scheme(which, "builtin system")
    t, rates, names = _symbolic(scheme)
    return _system([_strict(*row) for row in scheme.proof_rows(t, rates)], names)


@cache
def target_system(which: str) -> RateSystem:
    """The single-letter constraint set each scheme is stated in: its
    theorem's rows on symbols, with the partial rates R21, R22 as variables
    and every row strict, plus the proof row that bounds the objective.
    Built once per tag, like :func:`builtin_system`."""
    scheme = _scheme(which, "target system")
    t, rates, names = _symbolic(scheme)
    outcome = scheme.outcome(t, (rates.r21, rates.r22)) if which == "t2" else scheme.outcome(t)
    rows = [_strict(*row) for row in outcome.rows]
    proof = (_strict(*row) for row in scheme.proof_rows(t, rates))
    rows.append(next(ineq for ineq in proof if names[0] in ineq.expr.var_map()))
    return _system(rows, names)


# ---------------------------------------------------------------------------
# the row matrix: elimination and pruning
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Rows:
    """Rows as one int64 matrix, a column per variable and then per symbol in
    name order.  Each row is primitive (its entries share no factor), so its
    normalized form is ``row / |first nonzero|`` and rows equal up to a
    positive factor are equal vectors."""

    coef: np.ndarray
    strict: np.ndarray
    provenance: tuple[str, ...]
    variables: tuple[str, ...]
    symbols: tuple[InfoQuery, ...]

    @classmethod
    def of(cls, coef, strict, provenance, variables, symbols) -> "_Rows":
        """Checked rows over the columns some row uses."""
        if coef.size and np.abs(coef).max() >= MAX_COEFF:
            raise ResourceLimitError(
                "a row coefficient reaches 2**31, past which int64 could overflow")
        used, n = coef.any(axis=0), len(variables)
        keep = lambda names, flags: tuple(x for x, u in zip(names, flags) if u)
        return cls(coef[:, used].astype(np.int64), np.asarray(strict, dtype=bool),
                   tuple(provenance), keep(variables, used[:n]), keep(symbols, used[n:]))


def _compile(system: RateSystem) -> _Rows:
    symbols = system.symbols
    column = {k: j for j, k in enumerate(system.variables + symbols)}
    coef = np.zeros((len(system.inequalities), len(column)), dtype=np.int64)
    for line, ineq in zip(coef, system.inequalities):
        terms = ineq.expr.vars + ineq.expr.syms
        scale = math.lcm(*(c.denominator for _, c in terms))
        ints = [c.numerator * (scale // c.denominator) for _, c in terms]
        g = math.gcd(*ints) or 1
        # clipped, so that _Rows.of sees and refuses a coefficient too large
        line[[column[k] for k, _ in terms]] = [
            max(-MAX_COEFF, min(c // g, MAX_COEFF)) for c in ints]
    return _Rows.of(coef, [r.strict for r in system.inequalities],
                    [r.provenance for r in system.inequalities], system.variables, symbols)


def _eliminate(rows: _Rows, var: str):
    """One elimination step: the rows without ``var``, then one row per
    upper/lower pair.  Also returns the kept rows' indices and, per pair,
    the integers ``g / s`` that bring its new row to the parents' sum with
    ``var`` scaled to coefficient 1 in the upper row and -1 in the lower."""
    a = rows.coef[:, rows.variables.index(var)]
    up, lo, rest = np.flatnonzero(a > 0), np.flatnonzero(a < 0), np.flatnonzero(a == 0)
    count = len(rest) + len(up) * len(lo)
    if count > MAX_FM_ROWS:
        raise ResourceLimitError(
            f"eliminating {var} would give {count} rows, above the cap of {MAX_FM_ROWS}"
        )
    # entries below 2**31 keep each sum of two products inside int64
    cu, cl = a[up][:, None, None], -a[lo][None, :, None]
    raw = (rows.coef[up][:, None] * cl + rows.coef[lo][None] * cu).reshape(-1, rows.coef.shape[1])
    g = np.maximum(np.gcd.reduce(raw, axis=1), 1)
    out = _Rows.of(
        np.concatenate([rows.coef[rest], raw // g[:, None]]),
        np.concatenate([rows.strict[rest], (rows.strict[up][:, None] | rows.strict[lo]).ravel()]),
        [rows.provenance[i] for i in rest]
        + [f"{rows.provenance[i]}+{rows.provenance[j]}" for i in up for j in lo],
        rows.variables, rows.symbols)
    return out, rest, g, (cu * cl).ravel()


def _leads(coef: np.ndarray) -> np.ndarray:
    """Each row's first nonzero magnitude, 1 for a zero row."""
    padded = np.column_stack([coef, np.ones(len(coef), dtype=coef.dtype)])
    return np.abs(padded[np.arange(len(coef)), (padded != 0).argmax(axis=1)])


def _prune(rows: _Rows) -> _Rows:
    """The rule of :func:`prune`.  Rows have equal normalized rate parts
    exactly when their rate parts over their gcd are equal, so a row is
    tested against the rows of its group only, a bounded block at a time."""
    seen: dict[bytes, int] = {}
    for i, key in enumerate(map(bytes, np.column_stack([rows.coef, rows.strict]))):
        seen.setdefault(key, i)
    first = np.fromiter(seen.values(), dtype=np.intp, count=len(seen))
    coef, strict, n = rows.coef[first], rows.strict[first], len(rows.variables)
    rate, sym, lead = coef[:, :n], coef[:, n:], _leads(coef)
    dropped = ~strict & ~rate.any(axis=1) & (sym <= 0).all(axis=1)  # implied by 0 <= 0
    groups: dict[bytes, list[int]] = {}
    primitive = rate // np.maximum(np.gcd.reduce(rate, axis=1), 1)[:, None]
    for i, key in enumerate(map(bytes, primitive)):
        groups.setdefault(key, []).append(i)
    for members in (np.array(m) for m in groups.values() if len(m) > 1):
        # normalized symbol parts times the lcm of the group's leads, in
        # the narrowest integer type that holds them
        scale = math.lcm(*lead[members].tolist())
        most = scale * max(1, int(np.abs(sym[members]).max(initial=0)))
        if most >= 2**63:
            raise ResourceLimitError("pruning: rows brought to one scale would pass int64")
        scaled = (sym[members] * (scale // lead[members])[:, None]).astype(
            np.result_type(np.min_scalar_type(-most), np.min_scalar_type(most)))
        step = max(1, _BLOCK_ENTRIES // (len(members) * max(1, sym.shape[1])))
        for k in range(0, len(members), step):
            block = slice(k, k + step)  # these members as the implying rows
            implies = (strict[members[block], None] >= strict[members]) & (
                scaled[block, None] >= scaled).all(axis=2)
            implies[np.arange(implies.shape[0]), np.arange(k, k + implies.shape[0])] = False
            dropped[members] |= implies.any(axis=0)
    kept = first[~dropped]
    return _Rows.of(coef[~dropped], strict[~dropped], [rows.provenance[i] for i in kept],
                    rows.variables, rows.symbols)


def _eliminate_all(rows: _Rows, todo: list[str]) -> _Rows:
    """Eliminate and prune, cheapest pairing count first."""

    def cost(v: str) -> int:
        a = rows.coef[:, rows.variables.index(v)] if v in rows.variables else np.zeros(0)
        return int((a > 0).sum()) * int((a < 0).sum())

    while todo:
        var = min(todo, key=lambda v: (cost(v), v))
        todo.remove(var)
        if var in rows.variables:  # else already dropped as unreferenced
            rows = _prune(_eliminate(rows, var)[0])
    return rows


def _system_of(rows: _Rows, factors=None, kept: tuple[Inequality, ...] = ()) -> RateSystem:
    """The system of ``rows`` with its matrix set: ``kept``, then each
    further row times its factor, by default normalized."""
    lines, n, m = rows.coef[len(kept):], len(rows.variables), len(kept)
    if factors is None:
        factors = [Fraction(1, d) for d in _leads(lines).tolist()]
    made = tuple(
        Inequality(LinearExpr(tuple(sorted((v, c * f) for v, c in zip(rows.variables, line) if c)),
                              tuple((s, c * f) for s, c in zip(rows.symbols, line[n:]) if c)),
                   strict, provenance)
        for line, f, strict, provenance in zip(
            lines.tolist(), factors, rows.strict[m:].tolist(), rows.provenance[m:])
    )
    system = RateSystem(kept + made, rows.variables)
    vars(system)["_rows"] = rows  # what the cached property would compile
    return system


def eliminate(system: RateSystem, var: str) -> RateSystem:
    """Project the solution set onto the remaining variables.

    Rows where ``var`` has a positive coefficient bound it above, negative
    below; every above/below pair combines into one var-free row, the sum of
    the two scaled so that ``var`` cancels.  The combination is strict iff
    either parent is strict.  A step that would leave more than
    ``MAX_FM_ROWS`` rows is refused before any is formed.
    """
    if var not in system.variables:
        raise ValidationError(f"variable {var!r} not in system")
    out, rest, g, scale = _eliminate(system._rows, var)
    factors = [Fraction(a, b) for a, b in zip(g.tolist(), scale.tolist())]
    return _system_of(out, factors, tuple(system.inequalities[i] for i in rest))


def prune(system: RateSystem) -> RateSystem:
    """Drop every row that another row implies, keeping the first of equal
    rows, and return the rest normalized.

    For nonnegative symbols, normalized ``e' < 0`` (or ``<= 0``) implies
    ``e < 0`` (or ``<= 0``) when the two have the same rate part, no symbol
    coefficient of ``e' - e`` is negative, and ``e`` is strict only if
    ``e'`` is.  The always-true ``0 <= 0`` implies too, so a rate-free
    non-strict row without a positive symbol coefficient goes.
    """
    return _system_of(_prune(system._rows))


def eliminate_all(system: RateSystem, variables: Iterable[str]) -> RateSystem:
    """Eliminate several variables, cheapest pairing count first, pruning
    after each step.  With no variables the system comes back as it is."""
    todo = list(variables)
    for var in todo:
        if var not in system.variables:
            raise ValidationError(f"variable {var!r} not in system")
    return _system_of(_eliminate_all(system._rows, todo)) if todo else system


# ---------------------------------------------------------------------------
# numeric bindings and equivalence
# ---------------------------------------------------------------------------


def _binding(plan, marginals: np.ndarray) -> dict[str, Fraction]:
    """Every query of ``plan`` as an exact rational, by name, from one
    joint's marginal stack."""
    return {str(q): Fraction(v) for q, v in zip(plan.queries, plan.terms(marginals).tolist())}


def binding_of(joint, which: str) -> dict[str, Fraction]:
    """Evaluate every information symbol of one scheme family on a joint."""
    plan = term_plan(_scheme(which, "binding family").queries, joint.ids, joint.mass.shape)
    return _binding(plan, plan.marginals(joint.mass))


def sample_bindings(which: str, count: int, seed: int) -> list[dict[str, Fraction]]:
    """Evaluate every information symbol on seeded random binary channel+law pairs.

    Draw ``i`` is the pair that ``random_channel`` and then ``random_law``
    draw from ``default_rng([seed, i])``.  The joints come in stacks
    (:func:`tworelay.prob.random_joints`), each stack's marginals in one
    pass; the terms are taken one joint at a time, so each binding is the
    one :func:`binding_of` gives for its joint.  Returns one mapping from
    symbol name to exact rational value per draw.
    """
    if which not in LAW_FAMILIES:
        raise ValidationError(f"unknown binding family {which!r}")
    if seed < 0:
        raise ValidationError(f"seed {seed} < 0")
    if count > MAX_BINDINGS:
        raise ResourceLimitError(f"{count} bindings exceed the cap of {MAX_BINDINGS}")
    queries = _scheme(which, "binding family").queries
    rngs = (np.random.default_rng([seed, i]) for i in range(count))
    out = []
    for ids, stack in random_joints(LAW_FAMILIES[which], rngs):
        plan = term_plan(queries, ids, stack.shape[1:])
        out += [_binding(plan, marginals) for marginals in plan.marginals(stack)]
    return out


def _project(rows: _Rows) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The rows closed, with every variable nonnegative, projected onto RB:
    rows ``rb * RB + coef . s <= 0`` over the named symbols."""
    n, k = len(rows.variables), len(rows.symbols)
    closed = _Rows(np.concatenate([rows.coef, np.eye(n, n + k, dtype=np.int64) * -1]),
                   np.zeros(len(rows.coef) + n, dtype=bool),
                   ("",) * (len(rows.coef) + n),  # nothing reads a projected row's origin
                   rows.variables, rows.symbols)
    try:
        out = _eliminate_all(closed, [v for v in rows.variables if v != "RB"])
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"projecting onto RB: {exc}") from None
    # RB >= 0, or a row implying it, keeps RB the one variable left
    return tuple(map(str, out.symbols)), out.coef[:, 0], out.coef[:, 1:]


def _table(bindings: Sequence[Mapping[str, Fraction]], names: Sequence[str]):
    """The bindings' values over ``names``: exact, as floats, and per binding
    an absolute error floor.  The floor is 0 when every value is 0 or a
    normal float; 2**-1000 when one lies below the normal range, which
    bounds every underflowed product of a coefficient below 2**31; and
    infinite when one does not fit a float, which leaves all of that
    binding to exact arithmetic."""
    try:
        exact = [[v if type(v) is Fraction else Fraction(v)
                  for v in map(binding.__getitem__, names)] for binding in bindings]
    except KeyError as exc:
        raise ValidationError(f"binding is missing symbol {exc.args[0]}") from None
    floats, floor, negative = np.zeros((len(exact), len(names))), np.zeros(len(exact)), False
    for i, values in enumerate(exact):
        try:
            floats[i] = [v.numerator / v.denominator for v in values]  # correctly rounded
        except OverflowError:
            floats[i], floor[i] = 0.0, np.inf
            negative |= min(values) < 0
    if negative or np.signbit(floats).any():  # pruning takes every symbol nonnegative
        raise ValidationError("a binding gives a symbol a negative value")
    for i, j in zip(*np.nonzero(floats < 2.0**-1022)):
        if exact[i][j]:
            floor[i] = max(floor[i], 2.0**-1000)
    return exact, floats, floor


def _screen(rb: np.ndarray, coef: np.ndarray, x: np.ndarray, floor: np.ndarray):
    """What floats settle for bindings ``x`` (one per row) on projected
    rows ``rb * RB + coef . s <= 0``: which bindings are surely infeasible,
    and which rows each leaves to exact arithmetic.

    Every row's ``t = coef . s`` comes from one matrix product, with a
    forward error bound per entry: a dot product of ``k`` terms, each input
    rounded once, errs by at most ``(k + 3) u`` times the sum of the terms'
    magnitudes (Higham, "Accuracy and Stability of Numerical Algorithms",
    3.1); the bound used, ``2 (k + 8) u``, also covers the rounding of that
    sum, and of the bound itself.  Left unsettled are a free row whose value
    may be 0, a candidate least upper bound and a lower bound that may
    exceed it.
    """
    t = x @ coef.T.astype(float)
    err = np.abs(x) @ np.abs(coef.T).astype(float) * ((x.shape[1] + 8) * 2.0**-52) + floor[:, None]
    sure = np.isfinite(t) & np.isfinite(err)
    t, err = np.where(sure, t, 0.0), np.where(sure, err, np.inf)
    # each row's bound on RB, -t / rb, and its error
    div = np.where(rb == 0, 1, rb)
    v = -t / div
    w = err / np.abs(div) * (1 + 2.0**-50) + np.abs(t) * 2.0**-50
    up, lo, free = rb > 0, rb < 0, rb == 0
    high = np.where(up, v + w, np.inf).min(axis=1, initial=np.inf)
    low = np.where(up, v - w, np.inf).min(axis=1, initial=np.inf)
    above = lo & (v - w > high[:, None])
    infeasible = (free & (t - err > 0) | above).any(axis=1)
    unsure = free & (t + err > 0) | up & (v - w <= high[:, None]) | lo & (v + w >= low[:, None])
    return infeasible, unsure


def _solve(system: RateSystem, names: Sequence[str], table) -> list[tuple[str, Fraction | None]]:
    """Status and exact maximum of RB on every binding of ``table``, read
    off the projection, a bounded block of bindings at a time."""
    if "RB" not in system.variables:
        raise ValidationError("objective variable 'RB' not in system")
    symbols, rb, coef = system._projection
    exact, floats, floor = table
    cols = [names.index(name) for name in symbols]
    lines, rb_list, bounded = coef.tolist(), rb.tolist(), bool((rb > 0).any())
    out = []
    step = max(1, _BLOCK_ENTRIES // max(1, len(rb)))
    for start in range(0, len(exact), step):
        block = slice(start, start + step)
        screened = _screen(rb, coef, floats[block][:, cols], floor[block])
        for values, infeasible, unsure in zip(exact[block], *screened):
            if infeasible:
                out.append((INFEASIBLE, None))
                continue
            dot = lambda j: sum((c * values[k] for c, k in zip(lines[j], cols) if c), Fraction(0))
            check = [(j, dot(j)) for j in np.flatnonzero(unsure).tolist()]
            if any(rb_list[j] == 0 and s > 0 for j, s in check):
                out.append((INFEASIBLE, None))
            elif not bounded:
                out.append((UNBOUNDED, None))
            else:
                best = min(-s / rb_list[j] for j, s in check if rb_list[j] > 0)
                feasible = all(-s / rb_list[j] <= best for j, s in check if rb_list[j] < 0)
                out.append((OPTIMAL, best) if feasible else (INFEASIBLE, None))
    return out


def _simplex(system: RateSystem, binding: Mapping[str, Fraction]) -> LpResult:
    """The exact simplex of :mod:`tworelay.lp` on the system's bound rows."""
    rows = [(ineq.expr.var_map(),
             -sum((c * Fraction(binding[str(s)]) for s, c in ineq.expr.syms), Fraction(0)))
            for ineq in system.inequalities]
    return maximize({"RB": 1}, rows, system.variables)


def max_rate(system: RateSystem, binding: Mapping[str, Fraction]) -> LpResult:
    """Exact max of the rate RB over the closure of the system, every
    variable and symbol nonnegative: the simplex's status and value,
    without the point.

    Strict rows are relaxed to non-strict; the closure has the same
    supremum.  The answer is read off the system's projection onto RB,
    computed once per system.
    """
    names = [str(s) for s in system.symbols]
    return LpResult(*_solve(system, names, _table([binding], names))[0])


@dataclass(frozen=True)
class BindingComparison:
    status_a: str
    status_b: str
    max_a: float | None
    max_b: float | None

    @property
    def agree(self) -> bool:
        if self.status_a != self.status_b:
            return False
        if self.status_a != OPTIMAL:
            return True
        return abs(self.max_a - self.max_b) <= EQUIV_TOL


@dataclass(frozen=True)
class EquivReport:
    equivalent: bool
    comparisons: tuple[BindingComparison, ...]

    @property
    def verdict(self) -> str:
        return "equivalent" if self.equivalent else "not-equivalent"

    @property
    def informative(self) -> int:
        """Comparisons with an optimum on both sides; the others agree only
        in being infeasible (or unbounded) together."""
        return sum(c.status_a == c.status_b == OPTIMAL for c in self.comparisons)


def numeric_equiv(
    sys_a: RateSystem,
    sys_b: RateSystem,
    bindings: Sequence[Mapping[str, Fraction]],
) -> EquivReport:
    """Compare two systems by their exact max rate RB on each binding.

    Both systems read every binding off their projections (see
    :func:`max_rate`).  A disagreement is what a not-equivalent verdict
    rests on, so each disagreeing binding is solved again by the simplex of
    :mod:`tworelay.lp` on both systems, and a different answer raises.
    An empty binding list is an error: agreement over no bindings says nothing.
    """
    if not bindings:
        raise ValidationError("numeric equivalence needs at least one binding")
    names = sorted({str(s) for s in sys_a.symbols + sys_b.symbols})
    table = _table(bindings, names)
    comparisons = []
    for binding, *answers in zip(bindings, *(_solve(s, names, table) for s in (sys_a, sys_b))):
        c = BindingComparison(*(s for s, _ in answers),
                              *(None if v is None else float(v) for _, v in answers))
        if not c.agree:
            for system, answer in zip((sys_a, sys_b), answers):
                check = _simplex(system, binding)
                if (check.status, check.value) != answer:
                    raise RuntimeError(f"projection gives {answer}, simplex {check}")
        comparisons.append(c)
    return EquivReport(all(c.agree for c in comparisons), tuple(comparisons))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def _term(text: str, lineno: int) -> tuple[Fraction, str]:
    """The coefficient and identifier of one term, as :data:`_TERM` reads it."""
    match = _TERM.fullmatch(text)
    if match:
        try:
            return Fraction(match[1]), match[2]
        except ValueError:  # more digits than int() converts
            pass
    raise ValidationError(f"line {lineno}: malformed term {text!r}")


def format_system(system: RateSystem) -> str:
    """Canonical text form: header line, then one normalized row per line."""
    lines = ["vars: " + " ".join(system.variables)]
    for ineq in system.inequalities:
        ineq = ineq.normalized(system.variables)
        terms = []
        coeffs = ineq.expr.var_map()
        for var in system.variables:
            if var in coeffs:
                terms.append(f"{coeffs[var]}*{var}")
        for sym, c in ineq.expr.syms:
            terms.append(f"{c}*{sym}")
        body = " + ".join(terms) if terms else "0"
        sense = "<" if ineq.strict else "<="
        lines.append(f"{body} {sense} 0  # {ineq.provenance}")
    return "\n".join(lines) + "\n"


def parse_system(text: str) -> RateSystem:
    """Inverse of format_system; tolerates comments and blank lines."""
    variables: tuple[str, ...] | None = None
    rows: list[Inequality] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vars:"):
            variables = tuple(line[len("vars:"):].split())
            continue
        provenance = ""
        if "#" in line:
            line, provenance = line.split("#", 1)
            line = line.strip()
            provenance = provenance.strip()
        for sense, strict in ((" <= 0", False), (" < 0", True)):
            if line.endswith(sense):
                body = line[: -len(sense)]
                break
        else:
            raise ValidationError(f"line {lineno}: missing '< 0' or '<= 0'")
        vars_acc: dict[str, Fraction] = {}
        syms_acc: dict[InfoQuery, Fraction] = {}
        if body.strip() != "0":
            for term in body.split(" + "):
                coeff, ident = _term(term.strip(), lineno)
                if ident.startswith("I("):
                    try:
                        sym = InfoQuery.parse(ident)
                    except ValidationError as exc:
                        raise ValidationError(f"line {lineno}: {exc}") from None
                    syms_acc[sym] = syms_acc.get(sym, Fraction(0)) + coeff
                else:
                    vars_acc[ident] = vars_acc.get(ident, Fraction(0)) + coeff
        rows.append(Inequality(LinearExpr.of(vars_acc, syms_acc), strict, provenance))
    if variables is None:
        raise ValidationError("missing 'vars:' header line")
    return RateSystem(tuple(rows), variables)
