"""Symbolic Fourier-Motzkin elimination over rate-inequality systems.

A system is a set of rows ``expr < 0`` or ``expr <= 0`` where ``expr`` is
linear in named rate variables with coefficients that are exact rationals,
plus a rational combination of information terms (the symbols).  A symbol is
an :class:`tworelay.info.InfoQuery`, the type the numeric evaluators use, and
is named by its text ``I(L;R|G)``.  Symbols are opaque nonnegative reals here;
identities that hold between them on real distributions (chain rules and the
like) are deliberately ignored, so pruning is conservative and equivalence
claims are settled numerically on sampled bindings, never syntactically.

A :class:`RateSystem` is its coefficient matrix: one int64 row per
inequality, each row scaled to a primitive integer vector, as FME-IT treats
a system (Gattegno, Goldfeld and Permuter, "Fourier-Motzkin elimination
software for information theoretic inequalities", 2016).  Elimination,
pruning and the text format run on that matrix.  Rationals appear only at
its edges: the :class:`Inequality` rows that :meth:`RateSystem.of` takes and
``system.inequalities`` gives back normalized.

Pruning has one rule: a row goes when another row, or the always-true
``0 <= 0``, implies it for nonnegative symbols, and of equal rows the first
stays.  The numeric check projects each system onto RB once, by the same
elimination with every variable nonnegative, and reads the exact maximum of
RB on each binding off the projected rows.  A sampled binding holds floats,
each the exact dyadic rational its entropy terms produce.  Floats with a
proven error bound decide what they can; only the rows they leave open are
summed exactly, in Fractions of the values those rows use (Dantzig and
Eaves, "Fourier-Motzkin elimination and its dual", 1973; Shewchuk,
"Adaptive precision floating-point arithmetic", 1997).  The simplex of
:mod:`tworelay.lp` only re-checks a disagreement; the tests hold the
projection to it.

The two built-in systems are the per-stage inequality sets of the two coding
schemes; the two built-in target systems are the corresponding single-letter
constraint sets.  Neither is written out here: both come from running the row
code of :mod:`tworelay.rates`, the code the numeric evaluators run, on
unit integer vectors, one per symbol and rate variable.  Eliminating the
per-stage bookkeeping rates from the former and comparing against the latter
by the exact maximum rate on sampled bindings is the whole point of this
module.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import prob
from .info import InfoQuery, entropy, term_plan
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, maximize
from .prob import (
    LAW_FAMILIES,
    ResourceLimitError,
    ValidationError,
    random_joints,
)
from .rates import THEOREMS, Scheme

EQUIV_TOL = 1e-6
# sampled bindings held at once; each t2 binding takes about 0.9 KB, so the
# cap bounds a sample near 90 MB.  The joints behind them are built in
# stacks of at most prob.STACK_ENTRIES entries, so the transient arrays do
# not grow with the count.
MAX_BINDINGS = 100_000
# rows one elimination step may form; the builtin reductions peak at 173,
# their projections onto RB at 462, all of which the projection keeps
MAX_FM_ROWS = 1000
# every stored row coefficient is below this in magnitude, so that a sum of
# two products of coefficients stays inside int64
MAX_COEFF = 2**31
# one term of a row: a coefficient written as str(Fraction) writes it (an
# integer or an integer ratio), then "*" and a rate variable or I(...)
_TERM = re.compile(r"(-?[0-9]+(?:/0*[1-9][0-9]*)?)\*(.+)")


class Inequality(NamedTuple):
    """One row ``coeffs < 0`` (strict) or ``coeffs <= 0``: ``coeffs`` maps
    rate variable names and :class:`tworelay.info.InfoQuery` symbols to
    their rational coefficients."""

    coeffs: Mapping[str | InfoQuery, Fraction | int]
    strict: bool
    provenance: str


@dataclass(frozen=True, eq=False)
class RateSystem:
    """An inequality system as one int64 matrix ``coef``: a row per
    inequality, a column per rate variable and then per symbol in name
    order, every column used.  Each row is primitive (its entries share no
    factor), so its normalized form is ``row / |first nonzero|`` and rows
    equal up to a positive factor are equal vectors."""

    coef: np.ndarray
    strict: np.ndarray
    provenance: tuple[str, ...]
    variables: tuple[str, ...]
    symbols: tuple[InfoQuery, ...]

    @classmethod
    def of(cls, rows: Iterable[Inequality], variables: Sequence[str]) -> "RateSystem":
        """The system of ``rows`` over the declared ``variables``, each of
        which some row must use; a zero coefficient counts as absent."""
        rows, variables = list(rows), tuple(variables)
        repeated = sorted({v for v in variables if variables.count(v) > 1})
        if repeated:
            raise ValidationError(f"variables declared more than once: {repeated}")
        used = {k for row in rows for k, c in row.coeffs.items() if c}
        names = {k for k in used if isinstance(k, str)}
        unknown = names - set(variables)
        if unknown:
            raise ValidationError(f"rows reference undeclared variables {sorted(unknown)}")
        unused = set(variables) - names
        if unused:
            raise ValidationError(f"declared variables never referenced: {sorted(unused)}")
        symbols = tuple(sorted(used - names, key=str))
        column = {k: j for j, k in enumerate(variables + symbols)}
        coef = np.zeros((len(rows), len(column)), dtype=np.int64)
        for line, row in zip(coef, rows):
            terms = [(column[k], c if isinstance(c, (int, Fraction)) else Fraction(c))
                     for k, c in row.coeffs.items() if c]
            scale = math.lcm(*(c.denominator for _, c in terms))
            ints = [c.numerator * (scale // c.denominator) for _, c in terms]
            g = math.gcd(*ints) or 1
            # clipped, so that _checked sees and refuses a coefficient too large
            line[[j for j, _ in terms]] = [max(-MAX_COEFF, min(c // g, MAX_COEFF)) for c in ints]
        return _checked(coef, [r.strict for r in rows], [r.provenance for r in rows],
                        variables, symbols)

    @cached_property
    def inequalities(self) -> tuple[Inequality, ...]:
        """The rows normalized: each scaled by a positive factor so that its
        first nonzero coefficient, in column order, has magnitude 1."""
        names = self.variables + self.symbols
        return tuple(
            Inequality({names[j]: Fraction(c, lead) for j, c in enumerate(line) if c},
                       strict, provenance)
            for line, lead, strict, provenance in zip(
                self.coef.tolist(), _leads(self.coef).tolist(), self.strict.tolist(),
                self.provenance)
        )

    @cached_property
    def _projection(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """The rows closed, with every variable nonnegative, projected onto
        RB on first use: rows ``rb * RB + coef . s <= 0`` over the named
        symbols, which :func:`max_rate` reads.  The last step's rows are
        kept unpruned: the reading is exact either way, and the floats
        settle a dominated row at a fraction of what pruning it costs."""
        n, k, m = len(self.variables), len(self.symbols), len(self.coef)
        closed = RateSystem(np.concatenate([self.coef, np.eye(n, n + k, dtype=np.int64) * -1]),
                            np.zeros(m + n, dtype=bool),
                            ("",) * (m + n),  # nothing reads a projected row's origin
                            self.variables, self.symbols)
        try:
            out = _eliminate_all(closed, [v for v in self.variables if v != "RB"])
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"projecting onto RB: {exc}") from None
        # RB >= 0, or a row implying it, keeps RB the one variable left
        return tuple(map(str, out.symbols)), out.coef[:, 0], out.coef[:, 1:]


def _checked(coef, strict, provenance, variables, symbols) -> RateSystem:
    """The system of these primitive rows over the columns some row uses.
    A coefficient of 2**31 or more is refused, so that a sum of two products
    of coefficients stays inside int64."""
    if coef.size and np.abs(coef).max() >= MAX_COEFF:
        raise ResourceLimitError(
            "a row coefficient reaches 2**31, past which int64 could overflow")
    used, n = coef.any(axis=0), len(variables)
    keep = lambda names, flags: tuple(x for x, u in zip(names, flags) if u)
    return RateSystem(coef[:, used].astype(np.int64), np.asarray(strict, dtype=bool),
                      tuple(provenance), keep(variables, used[:n]), keep(symbols, used[n:]))


def _primitive(coef: np.ndarray) -> np.ndarray:
    """Each row divided by the gcd of its entries; zero rows stay."""
    return coef // np.maximum(np.gcd.reduce(coef, axis=1), 1)[:, None]


def _leads(coef: np.ndarray) -> np.ndarray:
    """Each row's first nonzero magnitude, 1 for a zero row."""
    padded = np.column_stack([coef, np.ones(len(coef), dtype=coef.dtype)])
    return np.abs(padded[np.arange(len(coef)), (padded != 0).argmax(axis=1)])


def _scheme(which: str, kind: str) -> Scheme:
    if which not in THEOREMS:
        raise ValidationError(f"unknown {kind} {which!r}")
    return THEOREMS[which]


def _symbolic(scheme: Scheme) -> tuple[dict[str, np.ndarray], object, dict]:
    """A scheme's terms and rate tuple as unit integer vectors, one per
    column: the rate variables, RB first and then the fields in order
    (``rbar`` is RB, every other field its name in capitals), then the
    symbols in name order.  Also returns the unit vectors by column."""
    names = ["RB" if f.name == "rbar" else f.name.upper() for f in fields(scheme.rates)]
    columns = ["RB", *(v for v in names if v != "RB"),
               *sorted(scheme.queries.values(), key=str)]
    unit = dict(zip(columns, np.eye(len(columns), dtype=np.int64)))
    t = {name: unit[q] for name, q in scheme.queries.items()}
    return t, scheme.rates(*map(unit.get, names)), unit


def _system(rows, unit: dict) -> RateSystem:
    """The paper ``rows``, (label, sense, lhs, rhs) over ``unit``'s columns,
    as open conditions: ``lhs > rhs`` reads ``rhs - lhs < 0`` and ``lhs <
    rhs`` or ``lhs <= rhs`` reads ``lhs - rhs < 0``.  Then the rows every
    paper system shares: each variable but RB that a row uses is nonnegative
    and, where R1 is used, the block rate is RB = R1 + R21 + R22."""
    rows = [(rhs - lhs if sense == ">" else lhs - rhs, label) for label, sense, lhs, rhs in rows]
    used = {k for k, u in zip(unit, np.any([row for row, _ in rows], axis=0)) if u}
    variables = tuple(k for k in unit if isinstance(k, str))
    shared = [(-unit[v], f"{v}>=0") for v in variables[1:] if v in used]
    if "R1" in used:
        total = unit["RB"] - unit["R1"] - unit["R21"] - unit["R22"]
        shared += [(total, "RB-def"), (-total, "RB-def")]
    coef, labels = zip(*rows, *shared)
    return _checked(_primitive(np.array(coef)), [True] * len(rows) + [False] * len(shared),
                    labels, variables, tuple(unit)[len(variables):])


@cache
def builtin_system(which: str) -> RateSystem:
    """The per-stage inequality system of one coding scheme: its proof rows
    in :data:`tworelay.rates.THEOREMS` on symbols and rate variables.  Built
    once per tag; the frozen system is shared."""
    scheme = _scheme(which, "builtin system")
    t, rates, unit = _symbolic(scheme)
    return _system(scheme.proof_rows(t, rates), unit)


@cache
def target_system(which: str) -> RateSystem:
    """The single-letter constraint set each scheme is stated in: its
    theorem's rows on symbols, with the partial rates R21, R22 as variables
    and every row strict, plus the proof row that bounds the objective.
    Built once per tag, like :func:`builtin_system`."""
    scheme = _scheme(which, "target system")
    t, rates, unit = _symbolic(scheme)
    outcome = scheme.outcome(t, (rates.r21, rates.r22)) if which == "t2" else scheme.outcome(t)
    objective = getattr(rates, fields(rates)[0].name)
    bound = next(row for row in scheme.proof_rows(t, rates) if (row[2] - row[3]) @ objective)
    return _system([*outcome.rows, bound], unit)


# ---------------------------------------------------------------------------
# elimination and pruning
# ---------------------------------------------------------------------------


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
    coef, strict, provenance = system.coef, system.strict, system.provenance
    a = coef[:, system.variables.index(var)]
    up, lo, rest = np.flatnonzero(a > 0), np.flatnonzero(a < 0), np.flatnonzero(a == 0)
    count = len(rest) + len(up) * len(lo)
    if count > MAX_FM_ROWS:
        raise ResourceLimitError(
            f"eliminating {var} would give {count} rows, above the cap of {MAX_FM_ROWS}"
        )
    # entries below 2**31 keep each sum of two products inside int64
    cu, cl = a[up][:, None, None], -a[lo][None, :, None]
    raw = (coef[up][:, None] * cl + coef[lo][None] * cu).reshape(-1, coef.shape[1])
    return _checked(
        np.concatenate([coef[rest], _primitive(raw)]),
        np.concatenate([strict[rest], (strict[up][:, None] | strict[lo]).ravel()]),
        [provenance[i] for i in rest]
        + [f"{provenance[i]}+{provenance[j]}" for i in up for j in lo],
        system.variables, system.symbols)


def prune(system: RateSystem) -> RateSystem:
    """Drop every row that another row implies, keeping the first of equal
    rows.

    For nonnegative symbols, normalized ``e' < 0`` (or ``<= 0``) implies
    ``e < 0`` (or ``<= 0``) when the two have the same rate part, no symbol
    coefficient of ``e' - e`` is negative, and ``e`` is strict only if
    ``e'`` is.  The always-true ``0 <= 0`` implies too, so a rate-free
    non-strict row without a positive symbol coefficient goes.  Rows have
    equal normalized rate parts exactly when their rate parts over their gcd
    are equal, so a row is tested against the rows of its group only, a
    bounded block at a time.
    """
    seen: dict[bytes, int] = {}
    for i, key in enumerate(map(bytes, np.column_stack([system.coef, system.strict]))):
        seen.setdefault(key, i)
    first = np.fromiter(seen.values(), dtype=np.intp, count=len(seen))
    coef, strict, n = system.coef[first], system.strict[first], len(system.variables)
    rate, sym, lead = coef[:, :n], coef[:, n:], _leads(coef)
    dropped = ~strict & ~rate.any(axis=1) & (sym <= 0).all(axis=1)  # implied by 0 <= 0
    groups: dict[bytes, list[int]] = {}
    for i, key in enumerate(map(bytes, _primitive(rate))):
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
        step = max(1, prob.BLOCK_ENTRIES // (len(members) * max(1, sym.shape[1])))
        for k in range(0, len(members), step):
            block = slice(k, k + step)  # these members as the implying rows
            implies = (strict[members[block], None] >= strict[members]) & (
                scaled[block, None] >= scaled).all(axis=2)
            implies[np.arange(implies.shape[0]), np.arange(k, k + implies.shape[0])] = False
            dropped[members] |= implies.any(axis=0)
    kept = first[~dropped]
    return _checked(coef[~dropped], strict[~dropped], [system.provenance[i] for i in kept],
                    system.variables, system.symbols)


def _eliminate_all(system: RateSystem, todo: list[str]) -> RateSystem:
    """Eliminate, cheapest pairing count first, pruning between steps; the
    last step's rows come back unpruned.  A variable that some step left
    unreferenced is gone already."""

    def cost(v: str) -> int:
        a = system.coef[:, system.variables.index(v)]
        return int((a > 0).sum()) * int((a < 0).sum())

    left = lambda: [v for v in todo if v in system.variables]
    while left():
        system = eliminate(system, min(left(), key=lambda v: (cost(v), v)))
        if left():
            system = prune(system)
    return system


def eliminate_all(system: RateSystem, variables: Iterable[str]) -> RateSystem:
    """Eliminate several variables, cheapest pairing count first, pruning
    after each step.  With no variables the system comes back as it is."""
    todo = list(variables)
    for var in todo:
        if var not in system.variables:
            raise ValidationError(f"variable {var!r} not in system")
    out = _eliminate_all(system, todo)
    return out if out is system else prune(out)


# ---------------------------------------------------------------------------
# numeric bindings and equivalence
# ---------------------------------------------------------------------------


def binding_of(joint, which: str) -> dict[str, float]:
    """Evaluate every information symbol of one scheme family on a joint:
    a mapping from symbol name to its value, a float and so an exact dyadic
    rational."""
    plan = term_plan(_scheme(which, "binding family").queries, joint.ids, joint.mass.shape)
    return dict(zip(map(str, plan.queries), plan.terms(plan.marginals(joint.mass)).tolist()))


def sample_bindings(which: str, count: int, seed: int) -> list[dict[str, float]]:
    """Evaluate every information symbol on seeded random binary channel+law pairs.

    Draw ``i`` is the pair that ``random_channel`` and then ``random_law``
    draw from ``default_rng([seed, i])``, bit for bit, though each pair is
    drawn by one ``standard_exponential`` call on its generator.  The
    joints come in stacks (:func:`tworelay.prob.random_joints`), each built
    by one in-place product; each stack's marginals and their entropies
    take one pass, and each joint's entropies are signed into terms alone
    (:meth:`tworelay.info._TermPlan.signed`), so each binding is the one
    :func:`binding_of` gives for its joint, bit for bit.  Returns one
    mapping from symbol name to float value per draw.
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
        names = list(map(str, plan.queries))
        out += [dict(zip(names, plan.signed(h).tolist()))
                for h in entropy(plan.marginals(stack), plan.offsets)]
    return out


def _refused(name: str, value) -> ValidationError:
    return ValidationError(f"a binding gives {name} the value {value!r}, not a finite real number")


def _exact(name: str, value) -> Fraction:
    """A binding value as an exact rational: a non-number, NaN or an
    infinity is refused."""
    if isinstance(value, numbers.Number):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):  # complex, NaN, infinite
            pass
    raise _refused(name, value)


def _table(bindings: Sequence[Mapping[str, float | Fraction]], names: Sequence[str]):
    """The bindings' values over ``names``: each binding's values, as floats
    and per binding an absolute error floor.

    A binding of Python floats is kept as it is, since each float is an
    exact dyadic rational.  Any other is made exact (:func:`_exact`) and
    rounded to floats correctly.  The floor is 0 when every value is 0 or a
    normal float; 2**-1000 when one lies below the normal range, which
    bounds every underflowed product of a coefficient below 2**31; and
    infinite when one does not fit a float, which leaves all of that
    binding to exact arithmetic.  Pruning takes every symbol nonnegative,
    so a negative value is refused, judged on the exact value: -0.0 is 0,
    and a negative rational that rounds to -0.0 is refused."""
    try:
        rows = [list(map(binding.__getitem__, names)) for binding in bindings]
    except KeyError as exc:
        raise ValidationError(f"binding is missing symbol {exc.args[0]}") from None
    floats, floor = np.zeros((len(rows), len(names))), np.zeros(len(rows))
    negative = lambda j: ValidationError(f"a binding gives {names[j]} a negative value")
    for i, values in enumerate(rows):
        if {*map(type, values)} <= {float}:
            floats[i] = values
            continue
        rows[i] = values = list(map(_exact, names, values))
        for j, v in enumerate(values):
            if v < 0:
                raise negative(j)
        try:
            floats[i] = [v.numerator / v.denominator for v in values]  # correctly rounded
        except OverflowError:
            floor[i] = np.inf
    if not np.isfinite(floats).all():  # only a float can be NaN or infinite
        i, j = np.argwhere(~np.isfinite(floats))[0].tolist()
        raise _refused(names[j], rows[i][j])
    if (floats < 0).any():
        raise negative(np.argwhere(floats < 0)[0, 1])
    for i, j in zip(*np.nonzero(floats < 2.0**-1022)):
        if rows[i][j]:
            floor[i] = max(floor[i], 2.0**-1000)
    return rows, floats, floor


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
    off the projection, a bounded block of bindings at a time.  A binding
    the screen settles builds no Fraction; any other has the values in the
    columns of its unsure rows made exact, each once."""
    if "RB" not in system.variables:
        raise ValidationError("objective variable 'RB' not in system")
    symbols, rb, coef = system._projection
    rows, floats, floor = table
    cols = [names.index(name) for name in symbols]
    rb_list, bounded = rb.tolist(), bool((rb > 0).any())
    out = []
    step = max(1, prob.BLOCK_ENTRIES // max(1, len(rb)))
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        screened = _screen(rb, coef, floats[block][:, cols], floor[block])
        for values, infeasible, unsure in zip(rows[block], *screened):
            if infeasible:
                out.append((INFEASIBLE, None))
                continue
            lines = coef[unsure]
            exact = [Fraction(values[k]) if u else None
                     for k, u in zip(cols, lines.any(axis=0).tolist())]
            check = [(j, sum((c * x for c, x in zip(line, exact) if c), Fraction(0)))
                     for j, line in zip(np.flatnonzero(unsure).tolist(), lines.tolist())]
            if any(rb_list[j] == 0 and s > 0 for j, s in check):
                out.append((INFEASIBLE, None))
            elif not bounded:
                out.append((UNBOUNDED, None))
            else:
                best = min(-s / rb_list[j] for j, s in check if rb_list[j] > 0)
                feasible = all(-s / rb_list[j] <= best for j, s in check if rb_list[j] < 0)
                out.append((OPTIMAL, best) if feasible else (INFEASIBLE, None))
    return out


def _simplex(system: RateSystem, binding: Mapping[str, float | Fraction]) -> LpResult:
    """The exact simplex of :mod:`tworelay.lp` on the system's bound rows."""
    n, values = len(system.variables), [Fraction(binding[str(s)]) for s in system.symbols]
    rows = [({v: c for v, c in zip(system.variables, line) if c},
             -sum((c * x for c, x in zip(line[n:], values) if c), Fraction(0)))
            for line in system.coef.tolist()]
    return maximize({"RB": 1}, rows, system.variables)


def max_rate(system: RateSystem, binding: Mapping[str, float | Fraction]) -> LpResult:
    """Exact max of the rate RB over the closure of the system, every
    variable and symbol nonnegative: the simplex's status and value,
    without the point.

    ``binding`` maps each symbol's name to a finite nonnegative number: a
    float, taken as the exact rational it is, or any rational (a Fraction
    or an int); anything else raises :class:`ValidationError`.  Strict rows
    are relaxed to non-strict; the closure has the same supremum.  The
    answer is read off the system's projection onto RB, computed once per
    system.
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
    bindings: Sequence[Mapping[str, float | Fraction]],
) -> EquivReport:
    """Compare two systems by their exact max rate RB on each binding.

    Both systems read every binding off their projections (see
    :func:`max_rate`), from one table of the bindings' values: a binding
    that the floats settle for a system costs that system no exact
    arithmetic.  A disagreement is what a not-equivalent verdict
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


def _term(text: str, lineno: int) -> tuple[int | Fraction, str]:
    """The coefficient and identifier of one term, as :data:`_TERM` reads
    it; an integer coefficient is an int."""
    match = _TERM.fullmatch(text)
    if match:
        try:
            return (Fraction if "/" in match[1] else int)(match[1]), match[2]
        except ValueError:  # more digits than int() converts
            pass
    raise ValidationError(f"line {lineno}: malformed term {text!r}")


def _ratio(c: int, lead: int) -> str:
    """``c / lead`` for ``lead > 0``, written as ``str(Fraction)`` writes it."""
    g = math.gcd(c, lead)
    return str(c // g) if g == lead else f"{c // g}/{lead // g}"


def format_system(system: RateSystem) -> str:
    """Canonical text form: header line, then one normalized row per line,
    written from the integer rows."""
    names = [str(k) for k in system.variables + system.symbols]
    lines = ["vars: " + " ".join(system.variables)]
    for line, lead, strict, provenance in zip(system.coef.tolist(), _leads(system.coef).tolist(),
                                              system.strict.tolist(), system.provenance):
        body = " + ".join(f"{_ratio(c, lead)}*{names[j]}" for j, c in enumerate(line) if c) or "0"
        lines.append(f"{body} {'<' if strict else '<='} 0  # {provenance}")
    return "\n".join(lines) + "\n"


def parse_system(text: str) -> RateSystem:
    """Inverse of format_system; tolerates comments and blank lines.  Each
    distinct ``I(...)`` text is parsed once."""
    variables: tuple[str, ...] | None = None
    rows: list[Inequality] = []
    symbols: dict[str, InfoQuery] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vars:"):
            if variables is not None:
                raise ValidationError(f"line {lineno}: a second 'vars:' header")
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
        coeffs: dict[str | InfoQuery, int | Fraction] = {}
        if body.strip() != "0":
            for term in body.split(" + "):
                coeff, key = _term(term.strip(), lineno)
                if key.startswith("I("):
                    if key not in symbols:
                        try:
                            symbols[key] = InfoQuery.parse(key)
                        except ValidationError as exc:
                            raise ValidationError(f"line {lineno}: {exc}") from None
                    key = symbols[key]
                coeffs[key] = coeffs[key] + coeff if key in coeffs else coeff
        rows.append(Inequality(coeffs, strict, provenance))
    if variables is None:
        raise ValidationError("missing 'vars:' header line")
    return RateSystem.of(rows, variables)
