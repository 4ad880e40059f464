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
stays.  The numeric check binds each system's compiled rows once per
binding and reads the exact LP maximum of the rate from those bound rows.

The two built-in systems are the per-stage inequality sets of the two coding
schemes; the two built-in target systems are the corresponding single-letter
constraint sets.  Neither is written out here: both come from running the row
code of :mod:`tworelay.rates`, the code the numeric evaluators run, on
symbols and rate variables.  Eliminating the per-stage bookkeeping rates
from the former and comparing against the latter by exact LP over sampled
bindings is the whole point of this module.
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
from .lp import OPTIMAL, LpResult, maximize
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
# rows one elimination step may form; the builtin reductions peak at 173
MAX_FM_ROWS = 1000
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
    def _lp_rows(self) -> tuple[tuple[str, ...], tuple]:
        """The rows in integer form for binding, compiled once per system.

        Returns the symbol names in first-use order and, per row, its rate
        coefficients, an integer ``scale`` (the lcm of its symbol-coefficient
        denominators) and ``(symbol index, scale * coefficient)`` pairs, all
        integers.  Binding a row is then one integer dot product.
        """
        names: dict[str, int] = {}
        rows = []
        for ineq in self.inequalities:
            scale = math.lcm(*(c.denominator for _, c in ineq.expr.syms))
            terms = tuple(
                (names.setdefault(str(sym), len(names)), int(c * scale))
                for sym, c in ineq.expr.syms
            )
            rows.append((ineq.expr.var_map(), scale, terms))
        return tuple(names), tuple(rows)


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
# elimination and pruning
# ---------------------------------------------------------------------------


def _bounds(system: RateSystem, var: str) -> tuple[list, list, list[Inequality]]:
    """The rows bounding ``var`` above and below, each with its coefficient,
    and the rows without it."""
    upper, lower, rest = [], [], []
    for ineq in system.inequalities:
        c = ineq.expr.var_map().get(var, Fraction(0))
        if c > 0:
            upper.append((ineq, c))
        elif c < 0:
            lower.append((ineq, c))
        else:
            rest.append(ineq)
    return upper, lower, rest


def eliminate(system: RateSystem, var: str) -> RateSystem:
    """Project the solution set onto the remaining variables.

    Rows where ``var`` has a positive coefficient bound it above, negative
    below; every above/below pair combines into one var-free row.  The
    combination is strict iff either parent is strict.  A step that would
    leave more than ``MAX_FM_ROWS`` rows is refused before any is formed.
    """
    if var not in system.variables:
        raise ValidationError(f"variable {var!r} not in system")
    upper, lower, rest = _bounds(system, var)
    count = len(rest) + len(upper) * len(lower)
    if count > MAX_FM_ROWS:
        raise ResourceLimitError(
            f"eliminating {var} would give {count} rows, above the cap of {MAX_FM_ROWS}"
        )
    for up, cu in upper:
        for lo, cl in lower:
            expr = up.expr.scaled(Fraction(1) / cu) + lo.expr.scaled(Fraction(1) / -cl)
            strict = up.strict or lo.strict
            rest.append(Inequality(expr, strict, f"{up.provenance}+{lo.provenance}"))
    remaining = tuple(v for v in system.variables if v != var)
    # a projection can drop every row mentioning some other variable too;
    # prune declared-but-unreferenced variables rather than failing
    used = {k for ineq in rest for k, _ in ineq.expr.vars}
    remaining = tuple(v for v in remaining if v in used)
    return RateSystem(tuple(rest), remaining)


def prune(system: RateSystem) -> RateSystem:
    """Drop every row that another row implies, keeping the first of equal rows.

    Rows are compared normalized.  For nonnegative symbols, ``e' < 0`` (or
    ``<= 0``) implies ``e < 0`` (or ``<= 0``) when the two have the same
    rate part, no symbol coefficient of ``e' - e`` is negative, and ``e`` is
    strict only if ``e'`` is.  The always-true ``0 <= 0`` implies too, so a
    rate-free non-strict row without a positive symbol coefficient goes.
    """
    symbols = system.symbols
    # each row keyed by its rate part, strictness and symbol coefficients;
    # the always-true row goes in first and keeps nothing
    first: dict[tuple, Inequality | None] = {((), False, (0,) * len(symbols)): None}
    for ineq in system.inequalities:
        ineq = ineq.normalized(system.variables)
        coeffs = ineq.expr.sym_map()
        key = (ineq.expr.vars, ineq.strict, tuple(coeffs.get(s, 0) for s in symbols))
        first.setdefault(key, ineq)

    def implies(a: tuple, b: tuple) -> bool:
        return a[0] == b[0] and a[1] >= b[1] and all(x >= y for x, y in zip(a[2], b[2]))

    kept = [
        ineq for key, ineq in first.items()
        if ineq is not None and not any(k is not key and implies(k, key) for k in first)
    ]
    used = {k for ineq in kept for k, _ in ineq.expr.vars}
    return RateSystem(tuple(kept), tuple(v for v in system.variables if v in used))


def eliminate_all(system: RateSystem, variables: Iterable[str]) -> RateSystem:
    """Eliminate several variables, cheapest pairing count first."""
    todo = list(variables)
    for var in todo:
        if var not in system.variables:
            raise ValidationError(f"variable {var!r} not in system")

    def cost(v: str) -> int:
        upper, lower, _ = _bounds(system, v)
        return len(upper) * len(lower)

    while todo:
        var = min(todo, key=lambda v: (cost(v), v))
        todo.remove(var)
        if var not in system.variables:
            continue  # already dropped as unreferenced
        system = prune(eliminate(system, var))
    return system


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


def max_rate(system: RateSystem, binding: Mapping[str, Fraction]) -> LpResult:
    """Exact max of the rate RB over the closure of the system.

    Strict rows are relaxed to non-strict; the closure has the same supremum.
    The compiled rows are bound once: the binding is put over one common
    denominator ``den``, so each row's right-hand side is
    ``-total / (scale * den)`` for an integer ``total``.
    """
    if "RB" not in system.variables:
        raise ValidationError("objective variable 'RB' not in system")
    names, compiled = system._lp_rows
    values = []
    for name in names:
        if name not in binding:
            raise ValidationError(f"binding is missing symbol {name}")
        values.append(Fraction(binding[name]))
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    rows = [
        (var_map, Fraction(-sum(c * nums[k] for k, c in terms), scale * den))
        for var_map, scale, terms in compiled
    ]
    return maximize({"RB": 1}, rows, system.variables)


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

    An empty binding list is an error: agreement over no bindings says nothing.
    """
    if not bindings:
        raise ValidationError("numeric equivalence needs at least one binding")
    comparisons = []
    for binding in bindings:
        ra, rb = max_rate(sys_a, binding), max_rate(sys_b, binding)
        va, vb = (None if x is None else float(x) for x in (ra.value, rb.value))
        comparisons.append(BindingComparison(ra.status, rb.status, va, vb))
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
