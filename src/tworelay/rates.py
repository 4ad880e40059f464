"""Achievable-rate evaluation for the two-relay feedback network.

Two rate expressions are supported:

* ``eval_theorem1``: the compress-and-forward rate.  The law must satisfy the
  three strict existence conditions (2), (3) and (4) (the last has two min
  branches, reported as (4a) and (4b)).  The objective is
  I(X0;Y0,Yh1,Yh2|X1,X2) + I(X1;X2).
* ``eval_theorem2``: the hybrid rate with decode-and-forward auxiliaries
  V1, V2 riding under the relay inputs.  The partial rates R21, R22 are chosen
  by an inner maximization against upper bounds (6), (7) and (8) (each with
  two min branches) and added to the objective.

Both schemes also declare their per-stage proof systems, (9)-(19) and
(20)-(34), as rows over a rate tuple (``proof_rows_t1``/``_t2``).  Each
constraint set is declared once, as row code written with numpy operators
only, and :mod:`tworelay.fm` evaluates that same code on unit integer
vectors, one per ``InfoQuery`` symbol and rate variable, to build the
coefficient matrices its polyhedral reduction checks.  The terms themselves
are evaluated by :func:`tworelay.info.term_values`.

Feasibility policy: the existence conditions are open (strict) and a
constraint counts as satisfied only when its slack exceeds 1e-9 bits.  Chosen
rates in ``eval_theorem2`` sit at the supremum closure, so their bound checks
use non-strict comparison with the same tolerance.  Objectives are reported as
supremum-closure values with no epsilon backoff.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .info import InfoQuery, term_values
from .io import FORMAT_VERSION
from .prob import (
    Alphabet,
    CondPmf,
    NetworkChannel,
    T1Law,
    T2Law,
    ValidationError,
    assemble_joint,
    check_family,
)

STRICT_MARGIN = 1e-9

# ---------------------------------------------------------------------------
# the mutual-information terms of both rate expressions
# ---------------------------------------------------------------------------

T1_QUERIES: dict[str, InfoQuery] = {
    # relay covering costs and their sender-side extensions
    "cover1": InfoQuery(("Yh1",), ("Y1",), ("X1",)),
    "cover2": InfoQuery(("Yh2",), ("Y2",), ("X2",)),
    "side1": InfoQuery(("Yh1",), ("Y2", "X2"), ("X1", "Y1")),
    "side2": InfoQuery(("Yh2",), ("Y1", "X1"), ("X2", "Y2")),
    "sender1": InfoQuery(("Yh1",), ("Y1", "Y2", "X2"), ("X1",)),
    "sender2": InfoQuery(("Yh2",), ("Y1", "Y2", "X1"), ("X2",)),
    "sender2x": InfoQuery(("Yh2",), ("Yh1", "Y1", "Y2", "X1"), ("X2",)),
    # receiver decoding budgets
    "dec1": InfoQuery(("X1",), ("Y0", "X2")),
    "dec2": InfoQuery(("X2",), ("Y0", "X1")),
    "dec12": InfoQuery(("X1", "X2"), ("Y0",)),
    # ambiguity resolution via the direct link
    "res1": InfoQuery(("Yh1",), ("Y0",), ("X1",)),
    "res2": InfoQuery(("Yh2",), ("Y0",), ("X2",)),
    # objective
    "obj_main": InfoQuery(("X0",), ("Y0", "Yh1", "Yh2"), ("X1", "X2")),
    "obj_corr": InfoQuery(("X1",), ("X2",)),
}

T2_QUERIES: dict[str, InfoQuery] = {
    "df_relay1": InfoQuery(("V1",), ("Y1",), ("X1",)),
    "df_relay2": InfoQuery(("V2",), ("Y2",), ("X2",)),
    "cover1": InfoQuery(("Yh1",), ("Y1",), ("X1", "V1")),
    "cover2": InfoQuery(("Yh2",), ("Y2",), ("X2", "V2")),
    "sender1": InfoQuery(("Yh1",), ("Y1", "Y2", "X2", "V2"), ("X1", "V1")),
    "sender2": InfoQuery(("Yh2",), ("Y1", "Y2", "X1", "V1"), ("X2", "V2")),
    "sender2x": InfoQuery(("Yh2",), ("Yh1", "Y1", "Y2", "X1", "V1"), ("X2", "V2")),
    "dec1": InfoQuery(("X1",), ("Y0", "X2")),
    "dec2": InfoQuery(("X2",), ("Y0", "X1")),
    "dec12": InfoQuery(("X1", "X2"), ("Y0",)),
    "df_direct1": InfoQuery(("V1",), ("Y0",), ("X1",)),
    "df_direct2": InfoQuery(("V2",), ("Y0",), ("X2",)),
    "res1": InfoQuery(("Yh1",), ("Y0",), ("X1", "V1")),
    "res2": InfoQuery(("Yh2",), ("Y0",), ("X2", "V2")),
    "obj_main": InfoQuery(("X0",), ("Y0", "Yh1", "Yh2"), ("X1", "X2", "V1", "V2")),
    "obj_corr": InfoQuery(("X1", "V1"), ("X2", "V2")),
}


# ---------------------------------------------------------------------------
# rate tuples and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class T1Rates:
    """Rate tuple of the compress-and-forward proof system."""

    rbar: float
    rh1: float
    rh2: float
    rs1: float
    rs2: float


@dataclass(frozen=True)
class T2Rates:
    """Rate tuple of the hybrid proof system."""

    r1: float
    r21: float
    r22: float
    rh1: float
    rh2: float
    r011: float
    r012: float
    r021: float
    r022: float


@dataclass(frozen=True)
class ConstraintCheck:
    label: str
    lhs: float
    rhs: float
    satisfied: bool
    sense: str = "<"


@dataclass(frozen=True)
class RateReport:
    """Evaluation outcome for one (channel, law) pair."""

    objective_bits: float
    constraints: tuple[ConstraintCheck, ...]
    feasible: bool
    flags: tuple[str, ...]
    law_hash: str
    channel_hash: str

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "objective_bits": self.objective_bits,
            "constraints": [
                {"label": c.label, "lhs": c.lhs, "rhs": c.rhs, "satisfied": c.satisfied}
                for c in self.constraints
            ],
            "feasible": self.feasible,
            "flags": list(self.flags),
            "law_hash": self.law_hash,
            "channel_hash": self.channel_hash,
        }


def _hash_arrays(arrays: list[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest()[:16]


def channel_hash(channel: NetworkChannel) -> str:
    return _hash_arrays([channel.transition.mass])


def law_hash(law: T1Law | T2Law) -> str:
    return _hash_arrays([getattr(law, f.name).mass for f in law.factors])


def _satisfied(sense: str, lhs, rhs):
    """Whether ``lhs sense rhs`` holds under the feasibility policy, for
    floats or elementwise for arrays: "<" and ">" need a slack above
    ``STRICT_MARGIN``, "<=" (the supremum closure) tolerates that much."""
    if sense == "<":
        return rhs - lhs > STRICT_MARGIN
    if sense == ">":
        return lhs - rhs > STRICT_MARGIN
    if sense == "<=":
        return lhs <= rhs + STRICT_MARGIN
    raise ValidationError(f"unknown sense {sense!r}")


def _check(label: str, sense: str, lhs, rhs) -> ConstraintCheck:
    return ConstraintCheck(label, float(lhs), float(rhs), bool(_satisfied(sense, lhs, rhs)), sense)


# ---------------------------------------------------------------------------
# theorem evaluators
# ---------------------------------------------------------------------------


class Outcome(NamedTuple):
    """Step 2 of a theorem evaluation: what its terms imply.

    ``rows`` holds (label, sense, lhs, rhs) per constraint.  The step is
    written with numpy operators only, so each value is a float when the
    terms are floats and a ``(B,)`` array when they are arrays of B
    candidates; :mod:`tworelay.optimize` scores whole slices that way.
    """

    objective: Any
    rows: tuple[tuple[str, str, Any, Any], ...]
    flags: tuple[str, ...] = ()

    @property
    def feasible(self):
        """Every row satisfied: a bool, or a ``(B,)`` boolean array."""
        return np.logical_and.reduce([_satisfied(s, lhs, rhs) for _, s, lhs, rhs in self.rows])


def theorem1_outcome(t: dict) -> Outcome:
    """Compress-and-forward objective and existence conditions from its terms."""
    covers = t["cover1"] + t["cover2"] + t["side1"] + t["side2"]
    return Outcome(
        t["obj_main"] + t["obj_corr"],
        (
            ("(2)", "<", t["cover1"] + t["side1"], t["dec1"] + t["res1"]),
            ("(3)", "<", t["cover2"] + t["side2"], t["dec2"] + t["res2"]),
            ("(4a)", "<", covers, t["dec12"] + t["res1"] + t["res2"]),
            ("(4b)", "<", covers, t["dec1"] + t["dec2"] + t["res1"] + t["res2"]),
        ),
    )


@dataclass(frozen=True)
class DfSolution:
    """Inner maximization outcome for the partial decode-and-forward rates."""

    r21: float
    r22: float
    clamped: tuple[str, ...]


def solve_df_rates(b1, b2, bsum) -> DfSolution:
    """Maximize R21 + R22 subject to the box and sum upper bounds.

    Negative bounds are clamped to 0 and flagged; a degenerate scheme where a
    forwarding codebook carries no message stays valid.  When the sum bound
    binds, the slack is split proportionally to the individual bounds, which
    keeps the solution unique and continuous in the inputs.  The bounds may
    be floats or arrays of candidates; ``clamped`` then names the bounds that
    are negative for some candidate.
    """
    bounds = np.array([b1, b2, bsum])
    negative = (bounds < 0.0).reshape(3, -1).any(axis=1)
    clamped = tuple(name for name, neg in zip(("r21", "r22", "sum"), negative) if neg)
    c1, c2, cs = np.maximum(bounds, 0.0)
    # the sum binds only when c1 + c2 > cs >= 0, so its divisor is positive
    fits = c1 + c2 <= cs
    scale = np.where(fits, 1.0, cs / np.where(fits, 1.0, c1 + c2))
    return DfSolution(c1 * scale, c2 * scale, clamped)


def theorem2_outcome(t: dict, df_rates: tuple[float, float] | None = None) -> Outcome:
    """Hybrid objective and rate bounds from its terms; see :func:`eval_theorem2`."""
    relay1 = t["df_direct1"] + t["dec1"] + t["res1"]
    relay2 = t["df_direct2"] + t["dec2"] + t["res2"]
    sum12 = t["df_direct1"] + t["df_direct2"] + t["dec12"] + t["res1"] + t["res2"]
    sum1_2 = t["df_direct1"] + t["df_direct2"] + t["dec1"] + t["dec2"] + t["res1"] + t["res2"]
    if df_rates is None:
        sol = solve_df_rates(
            np.minimum(t["df_relay1"], relay1 - t["sender1"]),
            np.minimum(t["df_relay2"], relay2 - t["sender2"]),
            np.minimum(sum12 - t["sender1"] - t["sender2"], sum1_2 - t["sender1"] - t["sender2"]),
        )
        r21, r22 = sol.r21, sol.r22
        flags = tuple(f"df-bound-clamped:{name}" for name in sol.clamped)
    else:
        r21, r22 = df_rates
        flags = ("df-rates-forced",)
    senders = r21 + r22 + t["sender1"] + t["sender2"]
    return Outcome(
        t["obj_main"] + t["obj_corr"] + r21 + r22,
        (
            ("(6a)", "<=", r21, t["df_relay1"]),
            ("(6b)", "<=", r21 + t["sender1"], relay1),
            ("(7a)", "<=", r22, t["df_relay2"]),
            ("(7b)", "<=", r22 + t["sender2"], relay2),
            ("(8a)", "<=", senders, sum12),
            ("(8b)", "<=", senders, sum1_2),
        ),
        flags,
    )


def proof_rows_t1(t: dict, rates: T1Rates) -> tuple[tuple[str, str, Any, Any], ...]:
    """The per-stage compress-and-forward rows as (label, sense, lhs, rhs)."""
    return (
        ("(9)", ">", rates.rh1, t["cover1"]),
        ("(10)", ">", rates.rh2, t["cover2"]),
        ("(11)", ">", rates.rh1, t["sender1"]),
        ("(12)", ">", rates.rh2, t["sender2"]),
        ("(13)", ">", rates.rh1 + rates.rh2, t["sender1"] + t["sender2x"]),
        ("(14)", "<", rates.rs1, t["dec1"]),
        ("(15)", "<", rates.rs2, t["dec2"]),
        ("(16)", "<", rates.rs1 + rates.rs2, t["dec12"]),
        ("(17)", "<", rates.rh1, t["res1"] + rates.rs1),
        ("(18)", "<", rates.rh2, t["res2"] + rates.rs2),
        ("(19)", "<", rates.rbar, t["obj_main"] + t["obj_corr"]),
    )


def proof_rows_t2(t: dict, rates: T2Rates) -> tuple[tuple[str, str, Any, Any], ...]:
    """The per-stage hybrid rows as (label, sense, lhs, rhs)."""
    return (
        ("(20)", "<", rates.r21, t["df_relay1"]),
        ("(21)", ">", rates.rh1, t["cover1"]),
        ("(22)", "<", rates.r22, t["df_relay2"]),
        ("(23)", ">", rates.rh2, t["cover2"]),
        ("(24)", "<", rates.r011 + rates.r012, t["dec1"]),
        ("(25)", "<", rates.r021 + rates.r022, t["dec2"]),
        ("(26)", "<", rates.r011 + rates.r012 + rates.r021 + rates.r022, t["dec12"]),
        ("(27)", "<", rates.r21, t["df_direct1"] + rates.r011),
        ("(28)", "<", rates.r22, t["df_direct2"] + rates.r021),
        ("(29)", "<", rates.rh1, t["res1"] + rates.r012),
        ("(30)", "<", rates.rh2, t["res2"] + rates.r022),
        ("(31)", "<", rates.r1, t["obj_main"] + t["obj_corr"]),
        ("(32)", ">", rates.rh1, t["sender1"]),
        ("(33)", ">", rates.rh2, t["sender2"]),
        ("(34)", ">", rates.rh1 + rates.rh2, t["sender1"] + t["sender2x"]),
    )


class Scheme(NamedTuple):
    """One coding scheme: its query table, step 2 of its evaluation, its
    per-stage rate tuple and the proof rows over that tuple.

    The proof rows, and the outcome given forced partial rates, use ``+`` and
    ``-`` only, so they run on floats, on arrays and on the unit integer
    vectors of :mod:`tworelay.fm`.  The first rate field is the one the
    objective row bounds.
    """

    queries: dict[str, InfoQuery]
    outcome: Callable[..., Outcome]
    rates: type
    proof_rows: Callable[[dict, Any], tuple[tuple[str, str, Any, Any], ...]]


THEOREMS = {
    "t1": Scheme(T1_QUERIES, theorem1_outcome, T1Rates, proof_rows_t1),
    "t2": Scheme(T2_QUERIES, theorem2_outcome, T2Rates, proof_rows_t2),
}


def _report(channel: NetworkChannel, law: T1Law | T2Law, outcome: Outcome) -> RateReport:
    checks = tuple(_check(*row) for row in outcome.rows)
    return RateReport(
        objective_bits=float(outcome.objective),
        constraints=checks,
        feasible=all(c.satisfied for c in checks),
        flags=outcome.flags,
        law_hash=law_hash(law),
        channel_hash=channel_hash(channel),
    )


def eval_theorem1(channel: NetworkChannel, law: T1Law) -> RateReport:
    """Compress-and-forward rate and its existence conditions for one law."""
    check_family(law, "t1")
    t = term_values(assemble_joint(channel, law), T1_QUERIES)
    return _report(channel, law, theorem1_outcome(t))


def eval_theorem2(
    channel: NetworkChannel,
    law: T2Law,
    df_rates: tuple[float, float] | None = None,
) -> RateReport:
    """Hybrid rate for one law.

    ``df_rates`` forces the partial rates (R21, R22) instead of solving the
    inner maximization; forcing (0, 0) reduces the scheme to pure
    compress-and-forward on the embedded family.
    """
    check_family(law, "t2")
    if df_rates is not None and not all(0.0 <= r < np.inf for r in df_rates):
        raise ValidationError(f"forced DF rates must be finite and nonnegative, got {df_rates}")
    t = term_values(assemble_joint(channel, law), T2_QUERIES)
    return _report(channel, law, theorem2_outcome(t, df_rates))


# ---------------------------------------------------------------------------
# family embedding
# ---------------------------------------------------------------------------


def embed_t1_in_t2(law: T1Law) -> T2Law:
    """Embed a compress-and-forward law into the hybrid family.

    The auxiliaries become exact copies of the relay inputs (V1 = X1,
    V2 = X2) and every other factor ignores them.  With the partial rates
    forced to zero the hybrid evaluation degenerates to the original scheme.
    """
    check_family(law, "t1")
    t1 = {f.target: getattr(law, f.name) for f in law.factors}
    alphabet = {a.id: a for pmf in t1.values() for a in pmf.given + pmf.target}
    alphabet["V1"] = Alphabet("V1", alphabet["X1"].size)
    alphabet["V2"] = Alphabet("V2", alphabet["X2"].size)
    parts = {}
    for f in T2Law.factors:
        given = tuple(alphabet[v] for v in f.given)
        target = tuple(alphabet[v] for v in f.target)
        if f.target not in t1:  # p(v|x): the auxiliary copies its relay input
            parts[f.name] = CondPmf(given, target, np.eye(given[0].size))
        elif f.given:  # the T1 factor, constant along the auxiliary axes
            pmf = t1[f.target]
            own = {a.id for a in pmf.given}
            index = tuple(slice(None) if v in own else None for v in f.given)
            shape = tuple(a.size for a in given + target)
            parts[f.name] = CondPmf(given, target, np.broadcast_to(pmf.mass[index], shape))
        else:
            parts[f.name] = t1[f.target]
    return T2Law(**parts)
