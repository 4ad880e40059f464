"""Achievable-rate evaluation for the two-relay feedback network.

Two rate expressions are supported:

* ``eval_theorem1``: the compress-and-forward rate.  The law must satisfy the
  three strict existence conditions labeled "(2)", "(3)", "(4)" (the last has
  two min branches, reported as "(4a)" and "(4b)").  The objective is
  I(X0;Y0,Yh1,Yh2|X1,X2) + I(X1;X2).
* ``eval_theorem2``: the hybrid rate with decode-and-forward auxiliaries
  V1, V2 riding under the relay inputs.  The partial rates R21, R22 are chosen
  by an inner maximization against upper bounds "(6)", "(7)", "(8)" (each with
  two min branches) and added to the objective.

Both evaluators also expose the underlying per-stage inequality systems
("(9)".."(19)" and "(20)".."(34)") for pointwise rate tuples, which is what
the polyhedral reduction in :mod:`tworelay.fm` is checked against.

Feasibility policy: the existence conditions are open (strict) and a
constraint counts as satisfied only when its slack exceeds 1e-9 bits.  Chosen
rates in ``eval_theorem2`` sit at the supremum closure, so their bound checks
use non-strict comparison with the same tolerance.  Objectives are reported as
supremum-closure values with no epsilon backoff.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .info import ZERO_CLAMP, InfoQuery, entropy
from .prob import (
    Alphabet,
    CondPmf,
    JointPmf,
    NetworkChannel,
    T1Law,
    T2Law,
    ValidationError,
    assemble_joint,
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


@dataclass(frozen=True, eq=False)
class _TermPlan:
    """A query table compiled against one joint shape, in the entropy basis.

    Every query is written as I(L;R|G) = H(LG) + H(RG) - H(LRG) - H(G) over
    the distinct nonempty variable subsets.  ``steps[k] = (parent, axes)``
    gets the marginal of subset k by summing ``axes`` (counted from the end)
    out of the marginal of subset ``parent`` (the joint itself when
    ``parent`` is -1), the smallest superset computed before it, so no array
    larger than the joint is built.  ``offsets`` delimit each marginal in
    their flat concatenation and ``signs`` maps the subset entropies to the
    queries.

    Evaluation is step 1 of every rate evaluation: :meth:`marginals` turns a
    joint into its marginal stack and :meth:`terms` turns a marginal stack
    into the query values.  Both work along the trailing axes, so a stack of
    joints or of marginal vectors is evaluated in one pass.
    """

    names: tuple[str, ...]
    queries: tuple[InfoQuery, ...]
    shape: tuple[int, ...]
    steps: tuple[tuple[int, tuple[int, ...]], ...]
    offsets: np.ndarray
    signs: np.ndarray

    def marginals(self, mass: np.ndarray) -> np.ndarray:
        """The concatenated subset marginals of a joint of this plan's shape,
        or of joints stacked along leading axes: shape ``(..., cells)``."""
        lead = mass.shape[: mass.ndim - len(self.shape)]
        out: list[np.ndarray] = []
        for parent, axes in self.steps:
            source = mass if parent < 0 else out[parent]
            out.append(np.add.reduce(source, axis=axes) if axes else source)
        return np.concatenate([m.reshape(lead + (-1,)) for m in out], axis=-1)

    def terms(self, marginals: np.ndarray) -> np.ndarray:
        """Every query's value, in ``names`` order along the last axis, from a
        marginal stack; clamped and checked like :func:`term_values`."""
        values = entropy(marginals, self.offsets) @ self.signs.T
        low = values < -ZERO_CLAMP
        if low.any():
            at = tuple(np.argwhere(low)[0])
            raise ValidationError(
                f"mutual information {values[at]} below -{ZERO_CLAMP} for {self.queries[at[-1]]}"
            )
        values[np.abs(values) <= ZERO_CLAMP] = 0.0
        return values


@functools.lru_cache(maxsize=64)
def _compile_terms(
    items: tuple[tuple[str, InfoQuery], ...], ids: tuple[str, ...], shape: tuple[int, ...]
) -> _TermPlan:
    size = dict(zip(ids, shape))
    subset = lambda *groups: tuple(v for v in ids if any(v in g for g in groups))
    rows = []
    for _, q in items:
        missing = sorted(set(q.left + q.right + q.given) - set(ids))
        if missing:
            raise ValidationError(f"query {q} references {missing}, absent from joint {ids}")
        rows.append(
            (
                (subset(q.left, q.given), 1.0),
                (subset(q.right, q.given), 1.0),
                (subset(q.left, q.right, q.given), -1.0),
                (subset(q.given), -1.0),
            )
        )
    subsets = sorted(
        {s for row in rows for s, _ in row if s}, key=lambda s: (-len(s), [ids.index(v) for v in s])
    )
    cells = [math.prod(size[v] for v in s) for s in subsets]
    steps = []
    for k, s in enumerate(subsets):
        supersets = [j for j in range(k) if set(s) <= set(subsets[j])]
        parent = min(supersets, key=cells.__getitem__, default=-1)
        source = ids if parent < 0 else subsets[parent]
        steps.append((parent, tuple(i - len(source) for i, v in enumerate(source) if v not in s)))
    column = {s: k for k, s in enumerate(subsets)}
    signs = np.zeros((len(items), len(subsets)))
    for r, row in enumerate(rows):
        for s, sign in row:
            if s:
                signs[r, column[s]] += sign
    offsets = np.cumsum([0] + cells[:-1])
    offsets.setflags(write=False)
    signs.setflags(write=False)
    return _TermPlan(
        tuple(name for name, _ in items),
        tuple(q for _, q in items),
        shape,
        tuple(steps),
        offsets,
        signs,
    )


def term_plan(queries: dict[str, InfoQuery], joint: JointPmf) -> _TermPlan:
    """The compiled plan of a query table for joints shaped like ``joint``."""
    return _compile_terms(tuple(queries.items()), joint.ids, joint.mass.shape)


def term_values(joint: JointPmf, queries: dict[str, InfoQuery]) -> dict[str, float]:
    """Evaluate a table of information terms on one joint, sharing marginals.

    ``joint`` must be a validated :class:`JointPmf`, whose entries are finite
    and non-negative; then the result agrees with
    :func:`tworelay.info.mutual_info` query by query, including its clamps and
    its negative check, up to floating-point summation order.  A
    ``JointPmf.raw`` joint skips that validation: ``mutual_info`` rejects its
    bad cells in ``marginalize``, while here cells that are not positive are
    left out of the entropies.
    """
    plan = term_plan(queries, joint)
    return dict(zip(plan.names, plan.terms(plan.marginals(joint.mass)).tolist()))


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
            "format_version": 1,
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
        if r21 < 0.0 or r22 < 0.0:
            raise ValidationError(f"forced DF rates must be nonnegative, got {df_rates}")
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


# the query table and step 2 of each theorem
THEOREMS = {"t1": (T1_QUERIES, theorem1_outcome), "t2": (T2_QUERIES, theorem2_outcome)}


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
    t = term_values(assemble_joint(channel, law), T2_QUERIES)
    return _report(channel, law, theorem2_outcome(t, df_rates))


# ---------------------------------------------------------------------------
# pointwise proof systems
# ---------------------------------------------------------------------------


def eval_proof_system_t1(
    channel: NetworkChannel, law: T1Law, rates: T1Rates
) -> tuple[ConstraintCheck, ...]:
    """Check one rate tuple against the per-stage compress-and-forward system."""
    t = term_values(assemble_joint(channel, law), T1_QUERIES)
    rows = (
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
    return tuple(_check(*row) for row in rows)


def eval_proof_system_t2(
    channel: NetworkChannel, law: T2Law, rates: T2Rates
) -> tuple[ConstraintCheck, ...]:
    """Check one rate tuple against the per-stage hybrid system."""
    t = term_values(assemble_joint(channel, law), T2_QUERIES)
    rows = (
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
    return tuple(_check(*row) for row in rows)


# ---------------------------------------------------------------------------
# family embedding
# ---------------------------------------------------------------------------


def embed_t1_in_t2(law: T1Law) -> T2Law:
    """Embed a compress-and-forward law into the hybrid family.

    The auxiliaries become exact copies of the relay inputs (V1 = X1,
    V2 = X2) and every other factor ignores them.  With the partial rates
    forced to zero the hybrid evaluation degenerates to the original scheme.
    """
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
