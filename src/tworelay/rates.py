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
from dataclasses import dataclass, field

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
    gets the marginal of subset k by summing ``axes`` out of the marginal of
    subset ``parent`` (the joint itself when ``parent`` is -1), the smallest
    superset computed before it, so no array larger than the joint is built.
    ``offsets`` delimit each marginal in their flat concatenation and
    ``signs`` maps the subset entropies to the queries.
    """

    names: tuple[str, ...]
    queries: tuple[InfoQuery, ...]
    steps: tuple[tuple[int, tuple[int, ...]], ...]
    offsets: np.ndarray
    signs: np.ndarray


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
        steps.append((parent, tuple(i for i, v in enumerate(source) if v not in s)))
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
        tuple(name for name, _ in items), tuple(q for _, q in items), tuple(steps), offsets, signs
    )


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
    plan = _compile_terms(tuple(queries.items()), joint.ids, joint.mass.shape)
    marginals: list[np.ndarray] = []
    for parent, axes in plan.steps:
        source = joint.mass if parent < 0 else marginals[parent]
        marginals.append(np.add.reduce(source, axis=axes) if axes else source)
    h = entropy(np.concatenate([m.ravel() for m in marginals]), plan.offsets)
    values = plan.signs @ h
    low = np.flatnonzero(values < -ZERO_CLAMP)
    if low.size:
        k = low[0]
        raise ValidationError(
            f"mutual information {values[k]} below -{ZERO_CLAMP} for {plan.queries[k]}"
        )
    values[np.abs(values) <= ZERO_CLAMP] = 0.0
    return dict(zip(plan.names, values.tolist()))


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


def _strict(label: str, lhs: float, rhs: float) -> ConstraintCheck:
    return ConstraintCheck(label, lhs, rhs, satisfied=(rhs - lhs) > STRICT_MARGIN)


def _closure(label: str, lhs: float, rhs: float) -> ConstraintCheck:
    return ConstraintCheck(label, lhs, rhs, satisfied=lhs <= rhs + STRICT_MARGIN, sense="<=")


# ---------------------------------------------------------------------------
# theorem evaluators
# ---------------------------------------------------------------------------


def eval_theorem1(channel: NetworkChannel, law: T1Law) -> RateReport:
    """Compress-and-forward rate and its existence conditions for one law."""
    joint = assemble_joint(channel, law)
    t = term_values(joint, T1_QUERIES)
    checks = (
        _strict("(2)", t["cover1"] + t["side1"], t["dec1"] + t["res1"]),
        _strict("(3)", t["cover2"] + t["side2"], t["dec2"] + t["res2"]),
        _strict(
            "(4a)",
            t["cover1"] + t["cover2"] + t["side1"] + t["side2"],
            t["dec12"] + t["res1"] + t["res2"],
        ),
        _strict(
            "(4b)",
            t["cover1"] + t["cover2"] + t["side1"] + t["side2"],
            t["dec1"] + t["dec2"] + t["res1"] + t["res2"],
        ),
    )
    return RateReport(
        objective_bits=t["obj_main"] + t["obj_corr"],
        constraints=checks,
        feasible=all(c.satisfied for c in checks),
        flags=(),
        law_hash=law_hash(law),
        channel_hash=channel_hash(channel),
    )


@dataclass(frozen=True)
class DfSolution:
    """Inner maximization outcome for the partial decode-and-forward rates."""

    r21: float
    r22: float
    clamped: tuple[str, ...]


def solve_df_rates(b1: float, b2: float, bsum: float) -> DfSolution:
    """Maximize R21 + R22 subject to the box and sum upper bounds.

    Negative bounds are clamped to 0 and flagged; a degenerate scheme where a
    forwarding codebook carries no message stays valid.  When the sum bound
    binds, the slack is split proportionally to the individual bounds, which
    keeps the solution unique and continuous in the inputs.
    """
    clamped = tuple(
        name for name, b in (("r21", b1), ("r22", b2), ("sum", bsum)) if b < 0.0
    )
    c1, c2, cs = max(b1, 0.0), max(b2, 0.0), max(bsum, 0.0)
    if c1 + c2 <= cs:
        return DfSolution(c1, c2, clamped)
    if c1 + c2 == 0.0:
        return DfSolution(0.0, 0.0, clamped)
    scale = cs / (c1 + c2)
    return DfSolution(c1 * scale, c2 * scale, clamped)


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
    joint = assemble_joint(channel, law)
    t = term_values(joint, T2_QUERIES)
    b1 = min(t["df_relay1"], t["df_direct1"] + t["dec1"] + t["res1"] - t["sender1"])
    b2 = min(t["df_relay2"], t["df_direct2"] + t["dec2"] + t["res2"] - t["sender2"])
    bsum = min(
        t["df_direct1"] + t["df_direct2"] + t["dec12"] + t["res1"] + t["res2"]
        - t["sender1"] - t["sender2"],
        t["df_direct1"] + t["df_direct2"] + t["dec1"] + t["dec2"] + t["res1"] + t["res2"]
        - t["sender1"] - t["sender2"],
    )
    if df_rates is None:
        sol = solve_df_rates(b1, b2, bsum)
        r21, r22 = sol.r21, sol.r22
        flags = tuple(f"df-bound-clamped:{name}" for name in sol.clamped)
    else:
        r21, r22 = df_rates
        if r21 < 0.0 or r22 < 0.0:
            raise ValidationError(f"forced DF rates must be nonnegative, got {df_rates}")
        flags = ("df-rates-forced",)
    checks = (
        _closure("(6a)", r21, t["df_relay1"]),
        _closure("(6b)", r21 + t["sender1"], t["df_direct1"] + t["dec1"] + t["res1"]),
        _closure("(7a)", r22, t["df_relay2"]),
        _closure("(7b)", r22 + t["sender2"], t["df_direct2"] + t["dec2"] + t["res2"]),
        _closure(
            "(8a)",
            r21 + r22 + t["sender1"] + t["sender2"],
            t["df_direct1"] + t["df_direct2"] + t["dec12"] + t["res1"] + t["res2"],
        ),
        _closure(
            "(8b)",
            r21 + r22 + t["sender1"] + t["sender2"],
            t["df_direct1"] + t["df_direct2"] + t["dec1"] + t["dec2"] + t["res1"] + t["res2"],
        ),
    )
    return RateReport(
        objective_bits=t["obj_main"] + t["obj_corr"] + r21 + r22,
        constraints=checks,
        feasible=all(c.satisfied for c in checks),
        flags=flags,
        law_hash=law_hash(law),
        channel_hash=channel_hash(channel),
    )


# ---------------------------------------------------------------------------
# pointwise proof systems
# ---------------------------------------------------------------------------


def _point(label: str, sense: str, lhs: float, rhs: float) -> ConstraintCheck:
    if sense == "<":
        ok = (rhs - lhs) > STRICT_MARGIN
    elif sense == ">":
        ok = (lhs - rhs) > STRICT_MARGIN
    else:
        raise ValidationError(f"unknown sense {sense!r}")
    return ConstraintCheck(label, lhs, rhs, ok, sense)


def eval_proof_system_t1(
    channel: NetworkChannel, law: T1Law, rates: T1Rates
) -> tuple[ConstraintCheck, ...]:
    """Check one rate tuple against the per-stage compress-and-forward system."""
    joint = assemble_joint(channel, law)
    t = term_values(joint, T1_QUERIES)
    return (
        _point("(9)", ">", rates.rh1, t["cover1"]),
        _point("(10)", ">", rates.rh2, t["cover2"]),
        _point("(11)", ">", rates.rh1, t["sender1"]),
        _point("(12)", ">", rates.rh2, t["sender2"]),
        _point("(13)", ">", rates.rh1 + rates.rh2, t["sender1"] + t["sender2x"]),
        _point("(14)", "<", rates.rs1, t["dec1"]),
        _point("(15)", "<", rates.rs2, t["dec2"]),
        _point("(16)", "<", rates.rs1 + rates.rs2, t["dec12"]),
        _point("(17)", "<", rates.rh1, t["res1"] + rates.rs1),
        _point("(18)", "<", rates.rh2, t["res2"] + rates.rs2),
        _point("(19)", "<", rates.rbar, t["obj_main"] + t["obj_corr"]),
    )


def eval_proof_system_t2(
    channel: NetworkChannel, law: T2Law, rates: T2Rates
) -> tuple[ConstraintCheck, ...]:
    """Check one rate tuple against the per-stage hybrid system."""
    joint = assemble_joint(channel, law)
    t = term_values(joint, T2_QUERIES)
    return (
        _point("(20)", "<", rates.r21, t["df_relay1"]),
        _point("(21)", ">", rates.rh1, t["cover1"]),
        _point("(22)", "<", rates.r22, t["df_relay2"]),
        _point("(23)", ">", rates.rh2, t["cover2"]),
        _point("(24)", "<", rates.r011 + rates.r012, t["dec1"]),
        _point("(25)", "<", rates.r021 + rates.r022, t["dec2"]),
        _point(
            "(26)", "<", rates.r011 + rates.r012 + rates.r021 + rates.r022, t["dec12"]
        ),
        _point("(27)", "<", rates.r21, t["df_direct1"] + rates.r011),
        _point("(28)", "<", rates.r22, t["df_direct2"] + rates.r021),
        _point("(29)", "<", rates.rh1, t["res1"] + rates.r012),
        _point("(30)", "<", rates.rh2, t["res2"] + rates.r022),
        _point("(31)", "<", rates.r1, t["obj_main"] + t["obj_corr"]),
        _point("(32)", ">", rates.rh1, t["sender1"]),
        _point("(33)", ">", rates.rh2, t["sender2"]),
        _point("(34)", ">", rates.rh1 + rates.rh2, t["sender1"] + t["sender2x"]),
    )


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
