"""Information terms: entropy and conditional mutual information on joints.

All quantities are in bits (log base 2) unless a caller converts afterward.
:class:`InfoQuery` names a term I(L;R|G) for the numeric and the symbolic
side alike, and writes and parses its text.  A term is computed from
entropies of marginals, I(L;R|G) = H(LG) + H(RG) - H(LRG) - H(G), so the two
argument sets travel the same computation path and exact symmetry holds.
:func:`term_values` evaluates a table of terms from one plan compiled per
joint shape; :func:`mutual_info`, one term at a time, is its reference.
Results within 1e-10 of zero are clamped to exactly 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import prob
from .prob import JointPmf, ValidationError, canonical_sorted, marginalize

ZERO_CLAMP = 1e-10


@dataclass(frozen=True)
class InfoQuery:
    """A conditional mutual information I(left; right | given).

    Sets are stored canonically sorted.  ``given`` may be empty.  The left and
    right sets must be disjoint from each other and from ``given``; overlap
    would silently change the meaning of the query.
    """

    left: tuple[str, ...]
    right: tuple[str, ...]
    given: tuple[str, ...] = ()
    # the text I(L;R|G), written once; equality stays with the three sets
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        left = canonical_sorted(self.left)
        right = canonical_sorted(self.right)
        given = canonical_sorted(self.given)
        if not left or not right:
            raise ValidationError("InfoQuery: left and right must be nonempty")
        if set(left) & set(right) or set(left) & set(given) or set(right) & set(given):
            raise ValidationError(f"InfoQuery: overlapping sets {left} ; {right} | {given}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "given", given)
        body = f"{','.join(left)};{','.join(right)}"
        if given:
            body += f"|{','.join(given)}"
        object.__setattr__(self, "_text", f"I({body})")

    def __str__(self) -> str:
        return self._text

    def __hash__(self) -> int:
        return hash(self._text)

    @classmethod
    def parse(cls, text: str) -> "InfoQuery":
        """Inverse of :meth:`__str__`: ``I(L;R|G)`` with comma-separated ids
        in any order, ``|G`` optional."""
        if not (text.startswith("I(") and text.endswith(")")):
            raise ValidationError(f"malformed information term {text!r}")
        body = text[2:-1]
        if "|" in body:
            main, given = body.split("|", 1)
            given_ids = tuple(given.split(","))
        else:
            main, given_ids = body, ()
        try:
            left, right = main.split(";")
        except ValueError:
            raise ValidationError(f"malformed information term {text!r}") from None
        return cls(tuple(left.split(",")), tuple(right.split(",")), given_ids)


def entropy(pmf: JointPmf | np.ndarray, offsets: np.ndarray | None = None) -> float | np.ndarray:
    """Shannon entropy in bits, clamped to exactly 0 within ``ZERO_CLAMP``.

    ``pmf`` is a joint pmf and the result a float.  With ``offsets``, ``pmf``
    is instead an array whose last axis concatenates several pmfs, each
    starting at its offset, and the result holds their entropies along that
    axis from vectorized passes; a :class:`_TermPlan` computes every subset
    entropy of a query table this way, for one joint or a stack of
    candidates.  A stack is taken in blocks of whole rows of at most
    ``prob.BLOCK_ENTRIES`` entries (at least one row), so the temporaries
    stay small; each row's sums are its own, so the blocks change no bit.
    Cells that are not positive are left out either way.
    """
    if offsets is None:
        p = pmf.mass.reshape(-1)
        nz = p[p > 0.0]
        h = float(-(nz * np.log2(nz)).sum())
        return 0.0 if abs(h) <= ZERO_CLAMP else h
    width = pmf.shape[-1]
    step = max(1, prob.BLOCK_ENTRIES // width)
    if pmf.size <= step * width:  # one block
        h = _entropy_rows(pmf, offsets)
    else:
        rows = pmf.reshape(-1, width)
        h = np.concatenate([_entropy_rows(rows[k:k + step], offsets) for k in range(0, len(rows), step)])
        h = h.reshape(pmf.shape[:-1] + (len(offsets),))
    h[np.abs(h) <= ZERO_CLAMP] = 0.0
    return h


def _entropy_rows(pmf: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The unclamped entropies of :func:`entropy`'s ``offsets`` form."""
    p = np.where(pmf > 0.0, pmf, 1.0)  # 1 * log2(1) = 0
    return -np.add.reduceat(p * np.log2(p), offsets, axis=-1)


@dataclass(frozen=True, eq=False)
class _TermPlan:
    """A query table compiled against one joint shape, in the entropy basis.

    Every query is written as I(L;R|G) = H(LG) + H(RG) - H(LRG) - H(G) over
    the distinct nonempty variable ``subsets`` of the joint's ``ids``.
    ``steps[k] = (parent, axes)`` gets the marginal of subset k by summing
    ``axes`` (counted from the end) out of the marginal of subset ``parent``
    (the joint itself when ``parent`` is -1), the smallest superset computed
    before it, so no array larger than the joint is built.  ``offsets`` delimit each marginal in
    their flat concatenation and ``signs`` maps the subset entropies to the
    queries.

    Evaluation is step 1 of every rate evaluation: :meth:`marginals` turns a
    joint into its marginal stack and :meth:`terms` turns a marginal stack
    into the query values, by one :func:`entropy` pass and :meth:`signed`.
    All three work along the trailing axes, so a stack of joints or of
    marginal vectors is evaluated in one pass.
    """

    names: tuple[str, ...]
    queries: tuple[InfoQuery, ...]
    ids: tuple[str, ...]
    shape: tuple[int, ...]
    subsets: tuple[tuple[str, ...], ...]
    steps: tuple[tuple[int, tuple[int, ...]], ...]
    offsets: np.ndarray
    signs: np.ndarray

    def marginals(self, mass: np.ndarray) -> np.ndarray:
        """The concatenated subset marginals of a joint of this plan's shape,
        or of joints stacked along leading axes: shape ``(..., cells)``.  Only
        the rank is read, so a slab (see :func:`slab_cells`) works too."""
        lead = mass.shape[: mass.ndim - len(self.shape)]
        out: list[np.ndarray] = []
        for parent, axes in self.steps:
            source = mass if parent < 0 else out[parent]
            out.append(np.add.reduce(source, axis=axes) if axes else source)
        return np.concatenate([m.reshape(lead + (-1,)) for m in out], axis=-1)

    def terms(self, marginals: np.ndarray) -> np.ndarray:
        """Every query's value, in ``names`` order along the last axis, from a
        marginal stack; clamped and checked like :func:`term_values`."""
        return self.signed(entropy(marginals, self.offsets))

    def signed(self, entropies: np.ndarray) -> np.ndarray:
        """The query values from subset entropies (:func:`entropy` of the
        marginal stack at ``offsets``), clamped and checked.  A stack is
        signed by one matrix product, whose last bits can differ from
        signing each row alone; a caller that needs one joint's own bits
        signs its row by itself."""
        values = entropies @ self.signs.T
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
        ids,
        shape,
        tuple(subsets),
        tuple(steps),
        offsets,
        signs,
    )


def term_plan(queries: dict[str, InfoQuery], ids: tuple[str, ...], shape: tuple[int, ...]) -> _TermPlan:
    """The compiled plan of a query table for joints over ``ids`` of ``shape``."""
    return _compile_terms(tuple(queries.items()), ids, shape)


@functools.lru_cache(maxsize=16)  # a search revisits one plan's factors, at most 7
def slab_cells(plan: _TermPlan, fixed: tuple[str, ...]) -> np.ndarray:
    """Where every slab's marginals sit in its joint's marginal stack.

    A slab is a joint of ``plan``'s ids restricted to one value of each
    variable in ``fixed``, with those axes kept at size 1;
    :meth:`_TermPlan.marginals` gives its concatenated subset marginals.
    Returns their indices in the full joint's stack for every value of the
    fixed variables at once, shape ``(*fixed sizes, slab cells)``: the law
    search reads one table per factor visit.  Read-only, and cached per plan
    and ``fixed`` in a bounded cache.
    """
    size = dict(zip(plan.ids, plan.shape))
    lead = tuple(size[v] for v in fixed)
    rows = []
    for subset, offset in zip(plan.subsets, plan.offsets):
        cells = offset + np.arange(math.prod(size[v] for v in subset))
        cells = cells.reshape([size[v] if v in subset else 1 for v in plan.ids])
        cells = np.moveaxis(cells, [plan.ids.index(v) for v in fixed], range(len(fixed)))
        rows.append(np.broadcast_to(cells, lead + cells.shape[len(fixed):]).reshape(lead + (-1,)))
    table = np.concatenate(rows, axis=-1)
    table.setflags(write=False)
    return table


def term_values(joint: JointPmf, queries: dict[str, InfoQuery]) -> dict[str, float]:
    """Evaluate a table of information terms on one joint, sharing marginals.

    Every :class:`JointPmf` is checked finite and non-negative when it is
    built, so the result agrees with :func:`mutual_info` query by query,
    including its clamps and its negative check, up to floating-point
    summation order.
    """
    plan = term_plan(queries, joint.ids, joint.mass.shape)
    return dict(zip(plan.names, plan.terms(plan.marginals(joint.mass)).tolist()))


def mutual_info(joint: JointPmf, query: InfoQuery) -> float:
    """Conditional mutual information of ``query`` under ``joint``, in bits."""
    have = set(joint.ids)
    need = set(query.left) | set(query.right) | set(query.given)
    missing = sorted(need - have, key=lambda v: v)
    if missing:
        raise ValidationError(f"query {query} references {missing}, absent from joint {joint.ids}")
    h = lambda ids: entropy(marginalize(joint, ids)) if ids else 0.0
    lg = h(query.left + query.given)
    rg = h(query.right + query.given)
    lrg = h(query.left + query.right + query.given)
    g = h(query.given)
    value = lg + rg - lrg - g
    if value < -ZERO_CLAMP:
        raise ValidationError(f"mutual information {value} below -{ZERO_CLAMP} for {query}")
    return 0.0 if abs(value) <= ZERO_CLAMP else value


def binary_entropy(p: float) -> float:
    """h2(p) in bits; vanishes at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))
