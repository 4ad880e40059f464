"""Entropy and conditional mutual information on assembled joints.

All quantities are in bits (log base 2) unless a caller converts afterward.
Conditional mutual information is computed from entropies of marginals,
I(L;R|G) = H(LG) + H(RG) - H(LRG) - H(G), so the two argument sets travel the
same computation path and exact symmetry holds.  Results within 1e-10 of zero
are clamped to exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def __str__(self) -> str:
        body = f"{','.join(self.left)};{','.join(self.right)}"
        if self.given:
            body += f"|{','.join(self.given)}"
        return f"I({body})"


def entropy(pmf: JointPmf | np.ndarray, offsets: np.ndarray | None = None) -> float | np.ndarray:
    """Shannon entropy in bits, clamped to exactly 0 within ``ZERO_CLAMP``.

    ``pmf`` is a joint pmf and the result a float.  With ``offsets``, ``pmf``
    is instead a flat array that concatenates several pmfs, each starting at
    its offset, and the result is the array of their entropies from one
    vectorized pass; :func:`tworelay.rates.term_values` computes every subset
    entropy of a query table this way.  Cells that are not positive are left
    out either way.
    """
    if offsets is None:
        p = pmf.mass.reshape(-1)
        nz = p[p > 0.0]
        h = float(-(nz * np.log2(nz)).sum())
        return 0.0 if abs(h) <= ZERO_CLAMP else h
    p = np.where(pmf > 0.0, pmf, 1.0)  # 1 * log2(1) = 0
    h = -np.add.reduceat(p * np.log2(p), offsets)
    h[np.abs(h) <= ZERO_CLAMP] = 0.0
    return h


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
