"""Derivative-free maximization of the two achievable rates over a channel.

Both laws factor into conditional-pmf components, and every conditioning cell
of every component is an independent point on a probability simplex.  The two
search modes work directly on those slices:

grid
    cyclic ascent: sweep the slices in declaration order, and for each slice
    enumerate every composition of ``resolution`` over its alphabet,
    keeping the best.  Sweeps repeat until a full pass gains less than the
    configured tolerance.  Exhausting the full product grid across all
    slices is hopeless (it is exponential in the slice count), but the
    per-slice enumeration is exact and the sweep is deterministic.
random-restart
    seeded random laws, each polished by local_refine, merged by best value
    with ties broken toward the lower restart index.

Infeasible laws score minus infinity under the first theorem, whose
constraints gate achievability outright.  The second theorem's evaluator
clamps its decode-and-forward rates instead, so infeasibility there is rarer
but treated the same way when it happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import io
from .prob import (
    LAW_FAMILIES,
    InvariantError,
    NetworkChannel,
    T1Law,
    T2Law,
    ValidationError,
    random_law,
    uniform_law,
)
from .rates import RateReport, eval_theorem1, eval_theorem2

MODES = ("grid", "random-restart")


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "grid"
    resolution: int = 8
    restarts: int = 8
    max_iter: int = 24
    seed: int = 0
    tolerance: float = 1e-6
    # law alphabet sizes not fixed by the channel
    yh1_size: int = 2
    yh2_size: int = 2
    v1_size: int = 2
    v2_size: int = 2

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode {self.mode!r}, expected one of {MODES}")
        if self.resolution < 2:
            raise ValidationError(f"resolution {self.resolution} < 2")
        if self.restarts < 0:
            raise ValidationError(f"restarts {self.restarts} < 0")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter {self.max_iter} < 1")
        if not self.tolerance > 0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        for name in ("yh1_size", "yh2_size", "v1_size", "v2_size"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")


@dataclass(frozen=True)
class OptResult:
    theorem: str
    best_law: T1Law | T2Law
    best_report: RateReport
    evaluations: int
    trace: tuple[float, ...]
    infeasible_everywhere: bool

    def __post_init__(self):
        if any(b < a for a, b in zip(self.trace, self.trace[1:])):
            raise InvariantError("incumbent trace decreased")

    @property
    def best_objective_bits(self) -> float:
        return self.best_report.objective_bits

    def to_dict(self) -> dict:
        return {
            "format_version": io.FORMAT_VERSION,
            "kind": "optimization",
            "theorem": self.theorem,
            "best_objective_bits": self.best_objective_bits,
            "feasible": self.best_report.feasible,
            "infeasible_everywhere": self.infeasible_everywhere,
            "evaluations": self.evaluations,
            "trace": list(self.trace),
            "law": io.law_to_dict(self.best_law),
            "report": self.best_report.to_dict(),
        }


# ---------------------------------------------------------------------------
# slice plumbing
# ---------------------------------------------------------------------------

def _slice_index(law) -> list[tuple[str, tuple[int, ...], int]]:
    """Every (factor, conditioning cell, alphabet size) of a law."""
    out = []
    for f in law.factors:
        pmf = getattr(law, f.name)
        k = math.prod(a.size for a in pmf.target)
        for cell in np.ndindex(tuple(a.size for a in pmf.given)):
            out.append((f.name, cell, k))
    return out


def _get_slice(law, name: str, cell: tuple[int, ...]) -> np.ndarray:
    return getattr(law, name).mass[cell].reshape(-1).copy()


def _set_slice(law, name: str, cell: tuple[int, ...], vec: np.ndarray):
    pmf = getattr(law, name)
    mass = pmf.mass.copy()
    mass[cell] = np.asarray(vec, dtype=float).reshape(mass[cell].shape)
    return replace(law, **{name: replace(pmf, mass=mass)})


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _grid_vectors(k: int, resolution: int) -> np.ndarray:
    key = (k, resolution)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = np.array(list(_compositions(resolution, k)), dtype=float) / resolution
    return _GRID_CACHE[key]


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _scorer(theorem: str, channel: NetworkChannel) -> Callable:
    evaluate = {"t1": eval_theorem1, "t2": eval_theorem2}[theorem]

    def score(law):
        report = evaluate(channel, law)
        value = report.objective_bits if report.feasible else -math.inf
        return value, report

    return score


def _grid_search(channel, law, score, cfg: SearchConfig):
    best, report = score(law)
    evals = 1
    trace = [] if best == -math.inf else [best]
    for _ in range(cfg.max_iter):
        sweep_start = best
        for name, cell, k in _slice_index(law):
            if k == 1:
                continue
            slice_best, slice_vec, slice_report = best, None, None
            for vec in _grid_vectors(k, cfg.resolution):
                cand = _set_slice(law, name, cell, vec)
                value, rep = score(cand)
                evals += 1
                if value > slice_best:
                    slice_best, slice_vec, slice_report = value, vec, rep
            if slice_vec is not None:
                law = _set_slice(law, name, cell, slice_vec)
                best, report = slice_best, slice_report
                trace.append(best)
        if best == -math.inf or best - sweep_start <= cfg.tolerance:
            break
    return law, report, best, evals, trace


def _refine(law, channel: NetworkChannel, theorem: str, cfg: SearchConfig):
    """Coordinate-wise line search toward simplex vertices.  Never worsens.

    Each slice is pulled along the segments from its current point toward
    each vertex of its simplex; a golden-section scan picks the best mixing
    weight.  The scan assumes nothing about shape: every evaluated candidate
    competes, so a non-unimodal section simply refines less.
    """
    score = _scorer(theorem, channel)
    best, report = score(law)
    evals = 1
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(cfg.max_iter):
        sweep_start = best
        for name, cell, k in _slice_index(law):
            if k == 1:
                continue
            base = _get_slice(law, name, cell)
            for vertex in range(k):
                target = np.zeros(k)
                target[vertex] = 1.0
                pts = []  # (value, candidate law, report)

                def probe(t: float):
                    nonlocal evals
                    cand = _set_slice(law, name, cell, (1.0 - t) * base + t * target)
                    value, rep = score(cand)
                    evals += 1
                    pts.append((value, cand, rep))
                    return value

                for t in (0.0, 0.5, 1.0):
                    probe(t)
                lo, hi = 0.0, 1.0
                a = hi - phi * (hi - lo)
                b = lo + phi * (hi - lo)
                va = probe(a)
                vb = probe(b)
                for _ in range(28):
                    if va >= vb:
                        hi, b, vb = b, a, va
                        a = hi - phi * (hi - lo)
                        va = probe(a)
                    else:
                        lo, a, va = a, b, vb
                        b = lo + phi * (hi - lo)
                        vb = probe(b)
                value, cand, rep = max(pts, key=lambda p: p[0])
                if value > best:
                    law, best, report = cand, value, rep
                    base = _get_slice(law, name, cell)
        if best == -math.inf or best - sweep_start <= cfg.tolerance:
            break
    return law, report, best, evals


def local_refine(law, channel: NetworkChannel, theorem: str, cfg: SearchConfig):
    """Polish a law in place on its simplex slices; never returns a worse one."""
    refined, _, _, _ = _refine(law, channel, theorem, cfg)
    return refined


def _optimize(theorem: str, channel: NetworkChannel, cfg: SearchConfig) -> OptResult:
    score = _scorer(theorem, channel)
    family = LAW_FAMILIES[theorem]
    sizes = {"V1": cfg.v1_size, "V2": cfg.v2_size, "Yh1": cfg.yh1_size, "Yh2": cfg.yh2_size}

    if cfg.mode == "grid":
        start = uniform_law(family, channel, sizes)
        law, report, best, evals, trace = _grid_search(channel, start, score, cfg)
        if best == -math.inf:
            return OptResult(theorem, law, report, evals, (), True)
        return OptResult(theorem, law, report, evals, tuple(trace), False)

    # random-restart: refine each seeded draw independently, merge by value
    # with ties to the lower index
    starts = (
        random_law(family, np.random.default_rng([cfg.seed, i]), channel, sizes)
        for i in range(max(cfg.restarts, 1))
    )
    outcomes = [_refine(law, channel, theorem, cfg) for law in starts]

    best_i = max(range(len(outcomes)), key=lambda i: (outcomes[i][2], -i))
    law, report, best, _ = outcomes[best_i]
    evals = sum(o[3] for o in outcomes)
    trace = []
    incumbent = -math.inf
    for _, _, value, _ in outcomes:
        if value > incumbent:
            incumbent = value
        if incumbent != -math.inf:
            trace.append(incumbent)
    if best == -math.inf:
        return OptResult(theorem, law, report, evals, (), True)
    return OptResult(theorem, law, report, evals, tuple(trace), False)


def optimize_t1(channel: NetworkChannel, cfg: SearchConfig, jobs: int = 1) -> OptResult:
    """Best first-theorem law found for this channel; ``jobs`` is unused, runs are serial."""
    return _optimize("t1", channel, cfg)


def optimize_t2(channel: NetworkChannel, cfg: SearchConfig, jobs: int = 1) -> OptResult:
    """Best second-theorem law found for this channel; ``jobs`` is unused, runs are serial."""
    return _optimize("t2", channel, cfg)
