"""Derivative-free maximization of the two achievable rates over a channel.

Both laws factor into conditional-pmf components, and every conditioning cell
of every component is an independent point on a probability simplex.  Both
search modes run one loop on those slices, cyclic coordinate ascent
(``_ascend``): each sweep walks the slices in declaration order and tries
each slice's moves in turn, and sweeps repeat until one gains at most the
configured tolerance.  The modes differ only in their moves:

grid
    one move per slice: every composition of ``resolution`` over its
    alphabet, with the first maximum winning.  The per-slice enumeration is
    exact and the sweep deterministic; the full product grid across slices
    would be exponential in the slice count.  A grid with more than
    ``MAX_GRID_VECTORS`` compositions in some slice is refused before any
    evaluation.  The search starts from the uniform law.
random-restart
    one move per simplex vertex: a golden-section line search along the
    segment from the slice's current point toward that vertex (this is
    ``local_refine``).  Seeded random laws are each refined, then merged by
    best value with ties broken toward the lower restart index.

Scoring.  The joint is linear in each factor row, so while one slice moves,
every marginal the rate terms need is a mix of the marginals at the slice's
k simplex vertices.  Each slice assembles those k joints once; a grid then
scores all its compositions as one matrix product and one entropy pass, and
each line-search probe costs one entropy pass, with no law built.  Only a
move's best candidate becomes a law, evaluated in full by
``eval_theorem1``/``eval_theorem2``; it replaces the incumbent only when
that full evaluation beats it, so the reported objective, report and trace
are full evaluations.  ``evaluations`` counts scored candidates, and ties go
to the first candidate in scan order.

Infeasible laws score minus infinity (``_merit``, shared by both scorers)
under the first theorem, whose constraints gate achievability outright.  The
second theorem's evaluator clamps its decode-and-forward rates instead, so
infeasibility there is rarer but treated the same way when it happens.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import io
from .prob import (
    LAW_FAMILIES,
    InvariantError,
    NetworkChannel,
    ResourceLimitError,
    T1Law,
    T2Law,
    ValidationError,
    assemble_joint,
    random_law,
    uniform_law,
)
from .rates import THEOREMS, RateReport, eval_theorem1, eval_theorem2, term_plan

MODES = ("grid", "random-restart")

# grid candidates of one slice, comb(resolution + k - 1, k - 1); the largest
# grid in use (resolution 32 over two letters) has 33
MAX_GRID_VECTORS = 10**6
# marginal cells per scoring batch: bounds the (batch, cells) temporaries
_BATCH_CELLS = 1 << 18


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
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} < 0")
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


@functools.lru_cache(maxsize=32)
def _grid_vectors(k: int, resolution: int) -> np.ndarray:
    """Every composition of ``resolution`` into ``k`` parts, scaled to the
    simplex, in ``_compositions`` order, which decides ties.  Read-only: one
    array serves every search that asks."""
    parts = itertools.chain.from_iterable(_compositions(resolution, k))
    grid = np.fromiter(parts, dtype=float, count=math.comb(resolution + k - 1, k - 1) * k)
    grid /= resolution
    grid = grid.reshape(-1, k)
    grid.setflags(write=False)
    return grid


def _check_grid(law, resolution: int) -> None:
    """Refuse a grid whose per-slice enumeration would not fit in memory."""
    for name, cell, k in _slice_index(law):
        count = math.comb(resolution + k - 1, k - 1)
        if count > MAX_GRID_VECTORS:
            raise ResourceLimitError(
                f"grid slice {name}{list(cell)} with k={k} letters has {count} candidates "
                f"at resolution {resolution}, above the cap of {MAX_GRID_VECTORS}"
            )


def _slice_marginals(channel: NetworkChannel, law, queries, name: str, cell, k: int):
    """The term plan of ``queries`` on the law's joint, and the marginal
    stacks of the joints at the k vertices of one slice's simplex.

    The joint is linear in each factor row, so with the slice at ``w`` (a
    point of the simplex) every subset marginal is ``w @ V`` for the
    returned ``(k, cells)`` stack V: along the segment from a point ``base``
    to a vertex they are ``(1 - t) * m_base + t * m_vertex``.  The vertex
    joints are assembled one at a time, so no more than one is held.
    """
    stack = []
    for vertex in np.eye(k):
        joint = assemble_joint(channel, _set_slice(law, name, cell, vertex))
        plan = term_plan(queries, joint)
        stack.append(plan.marginals(joint.mass))
    return plan, np.stack(stack)


def _merit(feasible, objective):
    """The score the search maximizes: the objective where the existence
    conditions hold, minus infinity elsewhere (elementwise on batches)."""
    return np.where(feasible, objective, -math.inf)


def _slice_scorer(channel: NetworkChannel, law, theorem: str, name: str, cell, k: int):
    """Score candidate vectors of one slice without building their laws.

    The returned function maps one vector (to a float) or a ``(B, k)`` batch
    (to an array) to its :func:`_merit`: one entropy pass over ``w @ V``
    (see :func:`_slice_marginals`) and one :class:`tworelay.rates.Outcome`
    per batch of ``_BATCH_CELLS`` cells.
    """
    queries, outcome = THEOREMS[theorem].queries, THEOREMS[theorem].outcome
    plan, vertices = _slice_marginals(channel, law, queries, name, cell, k)
    rows = max(1, _BATCH_CELLS // vertices.shape[1])

    def value(w: np.ndarray):
        terms = plan.terms(w @ vertices)
        result = outcome(dict(zip(plan.names, terms.tolist() if w.ndim == 1 else terms.T)))
        return _merit(result.feasible, result.objective)

    def values(w: np.ndarray):
        if w.ndim == 1:
            return float(value(w))
        return np.concatenate([value(w[i:i + rows]) for i in range(0, len(w), rows)])

    return values


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# A move maps (slice scorer, current slice point) to (candidate, its value,
# candidates scored); the ascent asks for a slice's moves by alphabet size.
Move = Callable[[Callable, np.ndarray], tuple[np.ndarray, float, int]]

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _grid_move(grid: np.ndarray, slice_value, point):
    """Every grid vector of the slice, scored in one call."""
    values = slice_value(grid)
    i = int(np.argmax(values))  # the first maximum, as a sequential scan keeps
    return grid[i], values[i], len(grid)


def _line_move(vertex: int, slice_value, base):
    """A golden-section scan of the segment from ``base`` toward one vertex.

    The scan assumes nothing about shape: every probe competes, so a
    non-unimodal section simply refines less.  33 probes.
    """
    target = np.zeros(len(base))
    target[vertex] = 1.0
    pts = []  # (value, mixing weight)

    def probe(t: float):
        value = slice_value((1.0 - t) * base + t * target)
        pts.append((value, t))
        return value

    for t in (0.0, 0.5, 1.0):
        probe(t)
    lo, hi, a, b = 0.0, 1.0, 1.0 - _PHI, _PHI
    va, vb = probe(a), probe(b)
    for _ in range(28):
        if va >= vb:
            hi, b, vb = b, a, va
            a = hi - _PHI * (hi - lo)
            va = probe(a)
        else:
            lo, a, va = a, b, vb
            b = lo + _PHI * (hi - lo)
            vb = probe(b)
    value, t = max(pts, key=lambda p: p[0])
    return (1.0 - t) * base + t * target, value, len(pts)


def _grid_moves(resolution: int, k: int) -> list[Move]:
    return [functools.partial(_grid_move, _grid_vectors(k, resolution))]


def _line_moves(k: int) -> list[Move]:
    return [functools.partial(_line_move, vertex) for vertex in range(k)]


def _ascend(law, channel: NetworkChannel, theorem: str, cfg: SearchConfig,
            moves: Callable[[int], list[Move]]):
    """Cyclic coordinate ascent over the law's slices.  Never worsens.

    Each sweep walks the slices in declaration order, builds a slice's
    scorer once and tries its moves in order on the current slice point.  A
    candidate that beats the incumbent is built and evaluated in full, and
    kept only if that evaluation also wins.  Sweeps stop after ``max_iter``,
    or once one gains at most ``tolerance``.  Returns the law, its report
    and value, the candidates scored, and the value after each acceptance.
    """
    evaluate = {"t1": eval_theorem1, "t2": eval_theorem2}[theorem]

    def score(law):
        report = evaluate(channel, law)
        return float(_merit(report.feasible, report.objective_bits)), report

    best, report = score(law)
    evals = 1
    trace = [] if best == -math.inf else [best]
    for _ in range(cfg.max_iter):
        sweep_start = best
        for name, cell, k in _slice_index(law):
            if k == 1:
                continue
            slice_value = _slice_scorer(channel, law, theorem, name, cell, k)
            for move in moves(k):
                vec, value, count = move(slice_value, _get_slice(law, name, cell))
                evals += count
                if value > best:
                    cand = _set_slice(law, name, cell, vec)
                    value, rep = score(cand)
                    if value > best:
                        law, best, report = cand, value, rep
                        trace.append(best)
        if best == -math.inf or best - sweep_start <= cfg.tolerance:
            break
    return law, report, best, evals, trace


def local_refine(law, channel: NetworkChannel, theorem: str, cfg: SearchConfig):
    """Polish a law by line searches toward its slices' simplex vertices;
    never returns a worse one."""
    return _ascend(law, channel, theorem, cfg, _line_moves)[0]


def _optimize(theorem: str, channel: NetworkChannel, cfg: SearchConfig) -> OptResult:
    family = LAW_FAMILIES[theorem]
    sizes = {"V1": cfg.v1_size, "V2": cfg.v2_size, "Yh1": cfg.yh1_size, "Yh2": cfg.yh2_size}
    if cfg.mode == "grid":
        starts = [uniform_law(family, channel, sizes)]
        _check_grid(starts[0], cfg.resolution)
        moves = functools.partial(_grid_moves, cfg.resolution)
    else:
        starts = (
            random_law(family, np.random.default_rng([cfg.seed, i]), channel, sizes)
            for i in range(max(cfg.restarts, 1))
        )
        moves = _line_moves
    runs = [_ascend(law, channel, theorem, cfg, moves) for law in starts]
    # a grid traces its one ascent; restarts trace their running best and
    # merge by value, ties to the lower index
    if cfg.mode == "grid":
        trace = runs[0][4]
    else:
        trace = [v for v in itertools.accumulate((r[2] for r in runs), max) if v != -math.inf]
    law, report, best, _, _ = max(runs, key=lambda r: r[2])
    evals = sum(r[3] for r in runs)
    return OptResult(theorem, law, report, evals, tuple(trace), best == -math.inf)


def optimize_t1(channel: NetworkChannel, cfg: SearchConfig, jobs: int = 1) -> OptResult:
    """Best first-theorem law found for this channel; ``jobs`` is unused, runs are serial."""
    return _optimize("t1", channel, cfg)


def optimize_t2(channel: NetworkChannel, cfg: SearchConfig, jobs: int = 1) -> OptResult:
    """Best second-theorem law found for this channel; ``jobs`` is unused, runs are serial."""
    return _optimize("t2", channel, cfg)
