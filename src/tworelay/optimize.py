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
    one move per simplex vertex: a line search along the segment from the
    slice's current point toward that vertex, 17 evenly spaced points and
    then 16 inside the bracket of the best of them.  Each seeded random law
    starts its own ascent, and the results merge by best value with ties
    broken toward the lower restart index.

Scoring.  The joint is linear in each factor row, so while one slice moves,
every marginal the rate terms need is a mix of the marginals at the slice's
k simplex vertices.  Only the slab of the joint where the factor's given
variables equal the slice's cell depends on the row, so the ascent keeps
the incumbent's marginals and each slice swaps in its slab's marginals at
the k vertices, from one product for that slab.  Every move then scores
its candidates in batches, as matrix products and entropy passes with no
law built: a grid in one call, a line search in two.  Only a move's best
candidate becomes a law, and only when its batch score beats the
incumbent: its joint is assembled once and its own marginal stack scored
in full.  It replaces the incumbent, stack and all, only when that full
score wins, so the objective and trace are full scores.  One function,
``_merits``, scores both: it runs the theorem's term plan and outcome rows,
the steps ``eval_theorem1``/``eval_theorem2`` run, on a batch or on one
law's stack, so a full score equals the merit of the evaluator's report.
The one report of a search is that evaluator's, for the returned law.
``evaluations`` counts scored candidates, and ties go to the first
candidate in scan order.

Infeasible laws score minus infinity (``_merit``) under the first theorem,
whose constraints gate achievability outright.  The second theorem's
evaluator clamps its decode-and-forward rates instead, so infeasibility
there is rarer but treated the same way when it happens.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import io
from .info import slab_cells, term_plan
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
    slice_slab,
    uniform_law,
)
from .rates import THEOREMS, RateReport, eval_theorem1, eval_theorem2

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


@functools.lru_cache(maxsize=32)
def _grid_vectors(k: int, resolution: int) -> np.ndarray:
    """Every composition of ``resolution`` into ``k`` parts, scaled to the
    simplex, in lexicographic order, which decides ties.  Read-only: one
    array serves every search that asks.  Stars and bars: the parts are the
    gaps between k - 1 bars placed among ``resolution + k - 1`` slots."""
    slots = resolution + k - 1
    count = math.comb(slots, k - 1)
    bars = itertools.chain.from_iterable(itertools.combinations(range(slots), k - 1))
    bars = np.fromiter(bars, dtype=np.intp, count=count * (k - 1)).reshape(count, k - 1)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, slots)))
    grid = (np.diff(edges, axis=1) - 1) / resolution
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


def _slice_marginals(channel: NetworkChannel, law, plan, current, name: str, cell, k: int):
    """The marginal stacks of the joints at the k vertices of one slice's
    simplex, built from the law's own stack ``current`` (of ``plan``).

    The joint is linear in each factor row, so with the slice at ``w`` (a
    point of the simplex) every subset marginal is ``w @ V`` for the
    returned ``(k, cells)`` stack V: along the segment from a point ``base``
    to a vertex they are ``(1 - t) * m_base + t * m_vertex``.  Only the slab
    of the joint where the factor's given variables equal ``cell`` depends
    on the row, so vertex v's stack is ``current`` with the law's slab
    marginals swapped for those of the slab at v, from one product for
    the slab (:func:`tworelay.prob.slice_slab`); no law is built.
    """
    pmf = getattr(law, name)
    letters = np.unravel_index(np.arange(k), tuple(a.size for a in pmf.target))
    at = np.column_stack([np.full(k, c) for c in cell] + list(letters))
    cells = slab_cells(plan, tuple(a.id for a in pmf.given + pmf.target), at)
    stack = np.zeros((k, current.size))
    np.put_along_axis(stack, cells, plan.marginals(slice_slab(channel, law, name, cell)), axis=1)
    stack += current - _get_slice(law, name, cell) @ stack
    return stack


def _merit(feasible, objective):
    """The score the search maximizes: the objective where the existence
    conditions hold, minus infinity elsewhere (elementwise on batches)."""
    return np.where(feasible, objective, -math.inf)


def _merits(theorem: str, plan, stack: np.ndarray) -> np.ndarray:
    """The search's one scorer: the :func:`_merit` of a marginal stack of
    ``plan``, from its terms and the theorem's outcome rows, the steps that
    ``eval_theorem1``/``eval_theorem2`` run.  A law's own ``(cells,)`` stack
    gives a 0-d array, the merit of its evaluator's report; a
    ``(B, cells)`` batch gives ``(B,)``."""
    result = THEOREMS[theorem].outcome(dict(zip(plan.names, plan.terms(stack).T)))
    return _merit(result.feasible, result.objective)


def _slice_scorer(theorem: str, plan, vertices: np.ndarray):
    """Score a ``(B, k)`` batch of one slice's candidate vectors without
    building their laws: :func:`_merits` of ``w @ vertices`` (see
    :func:`_slice_marginals`), in batches of at most ``_BATCH_CELLS`` cells.
    """
    rows = max(1, _BATCH_CELLS // vertices.shape[1])
    return lambda w: np.concatenate(
        [_merits(theorem, plan, w[i:i + rows] @ vertices) for i in range(0, len(w), rows)]
    )


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# A move maps (slice scorer, current slice point) to (candidate, its value,
# candidates scored), scoring its candidates in batches; the ascent asks for
# a slice's moves by alphabet size.
Move = Callable[[Callable, np.ndarray], tuple[np.ndarray, float, int]]

# line-move mixing weights: the segment, t = 0 (the current point) first
_LINE_POINTS = np.linspace(0.0, 1.0, 17)


def _grid_move(grid: np.ndarray, slice_value, point):
    """Every grid vector of the slice, scored in one call."""
    values = slice_value(grid)
    i = int(np.argmax(values))  # the first maximum, as a sequential scan keeps
    return grid[i], values[i], len(grid)


def _line_move(vertex: int, slice_value, base):
    """The segment from ``base`` toward one vertex, in two scorer calls.

    The first scores 17 evenly spaced points, ``base`` first; the second 16
    points inside the bracket of the first maximum's neighbours.  The best
    of the 33 wins, ties going to the first point scanned, so a move never
    returns less than ``base``'s value.  Nothing is assumed about shape.
    """
    target = np.zeros(len(base))
    target[vertex] = 1.0
    segment = lambda t: (1.0 - t)[:, None] * base + t[:, None] * target
    first = segment(_LINE_POINTS)
    values = slice_value(first)
    i = int(np.argmax(values))
    lo, hi = _LINE_POINTS[max(i - 1, 0)], _LINE_POINTS[min(i + 1, len(_LINE_POINTS) - 1)]
    second = segment(np.linspace(lo, hi, 18)[1:-1])
    points = np.vstack([first, second])
    values = np.concatenate([values, slice_value(second)])
    i = int(np.argmax(values))
    return points[i], float(values[i]), len(points)


def _grid_moves(resolution: int, k: int) -> list[Move]:
    return [functools.partial(_grid_move, _grid_vectors(k, resolution))]


def _line_moves(k: int) -> list[Move]:
    return [functools.partial(_line_move, vertex) for vertex in range(k)]


def _ascend(law, channel: NetworkChannel, theorem: str, cfg: SearchConfig,
            moves: Callable[[int], list[Move]]):
    """Cyclic coordinate ascent over the law's slices.  Never worsens.

    Each sweep walks the slices in declaration order, builds a slice's
    scorer once and tries its moves in order on the current slice point.  A
    candidate that beats the incumbent in its batch is assembled once and
    its own marginal stack scored by :func:`_merits`, unless it is the
    current point, whose batch score can beat the incumbent only by
    rounding; it is kept, with that stack, only if this full score also
    wins.  Sweeps stop after ``max_iter``, or once one gains at most
    ``tolerance``.  Returns the law, its value, the candidates scored, and
    the value after each acceptance.
    """
    joint = assemble_joint(channel, law)
    plan = term_plan(THEOREMS[theorem].queries, joint.ids, joint.mass.shape)
    current = plan.marginals(joint.mass)  # the incumbent's marginal stack
    best = float(_merits(theorem, plan, current))
    evals = 1
    trace = [] if best == -math.inf else [best]
    for _ in range(cfg.max_iter):
        sweep_start = best
        for name, cell, k in _slice_index(law):
            if k == 1:
                continue
            vertices = _slice_marginals(channel, law, plan, current, name, cell, k)
            slice_value = _slice_scorer(theorem, plan, vertices)
            for move in moves(k):
                point = _get_slice(law, name, cell)
                vec, value, count = move(slice_value, point)
                evals += count
                if value > best and not np.array_equal(vec, point):
                    cand = _set_slice(law, name, cell, vec)
                    stack = plan.marginals(assemble_joint(channel, cand).mass)
                    value = float(_merits(theorem, plan, stack))
                    if value > best:
                        law, best, current = cand, value, stack
                        trace.append(best)
        if best == -math.inf or best - sweep_start <= cfg.tolerance:
            break
    return law, best, evals, trace


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
        trace = runs[0][3]
    else:
        trace = [v for v in itertools.accumulate((r[1] for r in runs), max) if v != -math.inf]
    law, best, _, _ = max(runs, key=lambda r: r[1])
    evals = sum(r[2] for r in runs)
    report = {"t1": eval_theorem1, "t2": eval_theorem2}[theorem](channel, law)
    return OptResult(theorem, law, report, evals, tuple(trace), best == -math.inf)


def optimize_t1(channel: NetworkChannel, cfg: SearchConfig, jobs: int = 1) -> OptResult:
    """Best first-theorem law found for this channel; ``jobs`` is unused, runs are serial."""
    return _optimize("t1", channel, cfg)


def optimize_t2(channel: NetworkChannel, cfg: SearchConfig, jobs: int = 1) -> OptResult:
    """Best second-theorem law found for this channel; ``jobs`` is unused, runs are serial."""
    return _optimize("t2", channel, cfg)
