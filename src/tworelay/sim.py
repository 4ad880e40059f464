"""Toy-scale Monte Carlo run of the feedback compress-and-forward scheme.

One trial transmits B-1 messages over B blocks.  Within a block each relay
covers its observation with a quantization codeword; the sender, which saw
the relay observations through feedback, decodes the chosen pair; the next
block carries the bin indices of that pair on the relay inputs.  The
receiver runs four decoding steps per message: the bin pair, the two
bin-and-ambiguity-list intersections, and the message itself.

Every typicality decision (relay covering, the sender's pair search, the
receiver's steps and both covering paths) compares cell counts with the
integer windows of ``_count_windows``, the one place the test ``abs(k/n -
p) <= eps*p`` is evaluated; each caller builds its windows once per run.

Every random symbol (codebooks, channel outputs, the covering experiment's
pairs and books) is drawn by one inverse-CDF rule, in ``_lookup``: position
k takes the k-th uniform and the cdf row its cell selects, as one
``rng.choice(targets, p=row)`` call per position would.  ``_draw`` is the one
sampler; a joint pmf is drawn as the conditional of its axes given nothing.
Each caller builds a pmf's cdf table (``_table``) once and draws from it.

Error accounting is first-failure-per-message: the seven stages are checked
in pipeline order with ground-truth inputs (a failed stage does not corrupt
the later blocks), so every failure is attributed to exactly one stage.

``run_cf`` advances a slice of trials in lockstep, one block at a time:
each trial draws its message index and channel uniforms from its own
seeded generator, and the channel lookup and every covering and decoding
mask are computed once per block for the whole slice.  The sender decodes
by restricted decoding, as the paper's achievability proof does (Cover and
El Gamal 1979, Thm. 7): it scores only the pairs whose two halves can
belong to a typical pair, which leaves the pair mask of a full search
unchanged bit for bit.

Codebooks are materialized, so ``SimConfig`` caps their codewords and the
symbols they and the sender's candidate pairs hold.  The covering experiment
alone also has an analytic path for books far past the cap: conditioned on
the drawn observation pair, the number of typical book entries is binomial,
so the hit probability of an astronomically large book is computable
without building it.  Each trial still draws its pair from its own seeded
generator, but a slice of trials is scored at once: one ``bincount`` gives
every trial's (x1, y1) group counts, one log-binomial expression scores every
count of every group's window, and one ``logsumexp`` reduces the windows;
both come from ``scipy.special``, imported on first use.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .io import FORMAT_VERSION
from .prob import (
    CondPmf,
    JointPmf,
    NetworkChannel,
    ResourceLimitError,
    T1Law,
    ValidationError,
    assemble_joint,
    conditional,
    marginalize,
)
from .rates import T1Rates

MAX_TOTAL_CODEWORDS = 1_000_000
# cap on codewords x n over all books, and on sender candidate pairs x n
MAX_SYMBOLS = 1 << 24

# symbols per slice in the sampler and the typicality kernel, so their
# temporaries do not grow with a book or a candidate set
_SLICE = 1 << 16

STAGES = (
    "relay1-covering",
    "relay2-covering",
    "sender-joint-covering",
    "receiver-(s1,s2)",
    "receiver-bin-intersection-1",
    "receiver-bin-intersection-2",
    "receiver-message",
)


@dataclass(frozen=True)
class TypicalityParams:
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError(f"epsilon must be in (0, 1), got {self.epsilon}")


def _cell_counts(flat: np.ndarray, size: int) -> np.ndarray:
    """Per row of (..., n) cell indices, the count of each of ``size`` cells,
    from one ``bincount`` over indices offset by the row's position."""
    rows = flat.reshape(-1, flat.shape[-1])
    offset = rows + np.arange(len(rows))[:, None] * size
    counts = np.bincount(offset.reshape(-1), minlength=len(rows) * size)
    return counts.reshape(*flat.shape[:-1], size)


def _count_windows(p: np.ndarray, n: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of ``p``, the least and greatest integer count k that passes
    the robust typicality test ``abs(k/n - p) <= eps*p``; lo > hi when none
    does, and a zero-mass cell pins [0, 0].  This is the one place the test
    is evaluated: every typicality decision compares counts with these ends.

    k/n - p rounds monotonically in k, so the passing counts form an interval.
    The closed-form ends ceil/floor(n*p*(1 -/+ eps)) and the float test's ends
    differ by a few roundings of numbers below 2, far less than one count for
    n <= MAX_SYMBOLS, so each end is off by at most one: it is corrected by
    one step with the test's own float expression.
    """
    passes = lambda k: np.abs(k / n - p) <= eps * p
    lo, hi = np.ceil(n * p * (1.0 - eps)), np.floor(n * p * (1.0 + eps))
    lo = np.where(passes(lo - 1), lo - 1, np.where(passes(lo), lo, lo + 1))
    hi = np.where(passes(hi + 1), hi + 1, np.where(passes(hi), hi, hi - 1))
    return lo.astype(np.int64), hi.astype(np.int64)


def _typical_mask(sequences, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Robust joint typicality of every candidate in a stack of sequences.

    ``sequences`` holds one integer array per joint axis, shaped ``(..., n)``;
    the leading axes broadcast to the candidate shape that the bool result
    takes.  ``lo`` and ``hi`` are the joint's ``_count_windows`` at this n,
    in its shape: a candidate is typical when every cell count lies in its
    window.  Each slice of candidates is counted with one ``bincount``; when
    all candidates fit one slice, the sequences are indexed as they
    broadcast.
    """
    seqs = [np.asarray(s) for s in sequences]
    full = np.broadcast(*seqs)
    batch, n = full.shape[:-1], full.shape[-1]
    shape, lo, hi = lo.shape, lo.reshape(-1), hi.reshape(-1)
    total = math.prod(batch)
    step = max(1, _SLICE // max(n, lo.size))
    views = [np.broadcast_to(s, full.shape) for s in seqs] if total > step else None
    mask = np.empty(total, dtype=bool)
    for start in range(0, total, step):
        stop = min(start + step, total)
        if views is None:
            flat = np.ravel_multi_index(seqs, shape).reshape(total, n)
        else:
            at = np.unravel_index(np.arange(start, stop), batch)
            flat = np.ravel_multi_index([v[at] for v in views], shape)
        counts = _cell_counts(flat, lo.size)
        mask[start:stop] = np.all((lo <= counts) & (counts <= hi), axis=1)
    return mask.reshape(batch)


def _sender_pairs(seqs, yh1: np.ndarray, yh2: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Restricted sender decoding for a slice of trials.

    ``seqs`` holds the (trials, n) X1, X2, Y1 and Y2 sequences, ``yh1`` and
    ``yh2`` the (trials, candidates, n) books, ``lo`` and ``hi`` the count
    windows of the law of (X1, X2, Y1, Y2, Yh1, Yh2).  A typical pair has
    every cell count in its window, so a half cell such as (x1, x2, y1, y2,
    yh1) has its count within the sums of the windows it adds up.  Only the
    product of each trial's z1 and z2 candidates that meet this is scored;
    every other pair is not typical.  Yields (trial, z1, z2, typical) of the
    scored pairs, a slice at a time.
    """
    n = seqs[0].shape[-1]
    base = np.ravel_multi_index(seqs, lo.shape[:4])[:, None]
    alive = []
    # a half cell (x1, x2, y1, y2, yh) sums the cells over the other book's axis
    for book, keep, other in ((yh1, 4, 5), (yh2, 5, 4)):
        low, high = lo.sum(other).reshape(-1), hi.sum(other).reshape(-1)
        half = _cell_counts(base * lo.shape[keep] + book, low.size)
        alive.append(np.all((low <= half) & (half <= high), axis=-1))
    # every z1 survivor runs through its trial's z2 survivors: pair k is in
    # the run of survivor r = searchsorted(ends, k), which starts at ends[r]
    # minus the run length, and each trial's z2 survivors start at first[t]
    trial, i = np.nonzero(alive[0])
    per_trial = np.count_nonzero(alive[1], axis=1)
    first, j = np.cumsum(per_trial) - per_trial, np.nonzero(alive[1])[1]
    ends = np.cumsum(per_trial[trial])
    total = int(ends[-1]) if len(ends) else 0
    step = max(1, _SLICE // n)
    for start in range(0, total, step):
        k = np.arange(start, min(start + step, total))
        r = np.searchsorted(ends, k, side="right")
        t = trial[r]
        pj = j[first[t] + k - (ends[r] - per_trial[t])]
        typ = _typical_mask((*(s[t] for s in seqs), yh1[t, i[r]], yh2[t, pj]), lo, hi)
        yield t, i[r], pj, typ


def typical(sequences, joint: JointPmf, params: TypicalityParams | float) -> bool:
    """Robust joint typicality of aligned symbol sequences.

    ``sequences`` holds one integer array per joint axis, in axis order.
    True iff every cell's empirical frequency is within relative deviation
    epsilon of the cell mass, and exactly zero on zero-mass cells: every
    cell count lies in its ``_count_windows`` window.
    """
    eps = params.epsilon if isinstance(params, TypicalityParams) else float(params)
    if len(sequences) != len(joint.axes):
        raise ValidationError(
            f"{len(sequences)} sequences for {len(joint.axes)} joint axes"
        )
    seqs = [np.asarray(s) for s in sequences]
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise ValidationError("sequences differ in length")
    return bool(_typical_mask([s[None] for s in seqs], *_count_windows(joint.mass, n, eps))[0])


def quantize_rate(rate: float, n: int) -> float:
    """Nearest multiple of 1/n, so the codebook size is an exact power of 2."""
    return round(rate * n) / n


def _book_size(rate: float, n: int) -> int:
    # every book size is a factor of the codeword total, so one book past the
    # cap is refused before 1 << exponent builds an arbitrarily large integer
    if rate * n >= MAX_TOTAL_CODEWORDS.bit_length():
        raise ResourceLimitError(
            f"a book of 2^{rate * n:.6g} codewords exceeds the cap of {MAX_TOTAL_CODEWORDS}"
        )
    return 1 << round(rate * n)


@dataclass(frozen=True)
class SimConfig:
    n: int
    blocks: int
    rates: T1Rates
    typicality: TypicalityParams
    trials: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"block length {self.n} < 1")
        if self.blocks < 2:
            raise ValidationError(f"need at least 2 blocks, got {self.blocks}")
        if self.trials < 1:
            raise ValidationError(f"trials {self.trials} < 1")
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} < 0")
        for name, rate in asdict(self.rates).items():
            if not math.isfinite(rate):
                raise ValidationError(f"rate {name} is {rate}, not a finite number")
            if rate < 0:
                raise ValidationError(f"rate {name} is negative")
        total = self.total_codewords()
        if total > MAX_TOTAL_CODEWORDS:
            raise ResourceLimitError(
                f"{total} codewords exceed the cap of {MAX_TOTAL_CODEWORDS}"
            )
        pairs = self.book_sizes()["z1"] * self.book_sizes()["z2"]
        if max(total, pairs) * self.n > MAX_SYMBOLS:
            raise ResourceLimitError(
                f"{total} codewords or {pairs} sender candidate pairs of length {self.n} "
                f"exceed the cap of {MAX_SYMBOLS} symbols"
            )

    def quantized_rates(self) -> T1Rates:
        return T1Rates(*(quantize_rate(r, self.n) for r in astuple(self.rates)))

    def book_sizes(self) -> dict[str, int]:
        r, n = self.rates, self.n
        return {
            "w": _book_size(r.rbar, n),
            "s1": _book_size(r.rs1, n),
            "s2": _book_size(r.rs2, n),
            "z1": _book_size(r.rh1, n),
            "z2": _book_size(r.rh2, n),
        }

    def total_codewords(self) -> int:
        s = self.book_sizes()
        return (
            s["s1"]
            + s["s2"]
            + s["w"] * s["s1"] * s["s2"]
            + s["z1"] * s["s1"]
            + s["z2"] * s["s2"]
        )


@dataclass(frozen=True)
class Codebooks:
    """Random codeword tensors, one row of length n per index tuple."""

    x1: np.ndarray  # (s1, n)
    x2: np.ndarray  # (s2, n)
    x0: np.ndarray  # (w, s1, s2, n)
    yh1: np.ndarray  # (z1, s1, n)
    yh2: np.ndarray  # (z2, s2, n)
    n: int


@dataclass(frozen=True)
class BinMaps:
    """Uniform random assignment of compression indices to relay-input cells."""

    bin1: np.ndarray  # (z1,) values in [0, s1)
    bin2: np.ndarray  # (z2,) values in [0, s2)


@dataclass(frozen=True)
class SimStats:
    stage_errors: dict[str, int]
    trials: int
    blocks_decoded: int
    n: int
    blocks: int
    quantized_rates: T1Rates

    def __post_init__(self):
        if set(self.stage_errors) != set(STAGES):
            raise ValidationError("stage_errors must cover exactly the known stages")
        if sum(self.stage_errors.values()) > self.blocks_decoded:
            raise ValidationError("more first errors than decoded blocks")

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "simulation",
            "n": self.n,
            "blocks": self.blocks,
            "trials": self.trials,
            "blocks_decoded": self.blocks_decoded,
            "quantized_rates": asdict(self.quantized_rates),
            "stage_errors": {stage: self.stage_errors[stage] for stage in STAGES},
        }

    def to_csv(self) -> str:
        head = ["n", "blocks", "trials", "blocks_decoded", *STAGES]
        row = [
            self.n,
            self.blocks,
            self.trials,
            self.blocks_decoded,
            *(self.stage_errors[stage] for stage in STAGES),
        ]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(head)
        writer.writerow(row)
        return out.getvalue()


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _table(pmf: JointPmf | CondPmf) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """The (given cells, targets) cdf table of ``pmf``, with its given and
    target shapes; a joint is the conditional of its axes given nothing, so
    its table has one row.  Every row's last entry is exactly 1."""
    g_shape = tuple(a.size for a in pmf.given)
    t_shape = tuple(a.size for a in pmf.target)
    cdf = pmf.mass.reshape(math.prod(g_shape), math.prod(t_shape)).cumsum(1)
    cdf /= cdf[:, -1:]
    return cdf, g_shape, t_shape


def _lookup(cdf: np.ndarray, cells: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup: position k takes uniform ``u[k]`` and the ``cdf``
    row its cell ``cells[k]`` selects, and draws the count of that row's
    entries at or below the uniform, as ``searchsorted(..., side="right")``
    does.  This is what one ``rng.choice(targets, p=row)`` call per position
    draws.  ``cells`` broadcasts against the uniforms, which lie in [0, 1).
    The row entries are gathered and all but the last are counted: the last,
    exactly 1, is never at or below a uniform.
    """
    rows = cdf[cells]
    drawn = np.zeros(u.shape, dtype=np.int64)
    for target in range(cdf.shape[1] - 1):
        drawn += rows[..., target] <= u
    return drawn


def _draw(rng, table, given_seqs, count: int, n: int) -> tuple[np.ndarray, ...]:
    """(count, n) draws of a pmf's target tuple, one per target axis, from
    its ``_table``.

    ``given_seqs`` holds one sequence per given axis (none for a joint),
    broadcasting against (count, n).  Uniforms are consumed codeword by
    codeword, then position by position, and each goes through ``_lookup``:
    position k takes the k-th uniform and the row its givens select, as one
    ``rng.choice`` call per position would.  A slice of codewords at a time.
    """
    cdf, g_shape, t_shape = table
    cells = np.ravel_multi_index([np.asarray(s) for s in given_seqs], g_shape)
    out = np.empty((count, n), dtype=np.int64)
    step = max(1, _SLICE // n)
    for start in range(0, count, step):
        u = rng.random((min(step, count - start), n))
        out[start : start + len(u)] = _lookup(cdf, cells, u)
    return np.unravel_index(out, t_shape)


def build(joint: JointPmf, law: T1Law, cfg: SimConfig) -> tuple[Codebooks, BinMaps]:
    """Draw every codebook and both bin maps from one seeded stream.

    ``joint`` is ``assemble_joint`` of the channel and ``law``: the
    quantization books follow the compression variable's law given the relay
    input, the exact conditional of that joint.
    """
    sizes = cfg.book_sizes()
    rng = np.random.default_rng([cfg.seed, 0])
    n = cfg.n

    (x1,) = _draw(rng, _table(law.px1), (), sizes["s1"], n)
    (x2,) = _draw(rng, _table(law.px2), (), sizes["s2"], n)

    x0 = np.empty((sizes["w"], sizes["s1"], sizes["s2"], n), dtype=np.int64)
    x0_table = _table(law.px0_given_x1x2)
    for s1 in range(sizes["s1"]):
        for s2 in range(sizes["s2"]):
            (x0[:, s1, s2],) = _draw(rng, x0_table, (x1[s1], x2[s2]), sizes["w"], n)

    yh1_table = _table(conditional(joint, ("Yh1",), ("X1",)))
    yh2_table = _table(conditional(joint, ("Yh2",), ("X2",)))
    yh1 = np.empty((sizes["z1"], sizes["s1"], n), dtype=np.int64)
    for s1 in range(sizes["s1"]):
        (yh1[:, s1],) = _draw(rng, yh1_table, (x1[s1],), sizes["z1"], n)
    yh2 = np.empty((sizes["z2"], sizes["s2"], n), dtype=np.int64)
    for s2 in range(sizes["s2"]):
        (yh2[:, s2],) = _draw(rng, yh2_table, (x2[s2],), sizes["z2"], n)

    bins = BinMaps(
        bin1=rng.integers(0, sizes["s1"], size=sizes["z1"]),
        bin2=rng.integers(0, sizes["s2"], size=sizes["z2"]),
    )
    return Codebooks(x1, x2, x0, yh1, yh2, n), bins


# ---------------------------------------------------------------------------
# the block-Markov run
# ---------------------------------------------------------------------------


def _only(mask: np.ndarray, *index) -> np.ndarray:
    """Per trial (the leading axis of ``mask``), True when ``index`` is the
    one typical candidate; ties are errors."""
    flat = mask.reshape(len(mask), -1)
    at = flat[np.arange(len(flat)), np.ravel_multi_index(index, mask.shape[1:])]
    return at & (np.count_nonzero(flat, axis=1) == 1)


def run_cf(channel: NetworkChannel, law: T1Law, cfg: SimConfig) -> SimStats:
    """Run ``cfg.trials`` trials, a slice at a time in lockstep.  A covering
    miss is its trial's first failure, so the placeholder index it carries
    into the later stages never decides a count."""
    joint = assemble_joint(channel, law)
    books, bins = build(joint, law, cfg)
    eps, n = cfg.typicality.epsilon, cfg.n

    # each stage's count windows, (lo, hi) in the shape of its marginal
    windows = lambda *names: _count_windows(marginalize(joint, names).mass, n, eps)
    w_cover1 = windows("X1", "Y1", "Yh1")
    w_cover2 = windows("X2", "Y2", "Yh2")
    w_sender = windows("X1", "X2", "Y1", "Y2", "Yh1", "Yh2")
    w_pair = windows("X1", "X2", "Y0")
    w_list1 = windows("X1", "Y0", "Yh1")
    w_list2 = windows("X2", "Y0", "Yh2")
    w_msg = windows("X0", "X1", "X2", "Y0", "Yh1", "Yh2")

    cdf, g_shape, t_shape = _table(channel.transition)
    # per-cell views of the books, indexed by each trial's relay cells
    x0_by_cell = books.x0.transpose(1, 2, 0, 3)
    yh1_by_cell, yh2_by_cell = books.yh1.swapaxes(0, 1), books.yh2.swapaxes(0, 1)

    sizes = cfg.book_sizes()
    # a trial's candidates times their cells or symbols bound each slice
    widest = max(sizes["w"], sizes["z1"], sizes["z2"], sizes["s1"] * sizes["s2"], cdf.shape[1])
    step = max(1, _SLICE // (widest * max(n, w_sender[0].size)))
    counts = np.zeros(len(STAGES), dtype=np.int64)

    def transmit(rngs, s1, s2, last):
        # the last block's message is a placeholder: only B-1 are decodable
        w = np.zeros(len(rngs), dtype=np.int64)
        u = np.empty((len(rngs), n))
        for k, rng in enumerate(rngs):
            if not last:
                w[k] = rng.integers(0, sizes["w"])
            u[k] = rng.random(n)
        x0, x1, x2 = x0_by_cell[s1, s2, w], books.x1[s1], books.x2[s2]
        cells = np.ravel_multi_index((x0, x1, x2), g_shape)
        y0, y1, y2 = np.unravel_index(_lookup(cdf, cells, u), t_shape)
        yh1, yh2 = yh1_by_cell[s1], yh2_by_cell[s2]
        cover1 = _typical_mask((x1[:, None], y1[:, None], yh1), *w_cover1)
        cover2 = _typical_mask((x2[:, None], y2[:, None], yh2), *w_cover2)
        return dict(w=w, s1=s1, s2=s2, x1=x1, x2=x2, y0=y0, y1=y1, y2=y2, yh1=yh1, yh2=yh2,
                    hit1=cover1.any(1), hit2=cover2.any(1),
                    z1=cover1.argmax(1), z2=cover2.argmax(1))

    def decode(cur, nxt):
        # stage results in STAGES order; a trial's first failure is its stage
        trials = np.arange(len(cur["w"]))
        # per trial: typical pairs, and whether the relays' own pair is one
        typical_pairs = np.zeros(len(trials), dtype=np.int64)
        own = np.zeros(len(trials), dtype=bool)
        for t, i, j, typ in _sender_pairs(
            (cur["x1"], cur["x2"], cur["y1"], cur["y2"]), cur["yh1"], cur["yh2"], *w_sender
        ):
            typical_pairs += np.bincount(t[typ], minlength=len(trials))
            own[t[typ & (i == cur["z1"][t]) & (j == cur["z2"][t])]] = True
        cells = _typical_mask((books.x1[:, None], books.x2, nxt["y0"][:, None, None]), *w_pair)
        hits1 = _typical_mask((cur["x1"][:, None], cur["y0"][:, None], cur["yh1"]), *w_list1)
        hits2 = _typical_mask((cur["x2"][:, None], cur["y0"][:, None], cur["yh2"]), *w_list2)
        messages = _typical_mask(
            (x0_by_cell[cur["s1"], cur["s2"]], cur["x1"][:, None], cur["x2"][:, None],
             cur["y0"][:, None], cur["yh1"][trials, cur["z1"]][:, None],
             cur["yh2"][trials, cur["z2"]][:, None]),
            *w_msg,
        )
        passed = np.stack([
            cur["hit1"],
            cur["hit2"],
            own & (typical_pairs == 1),
            _only(cells, nxt["s1"], nxt["s2"]),
            _only(hits1 & (bins.bin1 == nxt["s1"][:, None]), cur["z1"]),
            _only(hits2 & (bins.bin2 == nxt["s2"][:, None]), cur["z2"]),
            _only(messages, cur["w"]),
        ])
        failed = ~passed.all(0)
        return np.bincount((~passed).argmax(0)[failed], minlength=len(STAGES))

    for start in range(0, cfg.trials, step):
        rngs = [np.random.default_rng([cfg.seed, 1, trial])
                for trial in range(start, min(start + step, cfg.trials))]
        s1 = s2 = np.zeros(len(rngs), dtype=np.int64)
        prev = None
        for b in range(cfg.blocks):
            cur = transmit(rngs, s1, s2, last=b == cfg.blocks - 1)
            if prev is not None:
                counts += decode(prev, cur)
            # ground-truth carryover; a covering miss forwards cell 0
            s1 = np.where(cur["hit1"], bins.bin1[cur["z1"]], 0)
            s2 = np.where(cur["hit2"], bins.bin2[cur["z2"]], 0)
            prev = cur

    decoded = cfg.trials * (cfg.blocks - 1)
    stage_errors = dict(zip(STAGES, counts.tolist()))
    return SimStats(
        stage_errors, cfg.trials, decoded, cfg.n, cfg.blocks, cfg.quantized_rates()
    )


# ---------------------------------------------------------------------------
# covering experiment
# ---------------------------------------------------------------------------

COVERING_EPSILON = 0.15

# books at most this large are searched entry by entry; beyond it a binary
# quantization alphabet switches to the closed-form hit probability
SMALL_BOOK_CUTOFF = 4096


def _log_hit_probability(x1, y1, p_book: CondPmf, p_triple: JointPmf, eps: float) -> np.ndarray:
    """Per row of (trials, n) relay-input/observation stacks, the log
    probability that one book entry is jointly typical with that pair.

    The entry is drawn i.i.d. from the book law given the relay input, so
    within each (x1, y1) position group the count landing on quantization
    letter 0 is binomial, the letter-1 count is its complement, and the
    groups are independent.  Every (trial, group) window of letter-0 counts
    that keep both of the group's cells in their ``_count_windows`` is
    scored at once per slice of trials, padded to the widest window with
    -inf, by ``binom.logpmf``'s own formula from ``scipy.special``; every
    count lies in its support, so the values are ``binom.logpmf``'s bit for
    bit.  Binary quantization alphabets only.
    """
    from scipy.special import gammaln, logsumexp, xlog1py, xlogy
    trials, n = x1.shape
    k1, ky, kq = (axis.size for axis in p_triple.axes)
    if kq != 2:
        raise ResourceLimitError(
            "analytic covering path needs a binary quantization alphabet"
        )
    groups = k1 * ky
    lo, hi = _count_windows(p_triple.mass.reshape(groups, kq), n, eps)
    p_hit = np.repeat(p_book.mass.reshape(k1, kq)[:, 0], ky)
    count = _cell_counts(np.ravel_multi_index((x1, y1), (k1, ky)), groups)
    # the letter-1 count is the group count minus the letter-0 count
    lo, hi = np.maximum(lo[:, 0], count - hi[:, 1]), np.minimum(hi[:, 0], count - lo[:, 1])
    width = max(int((hi - lo).max()) + 1, 1)
    log_q = np.empty(trials)
    step = max(1, _SLICE // (groups * width))
    for start in range(0, trials, step):
        rows = slice(start, start + step)
        k = lo[rows, :, None] + np.arange(width)
        inside = k <= hi[rows, :, None]
        m, p = (np.broadcast_to(a, k.shape)[inside] for a in (count[rows, :, None], p_hit[:, None]))
        logs = np.full(k.shape, -np.inf)
        k = k[inside].astype(np.float64)
        logs[inside] = (gammaln(m + 1) - (gammaln(k + 1) + gammaln(m - k + 1))
                        + xlogy(k, p) + xlog1py(m - k, -p))
        log_q[rows] = logsumexp(logs, axis=-1).sum(axis=-1)
    return log_q


def _hit_probability(log_q: float, exponent: int) -> float:
    """1 - (1 - q)^M for a book of M = 2^exponent entries, q = exp(log_q).

    q is often far below float range, so past the direct form this goes
    through the Poisson form in ln(M*q).  q >= 1 (every entry typical, or a
    sum rounded just above 0) is a certain hit.
    """
    ln_mean = exponent * math.log(2.0) + log_q
    if log_q >= 0.0 or ln_mean > 36.0:
        return 1.0
    if log_q > -30.0 and exponent < 50:
        return -math.expm1((1 << exponent) * math.log1p(-math.exp(log_q)))
    return -math.expm1(-math.exp(ln_mean))


def covering_experiment(
    law: T1Law,
    channel: NetworkChannel,
    rh1: float,
    n: int,
    trials: int,
    seed: int,
    epsilon: float = COVERING_EPSILON,
) -> float:
    """Fraction of trials where the quantization book covers the observation.

    Each trial draws a fresh relay-input/observation pair and a fresh book
    of 2^round(n*rh1) entries (rate quantized to 1/n).  Books small enough
    to materialize are searched literally; larger ones use the exact
    binomial form of the at-least-one-typical-entry probability, so the
    threshold is testable at rates whose books could never be built.  The
    analytic path scores a slice of trials at a time; each trial keeps its
    own seeded draws, the pair and then one uniform.
    """
    if n < 1:
        raise ValidationError(f"block length {n} < 1")
    if n > MAX_SYMBOLS:
        raise ResourceLimitError(
            f"block length {n} exceeds the cap of {MAX_SYMBOLS} symbols"
        )
    if trials < 1:
        raise ValidationError(f"trials {trials} < 1")
    if seed < 0:
        raise ValidationError(f"seed {seed} < 0")
    if not math.isfinite(rh1):
        raise ValidationError(f"rate {rh1} is not a finite number")
    if rh1 < 0:
        raise ValidationError(f"negative rate {rh1}")
    if not math.isfinite(rh1 * n):
        raise ValidationError(f"rate {rh1} at block length {n} overflows the book exponent")
    eps = TypicalityParams(epsilon).epsilon
    joint = assemble_joint(channel, law)
    p_pair = marginalize(joint, ("X1", "Y1"))
    p_triple = marginalize(joint, ("X1", "Y1", "Yh1"))
    p_book = conditional(joint, ("Yh1",), ("X1",))
    # compare exponents, so a huge book never becomes a huge integer:
    # 2^e <= c exactly when e < c.bit_length()
    exponent = round(rh1 * n)
    binary_book = p_triple.axes[-1].size == 2
    literal = exponent < SMALL_BOOK_CUTOFF.bit_length() or not binary_book
    if literal and exponent >= MAX_TOTAL_CODEWORDS.bit_length():
        raise ResourceLimitError(
            f"book of 2^{exponent} codewords exceeds the cap of {MAX_TOTAL_CODEWORDS} "
            "and no analytic path exists for this quantization alphabet"
        )

    successes, pair_table = 0, _table(p_pair)
    if literal:
        window = _count_windows(p_triple.mass, n, eps)
        book_table = _table(p_book)
        for trial in range(trials):
            rng = np.random.default_rng([seed, trial])
            x1_seq, y1_seq = _draw(rng, pair_table, (), 1, n)
            # the book is drawn in entry order, a slice at a time, and the
            # search stops at the first slice holding a typical entry
            size, step = 1 << exponent, max(1, _SLICE // n)
            for start in range(0, size, step):
                (book,) = _draw(rng, book_table, (x1_seq,), min(step, size - start), n)
                if _typical_mask((x1_seq, y1_seq, book), *window).any():
                    successes += 1
                    break
        return successes / trials
    step = max(1, _SLICE // max(n, p_pair.mass.size))
    for start in range(0, trials, step):
        pairs, uniforms = [], []
        for trial in range(start, min(start + step, trials)):
            rng = np.random.default_rng([seed, trial])
            pairs.append(_draw(rng, pair_table, (), 1, n))
            uniforms.append(rng.random())
        x1, y1 = (np.concatenate(seqs) for seqs in zip(*pairs))
        log_q = _log_hit_probability(x1, y1, p_book, p_triple, eps)
        successes += sum(u < _hit_probability(q, exponent) for q, u in zip(log_q.tolist(), uniforms))
    return successes / trials
