"""Codebook construction, typicality, the block-Markov run, and covering."""

import csv
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp, xlog1py, xlogy
from scipy.stats import binom

from tworelay.info import InfoQuery, mutual_info
from tworelay.io import channel_preset, dumps
from tworelay.prob import (
    Alphabet,
    CondPmf,
    JointPmf,
    NetworkChannel,
    ResourceLimitError,
    T1Law,
    ValidationError,
    assemble_joint_t1,
    conditional,
    deterministic_cond,
    marginalize,
    point_mass,
    random_channel,
    random_t1_law,
    uniform_cond,
    uniform_pmf,
    uniform_t1_law,
)
from tworelay.rates import T1Rates
from tworelay import sim
from tworelay.sim import (
    STAGES,
    BinMaps,
    Codebooks,
    SimConfig,
    SimStats,
    TypicalityParams,
    build,
    covering_experiment,
    quantize_rate,
    run_cf,
    typical,
)

GOLDEN = Path(__file__).parent / "golden"


def copy_table():
    # table[x][y] = y, so the compression variable copies the observation
    return np.arange(2)[None, :].repeat(2, axis=0)


def pinned_law():
    """Every law component a point mass on symbol 0."""
    ax = {v: Alphabet(v, 2) for v in ("X0", "X1", "X2", "Y1", "Y2", "Yh1", "Yh2")}
    return T1Law(
        point_mass(ax["X1"], 0),
        point_mass(ax["X2"], 0),
        deterministic_cond((ax["X1"], ax["X2"]), ax["X0"], np.zeros((2, 2), dtype=np.int64)),
        deterministic_cond((ax["X1"], ax["Y1"]), ax["Yh1"], copy_table()),
        deterministic_cond((ax["X2"], ax["Y2"]), ax["Yh2"], copy_table()),
    )


def broadcast_channel(flip_y0=0.0):
    """All three outputs copy the sender input; Y0 optionally through a flip."""
    axs = {v: Alphabet(v, 2) for v in ("X0", "X1", "X2", "Y0", "Y1", "Y2")}
    mass = np.zeros((2, 2, 2, 2, 2, 2))
    for a in range(2):
        mass[a, :, :, a, a, a] = 1.0 - flip_y0
        if flip_y0:
            mass[a, :, :, 1 - a, a, a] = flip_y0
    tr = CondPmf(
        (axs["X0"], axs["X1"], axs["X2"]),
        (axs["Y0"], axs["Y1"], axs["Y2"]),
        mass,
    )
    return NetworkChannel(tr)


def covering_fixture(alpha):
    """X1 and Y1 independent fair coins, compression flips Y1 with prob alpha.

    Everything else is a singleton, so the only information quantity in play
    is I(compression; observation | relay input) = 1 - h2(alpha).
    """
    one = {v: Alphabet(v, 1) for v in ("X0", "X2", "Y0", "Y2", "Yh2")}
    two = {v: Alphabet(v, 2) for v in ("X1", "Y1", "Yh1")}
    tr = CondPmf(
        (one["X0"], two["X1"], one["X2"]),
        (one["Y0"], two["Y1"], one["Y2"]),
        np.full((1, 2, 1, 1, 2, 1), 0.5),
    )
    mass = np.zeros((2, 2, 2))
    for x1 in range(2):
        for y1 in range(2):
            mass[x1, y1, y1] = 1.0 - alpha
            mass[x1, y1, 1 - y1] = alpha
    law = T1Law(
        uniform_pmf(two["X1"]),
        point_mass(one["X2"], 0),
        deterministic_cond((two["X1"], one["X2"]), one["X0"], np.zeros((2, 1), dtype=np.int64)),
        CondPmf((two["X1"], two["Y1"]), (two["Yh1"],), mass),
        deterministic_cond((one["X2"], one["Y2"]), one["Yh2"], np.zeros((1, 1), dtype=np.int64)),
    )
    return NetworkChannel(tr), law


def flip_law(alpha, pin_inputs=True):
    """Uniform X0; each quantizer copies its observation and flips it with
    probability alpha; relay inputs pinned to 0 or uniform."""
    a = {v: Alphabet(v, 2) for v in ("X0", "X1", "X2", "Y1", "Y2", "Yh1", "Yh2")}
    table = np.zeros((2, 2, 2))
    for y in range(2):
        table[:, y, y] = 1.0 - alpha
        table[:, y, 1 - y] = alpha
    relay_input = point_mass if pin_inputs else lambda axis, _: uniform_pmf(axis)
    return T1Law(
        relay_input(a["X1"], 0),
        relay_input(a["X2"], 0),
        uniform_cond((a["X1"], a["X2"]), (a["X0"],)),
        CondPmf((a["X1"], a["Y1"]), (a["Yh1"],), table),
        CondPmf((a["X2"], a["Y2"]), (a["Yh2"],), table),
    )


def golden_run_cf_cases():
    """(name, channel, law, config) of every ``run_cf`` output pinned in
    ``golden/run_cf_stats.json``: the benchmark's four configurations at seed
    7, binary-symmetric and broadcast channels at n from 1 to 48 (covering
    misses, sender ties among up to 256 candidate pairs, sender successes
    followed by receiver-stage errors, and 40 trials of 64-entry books that
    span several trial slices), then random
    channel/law pairs with alphabets of 1 to 3 letters, some with zero-mass
    cells."""
    def cfg(n, bits, eps, trials, seed, blocks=3):
        return SimConfig(n=n, blocks=blocks, rates=T1Rates(*(b / n for b in bits)),
                         typicality=TypicalityParams(eps), trials=trials, seed=seed)

    def bsc(p0, p1, p2):
        return channel_preset("binary-symmetric-links", crossover={"Y0": p0, "Y1": p1, "Y2": p2})

    cases = [
        ("decode-heavy", bsc(.05, .05, .05), flip_law(0.25), cfg(48, (6, 6, 6, 0, 0), 0.7, 10, 7)),
        ("build-heavy", bsc(.05, .05, .05), flip_law(0.25), cfg(16, (8, 4, 4, 4, 4), 0.7, 1, 7)),
        ("noisy-direct", broadcast_channel(0.3), pinned_law(), cfg(10, (0,) * 5, 0.3, 40, 7)),
        ("noiseless", broadcast_channel(), pinned_law(), cfg(8, (0,) * 5, 0.1, 50, 7)),
        ("bsc-n1", bsc(.1, .1, .1), uniform_t1_law(bsc(.1, .1, .1)),
         cfg(1, (1, 1, 1, 0, 0), 0.5, 12, 1, blocks=4)),
        ("bsc-n2", bsc(.05, .2, .3), uniform_t1_law(bsc(.05, .2, .3)),
         cfg(2, (1, 2, 1, 1, 0), 0.9, 12, 2)),
        ("bsc-n3", bsc(0, 0, 0), uniform_t1_law(bsc(0, 0, 0)), cfg(3, (1, 1, 1, 1, 1), 0.6, 10, 3)),
        ("bsc-n5", bsc(.1, .05, .05), flip_law(0.1, False), cfg(5, (1, 2, 2, 1, 1), 0.8, 10, 4)),
        ("bsc-n12", bsc(.05, .05, .05), uniform_t1_law(bsc(.05, .05, .05)),
         cfg(12, (1, 1, 1, 1, 1), 0.35, 30, 3)),
        ("bsc-n12-wide", bsc(.05, .05, .05), uniform_t1_law(bsc(.05, .05, .05)),
         cfg(12, (1, 2, 2, 1, 1), 0.35, 6, 3)),
        ("bsc-n16-ties", bsc(.05, .05, .05), flip_law(0.25), cfg(16, (2, 4, 4, 0, 0), 0.9, 10, 5)),
        ("bsc-n20-miss", bsc(.1, .2, .2), flip_law(0.05), cfg(20, (2, 1, 1, 0, 0), 0.3, 10, 6)),
        ("bsc-n24", bsc(.05, .1, .1), flip_law(0.2, False), cfg(24, (3, 3, 3, 1, 1), 0.5, 10, 8)),
        ("bsc-n32-slices", bsc(.05, .05, .05), flip_law(0.25),
         cfg(32, (4, 6, 6, 0, 0), 0.7, 40, 9)),
        ("bsc-n40", bsc(.02, .1, .15), flip_law(0.15), cfg(40, (5, 4, 5, 1, 0), 0.6, 8, 10)),
        ("bsc-n48-bins", bsc(.05, .05, .05), flip_law(0.25, False),
         cfg(48, (4, 5, 5, 2, 2), 0.7, 6, 11)),
        ("bsc-n48-uniform", bsc(.05, .05, .05), uniform_t1_law(bsc(.05, .05, .05)),
         cfg(48, (1, 0, 0, 1, 1), 0.8, 10, 20)),
        ("bsc-n36", bsc(.05, .05, .05), flip_law(0.3, False),
         cfg(36, (3, 3, 3, 2, 2), 0.95, 10, 24)),
        ("bsc-n48-survivors", bsc(.1, .05, .3), flip_law(0.4),
         cfg(48, (2, 2, 5, 0, 0), 0.5, 10, 30)),
        ("broadcast-n14-bins", broadcast_channel(), flip_law(0.3),
         cfg(14, (2, 3, 2, 1, 1), 0.9, 8, 17)),
        ("broadcast-n32-survivors", broadcast_channel(), flip_law(0.4),
         cfg(32, (1, 4, 4, 0, 0), 0.95, 6, 1)),
        ("broadcast-n35-sender", broadcast_channel(), flip_law(0.3),
         cfg(35, (2, 1, 1, 0, 0), 0.99, 8, 37)),
        ("broadcast-n38-sender", broadcast_channel(0.1), flip_law(0.3),
         cfg(38, (2, 3, 3, 0, 0), 0.9, 8, 92)),
        ("broadcast-n48-ties", broadcast_channel(0.1), flip_law(0.3),
         cfg(48, (1, 3, 3, 0, 0), 0.7, 6, 1)),
        ("flip-n6", broadcast_channel(0.1), pinned_law(), cfg(6, (2, 0, 0, 0, 0), 0.5, 20, 12)),
        ("flip-n30", broadcast_channel(0.2), pinned_law(),
         cfg(30, (3, 0, 0, 0, 0), 0.4, 15, 13, blocks=4)),
        ("flip-n44", broadcast_channel(0.25), pinned_law(), cfg(44, (4, 0, 0, 0, 0), 0.6, 12, 25)),
    ]
    rng = np.random.default_rng(4041)
    for k in range(20):
        sizes = {v: int(rng.integers(1, 4)) for v in ("X0", "X1", "X2", "Y0", "Y1", "Y2")}
        ch = random_channel(rng, sizes)
        law = random_t1_law(rng, ch, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        if k % 3 == 0:
            law = dataclasses.replace(
                law,
                pyh1_given_x1y1=without_first_letter(law.pyh1_given_x1y1),
                px0_given_x1x2=without_first_letter(law.px0_given_x1x2),
            )
        n = int(rng.integers(1, 49))
        bits = [int(rng.integers(0, 3)) for _ in range(3)]
        bits += [int(rng.integers(0, 2)) for _ in range(2)]
        bits[1] += k % 2 * int(rng.integers(0, 4))
        bits[2] += k % 2 * int(rng.integers(0, 4))
        eps = float(rng.choice([0.35, 0.6, 0.8, 0.95]))
        trials, blocks = int(rng.integers(4, 13)), int(rng.integers(2, 5))
        cases.append((f"random-{k}", ch, law, cfg(n, bits, eps, trials, k, blocks)))
    return cases


def golden_run_cf_text():
    """The ``SimStats.to_dict()`` of every golden case, as one JSON text."""
    return dumps({name: run_cf(ch, law, cfg).to_dict()
                  for name, ch, law, cfg in golden_run_cf_cases()})


def zero_rates():
    return T1Rates(0.0, 0.0, 0.0, 0.0, 0.0)


def reference_draw_cond(rng, cond, given_seqs):
    """One codeword drawn with one ``rng.choice(targets, p=row)`` call per
    position, in position order, each from the row its givens select: the
    draw rule the batched sampler must keep."""
    g_shape = tuple(a.size for a in cond.given)
    t_shape = tuple(a.size for a in cond.target)
    rows = cond.mass.reshape(int(np.prod(g_shape)), int(np.prod(t_shape)))
    cells = np.ravel_multi_index([np.asarray(s) for s in given_seqs], g_shape)
    out = np.array([rng.choice(rows.shape[1], p=rows[cell]) for cell in cells], dtype=np.int64)
    return np.unravel_index(out, t_shape)


def reference_build(channel, law, cfg):
    """Codeword-by-codeword build: x1, x2, x0 per (s1, s2, w), yh1 per
    (s1, z1), yh2 per (s2, z2), then the two bin maps."""
    sizes = cfg.book_sizes()
    rng = np.random.default_rng([cfg.seed, 0])
    n = cfg.n
    joint = assemble_joint_t1(channel, law)
    draw_joint = lambda pmf: rng.choice(pmf.mass.size, size=n, p=pmf.mass.reshape(-1))
    x1 = np.stack([draw_joint(law.px1) for _ in range(sizes["s1"])])
    x2 = np.stack([draw_joint(law.px2) for _ in range(sizes["s2"])])
    x0 = np.empty((sizes["w"], sizes["s1"], sizes["s2"], n), dtype=np.int64)
    for s1 in range(sizes["s1"]):
        for s2 in range(sizes["s2"]):
            for w in range(sizes["w"]):
                (x0[w, s1, s2],) = reference_draw_cond(
                    rng, law.px0_given_x1x2, (x1[s1], x2[s2])
                )
    p_yh1 = conditional(joint, ("Yh1",), ("X1",))
    p_yh2 = conditional(joint, ("Yh2",), ("X2",))
    yh1 = np.empty((sizes["z1"], sizes["s1"], n), dtype=np.int64)
    for s1 in range(sizes["s1"]):
        for z1 in range(sizes["z1"]):
            (yh1[z1, s1],) = reference_draw_cond(rng, p_yh1, (x1[s1],))
    yh2 = np.empty((sizes["z2"], sizes["s2"], n), dtype=np.int64)
    for s2 in range(sizes["s2"]):
        for z2 in range(sizes["z2"]):
            (yh2[z2, s2],) = reference_draw_cond(rng, p_yh2, (x2[s2],))
    bin1 = rng.integers(0, sizes["s1"], size=sizes["z1"])
    bin2 = rng.integers(0, sizes["s2"], size=sizes["z2"])
    return dict(x1=x1, x2=x2, x0=x0, yh1=yh1, yh2=yh2, bin1=bin1, bin2=bin2)


def without_first_letter(pmf):
    """``pmf`` with target letter 0 made impossible wherever it has others."""
    mass = np.array(pmf.mass, dtype=float)
    if mass.shape[-1] > 1:
        mass[..., 0] = 0.0
        mass /= mass.sum(axis=-1, keepdims=True)
    if isinstance(pmf, CondPmf):
        return CondPmf(pmf.given, pmf.target, mass)
    return JointPmf(pmf.axes, mass)


def float_typical_mask(sequences, joint, eps):
    """Robust joint typicality in float frequencies, candidate by candidate:
    the test ``abs(k/n - p) <= eps*p`` on every cell, independent of
    ``sim``'s count windows."""
    seqs = np.broadcast_arrays(*(np.asarray(s) for s in sequences))
    batch, n = seqs[0].shape[:-1], seqs[0].shape[-1]
    p = joint.mass.reshape(-1)
    mask = np.empty(batch, dtype=bool)
    for at in np.ndindex(batch):
        flat = np.ravel_multi_index([s[at] for s in seqs], joint.mass.shape)
        freq = np.bincount(flat, minlength=p.size) / n
        mask[at] = np.all(np.abs(freq - p) <= eps * p)
    return mask


def reference_log_one_draw_typical(x1_seq, y1_seq, p_book, p_triple, eps):
    """log q of one trial, one scalar binomial window per (x1, y1) group in
    group order: the per-trial form the batched analytic path must keep.
    Each cell's window is found by trying every count with the float test."""
    n = len(x1_seq)
    k1, ky, kq = (axis.size for axis in p_triple.axes)
    book_rows = p_book.mass.reshape(k1, kq)

    def window(p_cell):
        passing = [k for k in range(n + 1) if abs(k / n - p_cell) <= eps * p_cell]
        return (passing[0], passing[-1]) if passing else (1, 0)

    total = 0.0
    for a in range(k1):
        for b in range(ky):
            group = int(np.sum((x1_seq == a) & (y1_seq == b)))
            lo0, hi0 = window(float(p_triple.mass[a, b, 0]))
            lo1, hi1 = window(float(p_triple.mass[a, b, 1]))
            lo, hi = max(lo0, group - hi1, 0), min(hi0, group - lo1, group)
            if hi < lo:
                return -math.inf
            logs = binom.logpmf(np.arange(lo, hi + 1), group, float(book_rows[a, 0]))
            total += float(logsumexp(logs))
    return total


def log_binomial(k, n, p):
    """The log-binomial expression ``sim._log_hit_probability`` evaluates:
    ``binom.logpmf``'s own formula, in its order of operations."""
    k = np.asarray(k, dtype=np.float64)
    return gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1)) + xlogy(k, p) + xlog1py(n - k, -p)


def binom_log_hit_probability(x1, y1, p_book, p_triple, eps):
    """The batched analytic path in its earlier form, one ``binom.logpmf``
    call per slice: the same windows, padding and slices, so its values must
    match ``sim._log_hit_probability`` bit for bit."""
    trials, n = x1.shape
    k1, ky, kq = (axis.size for axis in p_triple.axes)
    groups = k1 * ky
    lo, hi = sim._count_windows(p_triple.mass.reshape(groups, kq), n, eps)
    (lo0, lo1), (hi0, hi1) = lo.T, hi.T
    p_hit = np.repeat(p_book.mass.reshape(k1, kq)[:, 0], ky)
    flat = np.ravel_multi_index((x1, y1), (k1, ky)) + groups * np.arange(trials)[:, None]
    count = np.bincount(flat.reshape(-1), minlength=trials * groups).reshape(trials, groups)
    lo = np.maximum(lo0, count - hi1)
    hi = np.minimum(hi0, count - lo1)
    width = max(int((hi - lo).max()) + 1, 1)
    log_q = np.empty(trials)
    step = max(1, sim._SLICE // (groups * width))
    for start in range(0, trials, step):
        rows = slice(start, start + step)
        k = lo[rows, :, None] + np.arange(width)
        inside = k <= hi[rows, :, None]
        logs = np.full(k.shape, -np.inf)
        logs[inside] = binom.logpmf(
            k[inside],
            np.broadcast_to(count[rows, :, None], k.shape)[inside],
            np.broadcast_to(p_hit[:, None], k.shape)[inside],
        )
        log_q[rows] = logsumexp(logs, axis=-1).sum(axis=-1)
    return log_q


def covering_law(data):
    """A covering law from integer weights: X1 and Y1 of 1-3 letters, a
    binary quantizer, and any weight 0, so groups and cells can be empty."""

    def rows(count, width):
        table = []
        for _ in range(count):
            row = data.draw(st.lists(st.integers(0, 3), min_size=width, max_size=width)
                            .filter(any))
            table.append(np.array(row, dtype=float) / sum(row))
        return np.array(table)

    k1, ky = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    one = {v: Alphabet(v, 1) for v in ("X0", "X2", "Y0", "Y2", "Yh2")}
    x1, y1, yh1 = Alphabet("X1", k1), Alphabet("Y1", ky), Alphabet("Yh1", 2)
    tr = CondPmf((one["X0"], x1, one["X2"]), (one["Y0"], y1, one["Y2"]),
                 rows(k1, ky).reshape(1, k1, 1, 1, ky, 1))
    law = T1Law(
        JointPmf((x1,), rows(1, k1)[0]),
        point_mass(one["X2"], 0),
        deterministic_cond((x1, one["X2"]), one["X0"], np.zeros((k1, 1), dtype=np.int64)),
        CondPmf((x1, y1), (yh1,), rows(k1 * ky, 2).reshape(k1, ky, 2)),
        deterministic_cond((one["X2"], one["Y2"]), one["Yh2"], np.zeros((1, 1), dtype=np.int64)),
    )
    return NetworkChannel(tr), law


class TestTypicalityParams:
    def test_accepts_interior(self):
        assert TypicalityParams(0.5).epsilon == 0.5

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_outside(self, eps):
        with pytest.raises(ValidationError):
            TypicalityParams(eps)


class TestTypical:
    def test_point_mass_always_typical(self):
        j = point_mass(Alphabet("X0", 3), 1)
        seq = np.full(20, 1)
        assert typical((seq,), j, 0.01)

    def test_point_mass_rejects_stray_symbol(self):
        j = point_mass(Alphabet("X0", 3), 1)
        seq = np.full(20, 1)
        seq[7] = 2
        assert not typical((seq,), j, 0.5)

    def test_constant_sequence_not_typical_for_uniform(self):
        j = uniform_pmf(Alphabet("X0", 2))
        assert not typical((np.zeros(100, dtype=int),), j, 0.1)

    def test_exact_boundary_counts_as_typical(self):
        # frequency 0.4 vs mass 0.5: |0.4 - 0.5| equals 0.2 * 0.5 exactly
        j = uniform_pmf(Alphabet("X0", 2))
        seq = np.array([0] * 4 + [1] * 6)
        assert typical((seq,), j, 0.2)
        assert not typical((seq,), j, 0.19)

    def test_accepts_params_object(self):
        j = uniform_pmf(Alphabet("X0", 2))
        seq = np.array([0, 1] * 10)
        assert typical((seq,), j, TypicalityParams(0.1))

    def test_law_of_large_numbers(self):
        # i.i.d. draws from the joint are typical in every one of 100 trials
        # at n = 10000: the smallest cell holds mass 0.15, so the relative
        # window is about four standard deviations wide
        j = JointPmf(
            (Alphabet("X1", 2), Alphabet("Y1", 2)),
            np.array([[0.30, 0.20], [0.15, 0.35]]),
        )
        hits = 0
        for t in range(100):
            rng = np.random.default_rng([2026, t])
            hits += typical([s[0] for s in sim._draw(rng, sim._table(j), (), 1, 10_000)], j, 0.1)
        assert hits == 100

    def test_arity_mismatch_rejected(self):
        j = uniform_pmf((Alphabet("X1", 2), Alphabet("Y1", 2)))
        with pytest.raises(ValidationError):
            typical((np.zeros(4, dtype=int),), j, 0.1)

    def test_length_mismatch_rejected(self):
        j = uniform_pmf((Alphabet("X1", 2), Alphabet("Y1", 2)))
        with pytest.raises(ValidationError):
            typical((np.zeros(4, dtype=int), np.zeros(5, dtype=int)), j, 0.1)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_batched_mask_matches_scalar_test(self, data):
        # a stack of exact-type sequences (typical at any epsilon), the same
        # with one symbol moved (a count off by one: at w*m = 4 and eps 0.25,
        # or 2 and 0.5, the deviation sits exactly on the boundary, and a move
        # into a zero-mass cell must fail), and uniform noise
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        axes = tuple(Alphabet(v, k) for v, k in zip(("X0", "X1", "Y0"), sizes))
        cells = int(np.prod(sizes))
        weights = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells)), dtype=float
        )
        weights[data.draw(st.integers(0, cells - 1))] += 1
        joint = JointPmf(axes, (weights / weights.sum()).reshape(sizes))
        base = np.repeat(np.arange(cells), weights.astype(int) * data.draw(st.integers(1, 3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # the stack always ends with a typical candidate, in its last slice
        kinds = data.draw(
            st.lists(st.sampled_from(["exact", "moved", "noise"]), max_size=6)
        ) + ["exact"]
        stack = []
        for kind in kinds:
            seq = rng.permutation(base)
            if kind == "moved":
                seq[rng.integers(len(seq))] = rng.integers(cells)
            elif kind == "noise":
                seq = rng.integers(cells, size=len(seq))
            stack.append(seq)
        seqs = np.unravel_index(np.array(stack), sizes)
        eps = data.draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.75]))

        want = float_typical_mask(seqs, joint, eps).tolist()
        scalar = [typical(tuple(s[i] for s in seqs), joint, eps) for i in range(len(stack))]
        windows = sim._count_windows(joint.mass, len(base), eps)
        mask = sim._typical_mask(seqs, *windows)
        assert mask.dtype == bool and mask.tolist() == scalar == want
        assert all(hit for hit, kind in zip(want, kinds) if kind == "exact")
        for slice_size in (1, 2 * max(len(base), cells)):
            with mock.patch.object(sim, "_SLICE", slice_size):
                assert sim._typical_mask(seqs, *windows).tolist() == want
        if len(sizes) > 1:
            # a candidate grid: the first axis from one stack entry, the rest
            # from another, as in the sender's pair search
            pairs = (seqs[0][:, None], *seqs[1:])
            grid = sim._typical_mask(pairs, *windows)
            assert grid.shape == (len(stack), len(stack))
            assert np.array_equal(grid, float_typical_mask(pairs, joint, eps))


class TestQuantization:
    def test_rate_snaps_to_grid(self):
        assert quantize_rate(0.26, 10) == 0.3
        assert quantize_rate(0.24, 10) == 0.2

    def test_half_rates_round_to_even(self):
        assert quantize_rate(0.25, 2) == 0.0
        assert quantize_rate(0.75, 2) == 1.0

    def test_book_sizes_are_powers_of_two(self):
        cfg = SimConfig(
            n=10, blocks=2, rates=T1Rates(0.26, 0, 0, 0, 0),
            typicality=TypicalityParams(0.2), trials=1, seed=0,
        )
        assert cfg.book_sizes()["w"] == 8
        assert cfg.quantized_rates().rbar == 0.3


class TestSimConfig:
    def good(self, **kw):
        base = dict(
            n=4, blocks=2, rates=zero_rates(),
            typicality=TypicalityParams(0.2), trials=1, seed=0,
        )
        base.update(kw)
        return SimConfig(**base)

    def test_total_codewords_formula(self):
        cfg = self.good(rates=T1Rates(0.5, 0.5, 0.5, 0.5, 0.5))
        # 4 + 4 message books of 4 entries per cell pair, plus 4-entry
        # quantization books per relay cell
        assert cfg.book_sizes() == {"w": 4, "s1": 4, "s2": 4, "z1": 4, "z2": 4}
        assert cfg.total_codewords() == 4 + 4 + 64 + 16 + 16

    @pytest.mark.parametrize(
        "kw",
        [dict(n=0), dict(blocks=1), dict(trials=0),
         dict(rates=T1Rates(-0.1, 0, 0, 0, 0))],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValidationError):
            self.good(**kw)

    def test_codeword_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            self.good(n=20, rates=T1Rates(1.0, 1.0, 1.0, 0.5, 0.5))


class TestBuild:
    def cfg(self, n=16, seed=0):
        r = 2 / n
        return SimConfig(
            n=n, blocks=2, rates=T1Rates(r, r, r, r, r),
            typicality=TypicalityParams(0.2), trials=1, seed=seed,
        )

    def test_shapes_and_ranges(self):
        ch = channel_preset("identity-direct")
        law = uniform_t1_law(ch)
        cfg = self.cfg()
        books, bins = build(assemble_joint_t1(ch, law), law, cfg)
        assert books.x1.shape == (4, 16)
        assert books.x2.shape == (4, 16)
        assert books.x0.shape == (4, 4, 4, 16)
        assert books.yh1.shape == (4, 4, 16)
        assert books.yh2.shape == (4, 4, 16)
        for arr, size in ((books.x1, 2), (books.x0, 2), (books.yh1, 2)):
            assert arr.min() >= 0 and arr.max() < size
        assert bins.bin1.shape == (4,) and bins.bin2.shape == (4,)
        assert bins.bin1.min() >= 0 and bins.bin1.max() < 4

    def test_same_seed_same_books(self):
        ch = channel_preset("identity-direct")
        law = uniform_t1_law(ch)
        a, bins_a = build(assemble_joint_t1(ch, law), law, self.cfg(seed=9))
        b, bins_b = build(assemble_joint_t1(ch, law), law, self.cfg(seed=9))
        for name in ("x1", "x2", "x0", "yh1", "yh2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(bins_a.bin1, bins_b.bin1)
        assert np.array_equal(bins_a.bin2, bins_b.bin2)

    def test_different_seed_different_books(self):
        ch = channel_preset("identity-direct")
        law = uniform_t1_law(ch)
        a, _ = build(assemble_joint_t1(ch, law), law, self.cfg(seed=9))
        b, _ = build(assemble_joint_t1(ch, law), law, self.cfg(seed=10))
        assert not np.array_equal(a.x0, b.x0)

    def test_each_table_is_built_once(self):
        # one cdf table per pmf (x1, x2, x0 and the two quantization books),
        # however many codebook cells draw from it
        ch = channel_preset("identity-direct")
        law = uniform_t1_law(ch)
        built, table = [], sim._table
        with mock.patch.object(sim, "_table", lambda pmf: built.append(pmf) or table(pmf)):
            build(assemble_joint_t1(ch, law), law, self.cfg())
        assert len(built) == 5

    def test_zero_rates_give_single_codewords(self):
        ch = channel_preset("identity-direct")
        law = uniform_t1_law(ch)
        cfg = SimConfig(
            n=8, blocks=2, rates=zero_rates(),
            typicality=TypicalityParams(0.2), trials=1, seed=0,
        )
        books, bins = build(assemble_joint_t1(ch, law), law, cfg)
        assert books.x1.shape == (1, 8)
        assert books.x0.shape == (1, 1, 1, 8)
        assert bins.bin1.tolist() == [0]

    @pytest.mark.parametrize("seed", range(10))
    def test_books_match_codeword_by_codeword_draws(self, seed):
        rng = np.random.default_rng([77, seed])
        sizes = {v: int(rng.integers(1, 4)) for v in ("X0", "X1", "X2", "Y0", "Y1", "Y2")}
        if seed >= 8:
            # one-letter relay inputs: every conditional book law has one row
            sizes["X1"] = sizes["X2"] = 1
        ch = random_channel(rng, sizes)
        law = random_t1_law(rng, ch, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        if seed % 2:
            law = dataclasses.replace(
                law,
                px1=without_first_letter(law.px1),
                px0_given_x1x2=without_first_letter(law.px0_given_x1x2),
                pyh1_given_x1y1=without_first_letter(law.pyh1_given_x1y1),
            )
        n = int(rng.integers(1, 13))
        rates = T1Rates(*(int(rng.integers(0, 4)) / n for _ in range(5)))
        cfg = SimConfig(
            n=n, blocks=2, rates=rates, typicality=TypicalityParams(0.2),
            trials=1, seed=seed,
        )
        want = reference_build(ch, law, cfg)
        for slice_size in (sim._SLICE, 1, 2 * n):
            with mock.patch.object(sim, "_SLICE", slice_size):
                books, bins = build(assemble_joint_t1(ch, law), law, cfg)
            got = dict(vars(books), bin1=bins.bin1, bin2=bins.bin2)
            for name, array in want.items():
                assert got[name].dtype == array.dtype, name
                assert np.array_equal(got[name], array), name
        if seed % 2 and sizes["X1"] > 1:
            assert not np.any(books.x1 == 0)

    def test_pinned_law_gives_constant_codewords(self):
        ch = broadcast_channel()
        law = pinned_law()
        books, _ = build(assemble_joint_t1(ch, law), law, self.cfg(n=8))
        assert not books.x0.any()
        assert not books.x1.any()
        assert not books.yh1.any()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_lookup_is_a_per_position_search(self, data):
        # one-row and multi-row tables, targets of zero mass (repeated cdf
        # entries, some of them exactly 1 before the last), and uniforms
        # that often equal a cdf entry, where <= and < part
        rows = data.draw(st.integers(1, 4))
        targets = data.draw(st.integers(1, 5))
        weights = np.array(data.draw(st.lists(
            st.integers(0, 3), min_size=rows * targets, max_size=rows * targets
        )), dtype=float).reshape(rows, targets)
        weights[np.arange(rows), data.draw(st.lists(
            st.integers(0, targets - 1), min_size=rows, max_size=rows
        ))] += 1
        cond = CondPmf((Alphabet("X1", rows),), (Alphabet("Y1", targets),),
                       weights / weights.sum(axis=1, keepdims=True))
        cdf, g_shape, t_shape = sim._table(cond)
        assert (g_shape, t_shape) == ((rows,), (targets,))
        assert (cdf[:, -1] == 1.0).all() and (np.diff(cdf, axis=1) >= 0).all()
        count, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
        entries = sorted({float(v) for v in cdf.reshape(-1) if v < 1.0} | {0.0})
        uniform = st.one_of(st.sampled_from(entries), st.floats(0.0, 1.0, exclude_max=True))
        u = np.array(data.draw(st.lists(uniform, min_size=count * n, max_size=count * n)))
        u = u.reshape(count, n)
        cell_shape = data.draw(st.sampled_from([(n,), (count, n)]))
        cells = np.array(data.draw(st.lists(
            st.integers(0, rows - 1), min_size=math.prod(cell_shape), max_size=math.prod(cell_shape)
        ))).reshape(cell_shape)
        cell_at = np.broadcast_to(cells, u.shape)
        want = np.empty(u.shape, dtype=np.int64)
        for at in np.ndindex(u.shape):
            want[at] = np.searchsorted(cdf[cell_at[at]], u[at], side="right")
        got = sim._lookup(cdf, cells, u)
        assert got.shape == u.shape
        assert np.array_equal(got, want)


class TestSimStats:
    def stats(self, errors=None, decoded=4):
        base = {stage: 0 for stage in STAGES}
        if errors:
            base.update(errors)
        return SimStats(base, 2, decoded, 8, 3, zero_rates())

    def test_rejects_wrong_stage_set(self):
        with pytest.raises(ValidationError):
            SimStats({"nope": 0}, 1, 1, 8, 3, zero_rates())

    def test_rejects_more_errors_than_blocks(self):
        with pytest.raises(ValidationError):
            self.stats({"receiver-message": 5}, decoded=4)

    def test_dict_and_csv_agree(self):
        st = self.stats({"relay1-covering": 3})
        d = st.to_dict()
        assert d["format_version"] == 1
        assert d["kind"] == "simulation"
        assert list(d["stage_errors"]) == list(STAGES)
        json.dumps(d)
        # one stage name contains a comma, so the emitter must quote it
        header, row = list(csv.reader(io.StringIO(st.to_csv())))
        assert len(header) == len(row) == 4 + len(STAGES)
        assert row[header.index("relay1-covering")] == "3"
        assert "receiver-(s1,s2)" in header


class TestRunCf:
    def test_noiseless_pinned_run_has_no_errors(self):
        cfg = SimConfig(
            n=8, blocks=3, rates=zero_rates(),
            typicality=TypicalityParams(0.1), trials=50, seed=7,
        )
        st = run_cf(broadcast_channel(), pinned_law(), cfg)
        assert st.blocks_decoded == 100
        assert all(v == 0 for v in st.stage_errors.values())

    def test_noisy_direct_link_fails_in_receiver_stages(self):
        # the relay chain is deterministic here, so every failure must land
        # on a stage that reads the direct output
        cfg = SimConfig(
            n=10, blocks=3, rates=zero_rates(),
            typicality=TypicalityParams(0.3), trials=40, seed=2,
        )
        st = run_cf(broadcast_channel(flip_y0=0.3), pinned_law(), cfg)
        assert st.stage_errors["relay1-covering"] == 0
        assert st.stage_errors["relay2-covering"] == 0
        assert st.stage_errors["sender-joint-covering"] == 0
        assert st.stage_errors["receiver-(s1,s2)"] == 54
        assert st.stage_errors["receiver-bin-intersection-1"] == 22
        assert sum(st.stage_errors.values()) <= st.blocks_decoded

    def test_first_error_attribution_is_unique(self):
        ch = channel_preset("binary-symmetric-links", crossover={"Y0": 0.05, "Y1": 0.05, "Y2": 0.05})
        law = uniform_t1_law(ch)
        r = 1 / 12
        cfg = SimConfig(
            n=12, blocks=3, rates=T1Rates(r, r, r, r, r),
            typicality=TypicalityParams(0.35), trials=30, seed=3,
        )
        st = run_cf(ch, law, cfg)
        assert st.blocks_decoded == 60
        assert sum(st.stage_errors.values()) <= st.blocks_decoded
        assert all(v >= 0 for v in st.stage_errors.values())

    def test_runs_are_deterministic(self):
        ch = channel_preset("binary-symmetric-links", crossover={"Y0": 0.05, "Y1": 0.05, "Y2": 0.05})
        law = uniform_t1_law(ch)
        r = 1 / 12
        cfg = SimConfig(
            n=12, blocks=3, rates=T1Rates(r, r, r, r, r),
            typicality=TypicalityParams(0.35), trials=30, seed=3,
        )
        assert run_cf(ch, law, cfg).to_dict() == run_cf(ch, law, cfg).to_dict()

    def test_joint_is_assembled_once_per_run(self):
        ch = channel_preset("binary-symmetric-links", crossover={"Y0": 0.05, "Y1": 0.05, "Y2": 0.05})
        law = uniform_t1_law(ch)
        r = 1 / 12
        cfg = SimConfig(
            n=12, blocks=3, rates=T1Rates(r, r, r, r, r),
            typicality=TypicalityParams(0.35), trials=4, seed=3,
        )
        with mock.patch.object(sim, "assemble_joint", wraps=sim.assemble_joint) as assembled, \
                mock.patch.object(sim, "build", wraps=sim.build) as built:
            run_cf(ch, law, cfg)
        # build goes through the module attribute, the one a tracer wraps
        assert assembled.call_count == 1
        assert built.call_count == 1

    def test_ties_count_as_errors(self):
        j = uniform_pmf(Alphabet("X0", 2))
        seq = np.array([0, 1] * 8)
        mask = sim._typical_mask((np.stack([seq, seq]),), *sim._count_windows(j.mass, 16, 0.1))
        # two candidates pass the test, so no unique winner exists, for a
        # trial owning either one; a lone typical candidate is a winner
        assert mask.tolist() == [True, True]
        assert not sim._only(np.stack([mask, mask]), np.array([0, 1])).any()
        assert sim._only(np.array([[True, False]]), np.array([0])).all()

    def test_slicing_leaves_runs_unchanged(self):
        # a trial of either run takes 512 slice units (8 candidates or
        # channel outputs, times 64 sender cells), so the patched slices hold
        # 1, 1, 1 and 5 trials: every run crosses trial-slice boundaries
        bsc = channel_preset("binary-symmetric-links", crossover={"Y0": 0.05, "Y1": 0.05, "Y2": 0.05})
        r = 1 / 12
        runs = [
            # relay-1 covering misses in every block
            (bsc, uniform_t1_law(bsc), SimConfig(
                n=12, blocks=3, rates=T1Rates(r, 2 * r, 2 * r, r, r),
                typicality=TypicalityParams(0.35), trials=6, seed=3,
            )),
            # relay-2 misses, sender ties and successes, receiver errors
            (broadcast_channel(0.1), flip_law(0.3), SimConfig(
                n=38, blocks=3, rates=T1Rates(*(b / 38 for b in (2, 3, 3, 0, 0))),
                typicality=TypicalityParams(0.9), trials=8, seed=92,
            )),
        ]
        for ch, law, cfg in runs:
            whole = run_cf(ch, law, cfg).to_dict()
            for slice_size in (1, 30, 1000, 2600):
                with mock.patch.object(sim, "_SLICE", slice_size):
                    assert run_cf(ch, law, cfg).to_dict() == whole

    def test_count_windows_are_the_exact_passing_counts(self):
        # every cell mass w/W at n = W*m, so counts sit on window ends; at
        # p = 3/4, n = 12 and eps = 1/3, n*p*(1 - eps) rounds to just above
        # 6 while the count 6 passes, so the closed-form end alone is too high
        eps_values = (0.1, 0.2, 0.25, 1 / 3, 0.35, 0.5, 0.6, 2 / 3, 0.7, 0.75, 0.9, 0.95)
        masses = np.array([w / total for total in range(1, 13) for w in range(total + 1)])
        for n in range(1, 49):
            k = np.arange(2 * n + 2)[:, None]
            for eps in eps_values:
                lo, hi = sim._count_windows(masses, n, eps)
                passes = np.abs(k / n - masses) <= eps * masses
                inside = (lo <= k) & (k <= hi)
                assert np.array_equal(passes, inside), (n, eps)
        lo, hi = sim._count_windows(np.array([0.75]), 12, 1 / 3)
        assert (lo, hi) == (6, 12) and 12 * 0.75 * (1 - 1 / 3) > 6

    def test_count_windows_hold_at_large_n(self):
        # the windows are the only typicality rule, so check them where the
        # counts are large: n up to 2^24, eps across (0, 1), masses w/W with
        # n a multiple of W (counts on the window ends), tiny masses whose
        # windows are empty, and zero-mass cells
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            total = int(rng.integers(1, 13))
            n = int(min(2.0 ** rng.uniform(0, 24), sim.MAX_SYMBOLS))
            if rng.random() < 0.5:
                n = max(total, n - n % total)
            eps = float(rng.choice([rng.uniform(1e-9, 1), 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75]))
            p = np.concatenate([
                rng.random(1000),
                rng.integers(0, total + 1, 500) / total,
                2.0 ** -rng.uniform(0, 40, 200),
                np.zeros(50),
                [1.0],
            ])
            lo, hi = sim._count_windows(p, n, eps)

            def passes(k):
                return np.abs(k / n - p) <= eps * p

            some = lo <= hi
            assert passes(lo)[some].all() and passes(hi)[some].all(), (n, eps)
            assert not passes(lo - 1).any() and not passes(hi + 1).any(), (n, eps)
            # an empty window: no count within 3 of n*p passes either
            near = np.round(n * p)[~some, None] + np.arange(-3, 4)
            assert not (np.abs(near / n - p[~some, None]) <= eps * p[~some, None]).any()
            assert (lo[p == 0] == 0).all() and (hi[p == 0] == 0).all()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_restricted_sender_pairs_match_full_product(self, data):
        # exact-type sequences of a joint with integer cell weights, split
        # into the relay observations and two books whose candidates are the
        # true half (typical at any epsilon), the same with one symbol moved
        # (a count off by one, on the window boundary at w*m = 4 and eps 0.25,
        # 3 and 1/3, or 2 and 0.5), or uniform noise
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=6, max_size=6))
        names = ("X1", "X2", "Y1", "Y2", "Yh1", "Yh2")
        axes = tuple(Alphabet(v, k) for v, k in zip(names, sizes))
        cells = math.prod(sizes)
        weights = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells)), dtype=float
        )
        weights[data.draw(st.integers(0, cells - 1))] += 1
        joint = JointPmf(axes, (weights / weights.sum()).reshape(sizes))
        base = np.repeat(np.arange(cells), weights.astype(int) * data.draw(st.integers(1, 3)))
        eps = data.draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.75]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kinds = [["exact"] + data.draw(st.lists(st.sampled_from(["exact", "moved", "noise"]),
                                                max_size=4)) for _ in range(2)]
        seqs, books = [], ([], [])
        for _ in range(data.draw(st.integers(1, 3))):
            letters = np.unravel_index(rng.permutation(base), sizes)
            seqs.append(letters[:4])
            for book, true, size, kind in zip(books, letters[4:], sizes[4:], kinds):
                stack = []
                for k in kind:
                    seq = true.copy()
                    if k == "moved":
                        seq[rng.integers(len(seq))] = rng.integers(size)
                    elif k == "noise":
                        seq = rng.integers(size, size=len(seq))
                    stack.append(seq)
                book.append(stack)
        seqs = tuple(np.array(s) for s in zip(*seqs))
        yh1, yh2 = (np.array(book) for book in books)

        full = float_typical_mask(
            (*(s[:, None, None] for s in seqs), yh1[:, :, None], yh2[:, None, :]), joint, eps
        )
        assert full[:, 0, 0].all()
        windows = sim._count_windows(joint.mass, len(base), eps)
        for slice_size in (sim._SLICE, 1, 7 * len(base)):
            restricted = np.zeros(full.shape, dtype=bool)
            scored = np.zeros(full.shape, dtype=int)
            with mock.patch.object(sim, "_SLICE", slice_size):
                for t, i, j, typ in sim._sender_pairs(seqs, yh1, yh2, *windows):
                    restricted[t, i, j] = typ
                    np.add.at(scored, (t, i, j), 1)
            assert np.array_equal(restricted, full)
            assert scored.max() <= 1


class TestRunCfGolden:
    def test_stats_match_golden(self):
        expected = (GOLDEN / "run_cf_stats.json").read_text(encoding="utf-8")
        assert golden_run_cf_text() == expected


class TestCoveringExperiment:
    @pytest.mark.parametrize(
        "kw",
        [dict(rh1=-0.1), dict(n=0), dict(trials=0), dict(epsilon=1.0)],
    )
    def test_rejects_bad_arguments(self, kw):
        ch, law = covering_fixture(0.25)
        base = dict(law=law, channel=ch, rh1=0.1, n=10, trials=2, seed=0, epsilon=0.2)
        base.update(kw)
        with pytest.raises(ValidationError):
            covering_experiment(**base)

    def test_threshold_behavior(self):
        # the book rate sits 0.1 above or below the conditional mutual
        # information between compression and observation; success flips
        ch, law = covering_fixture(0.25)
        joint = assemble_joint_t1(ch, law)
        rate = mutual_info(joint, InfoQuery(("Yh1",), ("Y1",), ("X1",)))
        assert abs(rate - (1 - (-0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)))) < 1e-12
        hi = covering_experiment(law, ch, rate + 0.1, n=1000, trials=200, seed=0, epsilon=0.2)
        lo = covering_experiment(law, ch, rate - 0.1, n=1000, trials=200, seed=0, epsilon=0.2)
        assert hi == 1.0
        assert lo == 0.0

    def test_success_monotone_in_rate(self):
        # paired seeds share the observation draws, so the fraction can
        # never drop as the book grows
        ch, law = covering_fixture(0.25)
        joint = assemble_joint_t1(ch, law)
        base = mutual_info(joint, InfoQuery(("Yh1",), ("Y1",), ("X1",)))
        fracs = [
            covering_experiment(law, ch, base + d, n=1000, trials=60, seed=4, epsilon=0.2)
            for d in (-0.1, -0.05, 0.0, 0.05, 0.1, 1e9)
        ]
        assert fracs == sorted(fracs)
        # a book of about 2^(10^12) entries takes the analytic path
        assert fracs[-1] == 1.0

    @pytest.mark.parametrize("rh1, tables", [(8 / 300, 2), (1.0, 1)], ids=["literal", "analytic"])
    def test_each_table_is_built_once(self, rh1, tables):
        # the pair's table, and on the literal path the book's, once per
        # call however many trials and book slices draw from them
        ch, law = covering_fixture(0.4)
        built, table = [], sim._table
        with mock.patch.object(sim, "_table", lambda pmf: built.append(pmf) or table(pmf)):
            covering_experiment(law, ch, rh1, 300, 20, 11, epsilon=0.2)
        assert len(built) == tables

    def test_literal_path_matches_analytic_probability(self):
        # small books run the literal entry-by-entry search; its success
        # fraction must agree with the closed-form per-trial probabilities
        # computed on the same observation draws
        ch, law = covering_fixture(0.4)
        joint = assemble_joint_t1(ch, law)
        p_pair = marginalize(joint, ("X1", "Y1"))
        p_triple = marginalize(joint, ("X1", "Y1", "Yh1"))
        p_book = conditional(joint, ("Yh1",), ("X1",))
        n, trials, seed = 300, 250, 11
        frac = covering_experiment(law, ch, 8 / n, n, trials, seed, epsilon=0.2)
        probs = []
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            x1_seq, y1_seq = sim._draw(rng, sim._table(p_pair), (), 1, n)
            lq = float(sim._log_hit_probability(x1_seq, y1_seq, p_book, p_triple, 0.2)[0])
            probs.append(-math.expm1(256 * math.log1p(-math.exp(lq))) if lq < 0 else 1.0)
        mean = float(np.mean(probs))
        sd = math.sqrt(float(np.sum(np.multiply(probs, np.subtract(1.0, probs))))) / trials
        assert abs(frac - mean) <= 4 * sd + 1e-9

    @pytest.mark.parametrize("p0, n, eps", [(1 / 3, 4, 0.5), (3 / 4, 12, 1 / 3)])
    def test_analytic_probability_matches_every_book_entry(self, p0, n, eps):
        # one-letter X1 and Y1 and a binary quantizer: q is the total
        # probability of the 2^n book entries that ``typical`` accepts.  The
        # closed-form ends ceil/floor(n*p*(1 -/+ eps)) let in failing counts
        # at (1/3, 4, 0.5) and leave out the passing count 6 at (3/4, 12, 1/3)
        axes = (Alphabet("X1", 1), Alphabet("Y1", 1), Alphabet("Yh1", 2))
        mass = np.array([p0, 1 - p0])
        p_triple = JointPmf(axes, mass.reshape(1, 1, 2))
        p_book = CondPmf(axes[:1], axes[2:], mass.reshape(1, 2))
        zeros = np.zeros((1, n), dtype=np.int64)
        q = sum(
            math.prod(mass[list(entry)])
            for entry in itertools.product(range(2), repeat=n)
            if typical((zeros[0], zeros[0], np.array(entry)), p_triple, eps)
        )
        got = float(sim._log_hit_probability(zeros, zeros, p_book, p_triple, eps)[0])
        assert math.isclose(got, math.log(q), rel_tol=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_analytic_probability_matches_enumerated_books(self, data):
        # every binary book entry of length n <= 8, weighted by the book law
        # given the drawn relay input and run through ``typical``; eps often
        # puts a count of some cell on its window's end
        ch, law = covering_law(data)
        n = data.draw(st.integers(1, 8))
        joint = assemble_joint_t1(ch, law)
        p_triple = marginalize(joint, ("X1", "Y1", "Yh1"))
        cell = float(data.draw(st.sampled_from(p_triple.mass[p_triple.mass > 0].tolist())))
        end = abs(data.draw(st.integers(0, n)) / n - cell) / cell
        eps = end if 0.0 < end < 1.0 and data.draw(st.booleans()) else data.draw(
            st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75]) | st.floats(0.01, 0.99))
        p_book = conditional(joint, ("Yh1",), ("X1",))
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        pair_table = sim._table(marginalize(joint, ("X1", "Y1")))
        x1, y1 = (s[0] for s in sim._draw(rng, pair_table, (), 1, n))
        rows = p_book.mass.reshape(-1, 2)[x1]
        q = 0.0
        for entry in itertools.product(range(2), repeat=n):
            if typical((x1, y1, np.array(entry)), p_triple, eps):
                q += math.prod(rows[np.arange(n), entry])
        got = float(sim._log_hit_probability(x1[None], y1[None], p_book, p_triple, eps)[0])
        assert math.isclose(math.exp(got), q, rel_tol=1e-12, abs_tol=0.0)

    def test_big_book_without_analytic_path_is_rejected(self):
        one = {v: Alphabet(v, 1) for v in ("X0", "X2", "Y0", "Y2", "Yh2")}
        two = {v: Alphabet(v, 2) for v in ("X1", "Y1")}
        three = Alphabet("Yh1", 3)
        tr = CondPmf(
            (one["X0"], two["X1"], one["X2"]),
            (one["Y0"], two["Y1"], one["Y2"]),
            np.full((1, 2, 1, 1, 2, 1), 0.5),
        )
        law = T1Law(
            uniform_pmf(two["X1"]),
            point_mass(one["X2"], 0),
            deterministic_cond((two["X1"], one["X2"]), one["X0"], np.zeros((2, 1), dtype=np.int64)),
            CondPmf((two["X1"], two["Y1"]), (three,), np.full((2, 2, 3), 1 / 3)),
            deterministic_cond((one["X2"], one["Y2"]), one["Yh2"], np.zeros((1, 1), dtype=np.int64)),
        )
        with pytest.raises(ResourceLimitError):
            covering_experiment(law, NetworkChannel(tr), 2.0, n=30, trials=1, seed=0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_batched_analytic_path_matches_per_trial_oracle(self, data):
        ch, law = covering_law(data)
        n = data.draw(st.integers(1, 400))
        eps = data.draw(st.floats(0.05, 0.9))
        trials = data.draw(st.integers(1, 12))
        seed = data.draw(st.integers(0, 10**6))
        exponent = data.draw(st.sampled_from([13, 20, 40, 49, 50, 52, 60, 200]))
        joint = assemble_joint_t1(ch, law)
        p_pair = marginalize(joint, ("X1", "Y1"))
        p_triple = marginalize(joint, ("X1", "Y1", "Yh1"))
        p_book = conditional(joint, ("Yh1",), ("X1",))
        pairs, want, successes = [], [], 0
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            pairs.append([s[0] for s in sim._draw(rng, sim._table(p_pair), (), 1, n)])
            want.append(reference_log_one_draw_typical(*pairs[-1], p_book, p_triple, eps))
            successes += rng.random() < sim._hit_probability(want[-1], exponent)
        x1, y1 = (np.stack(seqs) for seqs in zip(*pairs))
        for slice_size in (sim._SLICE, 1, 5 * n):
            with mock.patch.object(sim, "_SLICE", slice_size):
                got = sim._log_hit_probability(x1, y1, p_book, p_triple, eps)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                frac = covering_experiment(law, ch, exponent / n, n, trials, seed, eps)
                assert frac == successes / trials

    def test_log_binomial_is_binom_logpmf_bitwise(self):
        # every count the analytic path scores lies in [0, n], n <= 2^24
        rng = np.random.default_rng(20240613)
        size = 200_000
        n = np.minimum((2.0 ** rng.uniform(0, 24.01, size)).astype(np.int64), sim.MAX_SYMBOLS)
        n[:1000] = np.arange(1000) % 4
        k = np.minimum((rng.random(size) * (n + 1)).astype(np.int64), n)
        k[1000:3000:2], k[1001:3000:2] = 0, n[1001:3000:2]
        p = rng.random(size)
        p[rng.random(size) < 0.1] = 0.0
        p[rng.random(size) < 0.1] = 1.0
        p[rng.random(size) < 0.05] = 1e-300
        p[rng.random(size) < 0.05] = 1 - 2.0 ** -52
        want = binom.logpmf(k, n, p)
        got = log_binomial(k, n, p)
        assert np.isneginf(want).any() and np.isfinite(want).any()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_analytic_path_matches_binom_logpmf_form_bitwise(self, data):
        ch, law = covering_law(data)
        n = data.draw(st.integers(1, 3000))
        eps = data.draw(st.floats(0.01, 0.9))
        trials = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 10**6))
        joint = assemble_joint_t1(ch, law)
        p_pair = marginalize(joint, ("X1", "Y1"))
        p_triple = marginalize(joint, ("X1", "Y1", "Yh1"))
        p_book = conditional(joint, ("Yh1",), ("X1",))
        pairs = [sim._draw(np.random.default_rng([seed, t]), sim._table(p_pair), (), 1, n)
                 for t in range(trials)]
        x1, y1 = (np.concatenate(seqs) for seqs in zip(*pairs))
        for slice_size in (sim._SLICE, 7):
            with mock.patch.object(sim, "_SLICE", slice_size):
                got = sim._log_hit_probability(x1, y1, p_book, p_triple, eps)
                want = binom_log_hit_probability(x1, y1, p_book, p_triple, eps)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_every_entry_typical_is_a_certain_hit(self):
        # the pinned law copies a constant observation, so every book entry is
        # typical: q = 1, and log q = 0 once took log1p(-1) at 2^20 and 2^30
        # entries; 2^5 entries run literally and 2^60 take the Poisson form
        ch, law = broadcast_channel(0.3), pinned_law()
        for rate in (0.05, 0.2, 0.3, 0.6):
            assert covering_experiment(law, ch, rate, n=100, trials=3, seed=0) == 1.0
        # a log q rounded just above 0 is a certain hit too
        assert sim._hit_probability(2.4e-13, 20) == 1.0

    def test_block_length_cap(self):
        ch, law = covering_fixture(0.25)
        with pytest.raises(ResourceLimitError, match="block length"):
            covering_experiment(law, ch, 0.5, n=sim.MAX_SYMBOLS + 1, trials=1, seed=0)

    def test_tiny_book_runs_literally(self):
        ch, law = covering_fixture(0.25)
        frac = covering_experiment(law, ch, 0.2, n=20, trials=20, seed=1, epsilon=0.3)
        assert 0.0 <= frac <= 1.0
        assert frac == covering_experiment(law, ch, 0.2, n=20, trials=20, seed=1, epsilon=0.3)
