"""Optimizer behavior: grid ascent, line-search ascent, restart merging, scoring.

Closed-form anchors: the identity direct link tops out at 1 bit, the
symmetric binary link at 1 - h2(p), and the all-noise channel at zero with
no feasible first-theorem law at all.
"""

import functools
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from tworelay import io, optimize, prob
from tworelay.info import binary_entropy, term_plan
from tworelay.optimize import (
    TOLERANCE,
    OptResult,
    SearchConfig,
    _grid_vectors,
    optimize_t1,
    optimize_t2,
)
from tworelay.prob import (
    LAW_FAMILIES,
    MAX_ALPHABET_SIZE,
    Alphabet,
    CondPmf,
    InvariantError,
    JointPmf,
    NetworkChannel,
    T1Law,
    T2Law,
    ValidationError,
    assemble_joint,
    random_channel,
    random_law,
    random_t1_law,
    random_t2_law,
    uniform_cond,
    uniform_law,
)
from tworelay.rates import THEOREMS, embed_t1_in_t2, eval_theorem1, eval_theorem2, law_hash

EVALUATE = {"t1": eval_theorem1, "t2": eval_theorem2}


def bsc_direct_channel(p):
    """Sender-to-receiver symmetric binary link; relays see nothing."""
    x0, x1, x2 = Alphabet("X0", 2), Alphabet("X1", 1), Alphabet("X2", 1)
    y0, y1, y2 = Alphabet("Y0", 2), Alphabet("Y1", 1), Alphabet("Y2", 1)
    mass = np.zeros((2, 1, 1, 2, 1, 1))
    for a in range(2):
        mass[a, 0, 0, a, 0, 0] = 1 - p
        mass[a, 0, 0, 1 - a, 0, 0] = p
    return NetworkChannel(CondPmf((x0, x1, x2), (y0, y1, y2), mass))


def vertex_t2_law(channel):
    """Deterministic sender input, every auxiliary a singleton."""
    x0 = channel.alphabet("X0")
    x1 = channel.alphabet("X1")
    x2 = channel.alphabet("X2")
    y1 = channel.alphabet("Y1")
    y2 = channel.alphabet("Y2")
    v1, v2 = Alphabet("V1", 1), Alphabet("V2", 1)
    yh1, yh2 = Alphabet("Yh1", 1), Alphabet("Yh2", 1)
    table = np.zeros((1, 1, 1, 1, x0.size))
    table[..., 0] = 1.0
    return T2Law(
        px1=JointPmf((x1,), np.ones((1,))),
        px2=JointPmf((x2,), np.ones((1,))),
        pv1_given_x1=uniform_cond((x1,), (v1,)),
        pv2_given_x2=uniform_cond((x2,), (v2,)),
        px0_given_x1x2v1v2=CondPmf((x1, x2, v1, v2), (x0,), table),
        pyh1_given_x1v1y1=uniform_cond((x1, v1, y1), (yh1,)),
        pyh2_given_x2v2y2=uniform_cond((x2, v2, y2), (yh2,)),
    )


class TestSearchConfig:
    def test_defaults_valid(self):
        SearchConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "annealing"},
            {"resolution": 1},
            {"restarts": -1},
            {"max_iter": 0},
            {"seed": -1},
            {"mode": ""},
            {"yh1_size": 0},
            {"v2_size": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize("name", ["yh1_size", "yh2_size", "v1_size", "v2_size"])
    def test_each_size_checked_as_an_alphabet(self, name):
        # a size is checked by the one alphabet rule, whichever family the
        # search runs, so a t1 search refuses an auxiliary size a t2 one would
        vid = {"yh1_size": "Yh1", "yh2_size": "Yh2", "v1_size": "V1", "v2_size": "V2"}[name]
        for size in (0, MAX_ALPHABET_SIZE + 1):
            with pytest.raises(ValidationError) as caught:
                SearchConfig(**{name: size})
            assert str(caught.value) == (
                f"alphabet {vid}: size {size} outside [1, {MAX_ALPHABET_SIZE}]")
        SearchConfig(**{name: MAX_ALPHABET_SIZE})


class TestOptResult:
    def test_decreasing_trace_rejected(self):
        chan = io.channel_preset("identity-direct")
        res = optimize_t1(chan, SearchConfig(mode="grid", resolution=2))
        with pytest.raises(InvariantError):
            OptResult(
                res.theorem,
                res.best_law,
                res.best_report,
                res.evaluations,
                (1.0, 0.5),
                False,
            )

    def test_to_dict_round_trips_law(self):
        chan = io.channel_preset("identity-direct")
        res = optimize_t1(chan, SearchConfig(mode="grid", resolution=4))
        payload = res.to_dict()
        assert payload["format_version"] == 1
        assert payload["kind"] == "optimization"
        law = io.law_from_dict(payload["law"])
        report = eval_theorem1(chan, law)
        assert report.objective_bits == pytest.approx(
            payload["best_objective_bits"], abs=1e-12
        )


class TestGridCandidates:
    def test_enumeration_order_is_pinned(self):
        # scan order decides ties: the first maximum wins
        grid = _grid_vectors(3, 2)
        assert grid.tolist() == [
            [0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0],
        ]
        # the product over range(r + 1) lists the compositions in the same
        # lexicographic order, once filtered to those that sum to r
        for k, r in [(1, 5), (2, 7), (3, 9), (4, 6), (5, 4), (6, 3), (8, 2)]:
            expected = [
                [c / r for c in combo]
                for combo in itertools.product(range(r + 1), repeat=k)
                if sum(combo) == r
            ]
            assert _grid_vectors(k, r).tolist() == expected, (k, r)

    def test_shared_array_is_read_only(self):
        grid = _grid_vectors(2, 4)
        assert _grid_vectors(2, 4) is grid
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0

    @pytest.mark.parametrize(
        "run, crossover, resolution, evaluations",
        [
            (optimize_t1, {"Y0": 0.25, "Y1": 0.05, "Y2": 0.05}, 16, 715),
            (optimize_t2, {"Y0": 0.25, "Y1": 0.05, "Y2": 0.05}, 8, 343),
            (optimize_t1, None, 32, 991),
        ],
    )
    def test_benchmark_grids_score_the_same_candidates(
        self, run, crossover, resolution, evaluations
    ):
        chan = (
            io.channel_preset("identity-direct")
            if crossover is None
            else io.channel_preset("binary-symmetric-links", crossover=crossover)
        )
        res = run(chan, SearchConfig(mode="grid", resolution=resolution))
        assert res.evaluations == evaluations
        evaluate = eval_theorem1 if run is optimize_t1 else eval_theorem2
        assert evaluate(chan, res.best_law).objective_bits == res.best_objective_bits
        assert res.trace[-1] == res.best_objective_bits

    def test_ties_go_to_the_first_maximum(self, monkeypatch):
        # two candidates of every slice tie for the top score; the search
        # must take the first of them in enumeration order
        chan = io.channel_preset("identity-direct")
        law = uniform_law(T1Law, chan, {"Yh1": 2, "Yh2": 2})
        law = optimize._set_slice(law, "px0_given_x1x2", (0, 0), [1.0, 0.0])
        tied = np.array([-math.inf, 5.0, -math.inf, 5.0, -math.inf])  # [1/4, 3/4] and [3/4, 1/4]
        monkeypatch.setattr(optimize, "_slice_scorer", lambda *args: lambda grid: tied)
        cfg = SearchConfig(resolution=4, max_iter=1)
        moves = functools.partial(optimize._grid_moves, cfg.resolution)
        found, *_ = optimize._ascend(law, chan, "t1", cfg, moves)
        assert found.px1.mass.tolist() == [0.25, 0.75]
        assert found.px0_given_x1x2.mass[0, 0].tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("run", [optimize_t1, optimize_t2])
    def test_batch_size_does_not_change_the_result(self, run, monkeypatch):
        # a grid is scored in batches of at most _BATCH_CELLS marginal cells;
        # one candidate per batch must give the same search
        chan = io.channel_preset(
            "binary-symmetric-links", crossover={"Y0": 0.2, "Y1": 0.1, "Y2": 0.1}
        )
        cfg = SearchConfig(mode="grid", resolution=6)
        whole = run(chan, cfg).to_dict()
        monkeypatch.setattr(optimize, "_BATCH_CELLS", 1)
        assert run(chan, cfg).to_dict() == whole


class TestGridMode:
    def test_all_noise_objective_zero(self):
        res = optimize_t1(
            io.channel_preset("all-noise"), SearchConfig(mode="grid", resolution=4)
        )
        assert res.best_objective_bits == pytest.approx(0.0, abs=1e-9)
        # no law makes the decoding budgets positive on pure noise
        assert res.infeasible_everywhere
        assert res.trace == ()

    def test_identity_direct_recovers_one_bit(self):
        res = optimize_t1(
            io.channel_preset("identity-direct"),
            SearchConfig(mode="grid", resolution=8),
        )
        assert res.best_report.feasible
        assert res.best_objective_bits >= 0.98

    def test_doubling_resolution_never_worse(self):
        chan = io.channel_preset("identity-direct")
        values = [
            optimize_t1(chan, SearchConfig(mode="grid", resolution=r)).best_objective_bits
            for r in (4, 8, 16)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_deterministic(self):
        chan = io.channel_preset("identity-direct")
        cfg = SearchConfig(mode="grid", resolution=4)
        a = json.dumps(optimize_t1(chan, cfg).to_dict(), sort_keys=True)
        b = json.dumps(optimize_t1(chan, cfg).to_dict(), sort_keys=True)
        assert a == b

    def test_reported_objective_reverifies(self):
        chan = io.channel_preset(
            "binary-symmetric-links", crossover={"Y0": 0.3, "Y1": 0.1, "Y2": 0.1}
        )
        res = optimize_t1(chan, SearchConfig(mode="grid", resolution=4))
        fresh = eval_theorem1(chan, res.best_law)
        assert fresh.objective_bits == pytest.approx(res.best_objective_bits, abs=1e-12)
        assert fresh.feasible == res.best_report.feasible

    def test_t2_all_noise_zero(self):
        res = optimize_t2(
            io.channel_preset("all-noise"),
            SearchConfig(mode="grid", resolution=2, v1_size=1, v2_size=1),
        )
        assert res.best_objective_bits == pytest.approx(0.0, abs=1e-9)

    def test_t2_singleton_auxiliaries_match_t1_family(self):
        # same slice family, so the optima agree up to margin semantics: the
        # second evaluator admits boundary laws (decoding budgets exactly
        # zero) that the first excludes by its strict margins, and the first
        # recovers the difference as its grid refines the input coupling
        chan = io.channel_preset(
            "binary-symmetric-links", crossover={"Y0": 0.3, "Y1": 0.1, "Y2": 0.1}
        )
        bound = 1 - binary_entropy(0.3)
        r2 = optimize_t2(
            chan, SearchConfig(mode="grid", resolution=4, v1_size=1, v2_size=1)
        )
        assert r2.best_objective_bits == pytest.approx(bound, abs=1e-9)
        r1 = optimize_t1(chan, SearchConfig(mode="grid", resolution=16))
        assert r1.best_objective_bits == pytest.approx(bound, abs=1e-4)
        assert r2.best_objective_bits >= r1.best_objective_bits - 1e-9


class Recorder:
    """A slice scorer that records each batch and its scores."""

    def __init__(self, score):
        self.score, self.batches, self.values = score, [], []

    def __call__(self, w):
        self.batches.append(np.array(w))
        self.values.append(np.asarray(self.score(w), dtype=float))
        return self.values[-1]


class TestLineMove:
    BASE = np.array([0.2, 0.5, 0.3])

    def test_scores_33_candidates_in_two_calls(self):
        scorer = Recorder(lambda w: -((w[:, 0] - 0.7) ** 2))
        point, value, count = optimize._line_move(0, scorer, self.BASE)
        assert count == 33
        assert [len(b) for b in scorer.batches] == [17, 16]
        assert scorer.batches[0][0].tolist() == self.BASE.tolist()  # t = 0 first
        assert value == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("seed", range(20))
    def test_on_the_segment_and_never_below_base(self, seed):
        # noisy scores with minus infinity at random points
        rng = np.random.default_rng(seed)
        base = rng.dirichlet(np.ones(4))
        vertex = int(rng.integers(4))
        scorer = Recorder(lambda w: np.where(rng.random(len(w)) < 0.3, -math.inf,
                                             rng.normal(size=len(w))))
        point, value, _ = optimize._line_move(vertex, scorer, base)
        values = np.concatenate(scorer.values)
        assert value >= values[0] and value == values.max()
        assert any(np.array_equal(point, w) for w in np.vstack(scorer.batches))
        t = (point[vertex] - base[vertex]) / (1.0 - base[vertex])
        assert -1e-12 <= t <= 1.0 + 1e-12
        assert np.allclose(point, (1.0 - t) * base + t * np.eye(4)[vertex], atol=1e-12)

    def test_ties_go_to_the_first_point_scanned(self):
        # constant: the current point wins
        point, value, _ = optimize._line_move(1, Recorder(lambda w: np.full(len(w), 2.0)), self.BASE)
        assert point.tolist() == self.BASE.tolist() and value == 2.0
        # the first batch's tie at t = 4/16 and 12/16 goes to 4/16, and the
        # second batch, inside the bracket around 4/16, only ties it again
        first = np.zeros(17)
        first[[4, 12]] = 1.0
        scores = iter([first, np.ones(16)])
        scorer = Recorder(lambda w: next(scores))
        point, value, _ = optimize._line_move(1, scorer, self.BASE)
        assert point.tolist() == scorer.batches[0][4].tolist() and value == 1.0
        assert np.all(scorer.batches[1][:, 1] > scorer.batches[0][3][1])
        assert np.all(scorer.batches[1][:, 1] < scorer.batches[0][5][1])
        # a better second-batch point beats every first-batch point
        scores = iter([first, np.arange(16.0)])
        point, value, _ = optimize._line_move(1, Recorder(lambda w: next(scores)), self.BASE)
        assert value == 15.0


def line_ascent(law, channel, theorem, cfg):
    """The law one random-restart ascent reaches from ``law``."""
    return optimize._ascend(law, channel, theorem, cfg, optimize._line_moves)[0]


class TestLocalRefine:
    def test_vertex_start_reaches_uniform_input(self):
        p = 0.11
        chan = bsc_direct_channel(p)
        cfg = SearchConfig(mode="random-restart", max_iter=10)
        refined = line_ascent(vertex_t2_law(chan), chan, "t2", cfg)
        px0 = refined.px0_given_x1x2v1v2.mass.reshape(2)
        assert px0[0] == pytest.approx(0.5, abs=1e-3)
        report = eval_theorem2(chan, refined)
        assert report.objective_bits == pytest.approx(
            1 - binary_entropy(p), abs=1e-6
        )

    def test_solved_instance_is_a_fixed_point(self):
        chan = bsc_direct_channel(0.11)
        cfg = SearchConfig(mode="random-restart", max_iter=10)
        once = line_ascent(vertex_t2_law(chan), chan, "t2", cfg)
        twice = line_ascent(once, chan, "t2", cfg)
        a = eval_theorem2(chan, once).objective_bits
        b = eval_theorem2(chan, twice).objective_bits
        assert b >= a - 1e-12
        assert b == pytest.approx(a, abs=TOLERANCE)

    def test_each_move_starts_from_the_current_point(self, monkeypatch):
        # a slice's next line search starts where an accepted one ended, and
        # from the same point when the move was rejected
        calls = []
        scan = optimize._line_move

        def spy(vertex, slice_value, base):
            out = scan(vertex, slice_value, base)
            calls.append((vertex, base.tolist(), out[0].tolist()))
            return out

        monkeypatch.setattr(optimize, "_line_move", spy)
        chan = io.channel_preset("identity-direct")
        start = random_t1_law(np.random.default_rng([3, 0]), chan)
        line_ascent(start, chan, "t1", SearchConfig(mode="random-restart", max_iter=2))
        pairs = [(a, b) for a, b in zip(calls, calls[1:]) if b[0] == a[0] + 1]
        assert pairs
        assert all(b[1] in (a[1], a[2]) for a, b in pairs)
        assert any(b[1] == a[2] != a[1] for a, b in pairs)

    def test_never_worse_on_random_starts(self):
        chan = io.channel_preset(
            "binary-symmetric-links", crossover={"Y0": 0.2, "Y1": 0.1, "Y2": 0.1}
        )
        cfg = SearchConfig(mode="random-restart", max_iter=2)
        for i in range(3):
            rng = np.random.default_rng([99, i])
            start = random_t2_law(rng, chan)
            before = eval_theorem2(chan, start)
            after = eval_theorem2(chan, line_ascent(start, chan, "t2", cfg))
            if before.feasible:
                assert after.feasible
                assert after.objective_bits >= before.objective_bits - 1e-12


class TestOneScorer:
    @pytest.mark.parametrize("theorem", ["t1", "t2"])
    def test_full_score_is_the_evaluators_merit(self, theorem):
        # alphabets and auxiliaries of 1-3 letters; the sample must hold
        # feasible and infeasible laws and, for t2, clamped DF bounds
        feasible, clamped = set(), set()
        for seed in range(40):
            rng = np.random.default_rng([2026, seed])
            sizes = {v: int(rng.integers(1, 4)) for v in ("X0", "X1", "X2", "Y0", "Y1", "Y2")}
            channel = random_channel(rng, sizes)
            aux = {v: int(rng.integers(1, 4)) for v in ("V1", "V2", "Yh1", "Yh2")}
            law = random_law(LAW_FAMILIES[theorem], rng, channel, aux)
            report = EVALUATE[theorem](channel, law)
            expected = float(optimize._merit(report.feasible, report.objective_bits))
            joint = assemble_joint(channel, law)
            plan = term_plan(THEOREMS[theorem].queries, joint.ids, joint.mass.shape)
            stack = plan.marginals(joint.mass)
            assert float(optimize._merits(theorem, plan, stack)) == expected, seed
            assert optimize._merits(theorem, plan, stack[None]).tolist() == [expected], seed
            feasible.add(report.feasible)
            clamped.update(f for f in report.flags if f.startswith("df-bound-clamped"))
        assert feasible == {True, False}
        assert bool(clamped) == (theorem == "t2")


class TestSearchWork:
    BSC = ("binary-symmetric-links", {"Y0": 0.3, "Y1": 0.1, "Y2": 0.1})

    @pytest.mark.parametrize(
        "run, cfg",
        [
            (optimize_t2, SearchConfig(mode="grid", resolution=4)),
            (optimize_t1, SearchConfig(mode="random-restart", restarts=2, max_iter=2, seed=3)),
        ],
        ids=["grid-t2", "random-restart-t1"],
    )
    def test_one_assembly_per_law_and_one_report_per_search(self, run, cfg, monkeypatch):
        name, crossover = self.BSC
        chan = io.channel_preset(name, crossover=crossover)
        theorem = "t1" if run is optimize_t1 else "t2"
        assembled, full, reported = [], [], []
        assemble, merits = optimize.assemble_joint, optimize._merits

        def spy_assemble(channel, law):
            assembled.append((law, assemble(channel, law)))
            return assembled[-1][1]

        def spy_merits(theorem, plan, stack):
            if stack.ndim == 1:  # a law's own stack: a full score
                full.append(stack)
            return merits(theorem, plan, stack)

        def spy_evaluate(evaluate):
            return lambda channel, law: reported.append(law) or evaluate(channel, law)

        monkeypatch.setattr(optimize, "assemble_joint", spy_assemble)
        monkeypatch.setattr(optimize, "_merits", spy_merits)
        monkeypatch.setattr(optimize, "eval_theorem1", spy_evaluate(eval_theorem1))
        monkeypatch.setattr(optimize, "eval_theorem2", spy_evaluate(eval_theorem2))
        result = run(chan, cfg)

        family, sizes = LAW_FAMILIES[theorem], {}  # 2-letter auxiliaries, as in cfg
        if cfg.mode == "grid":
            starts = [uniform_law(family, chan, sizes)]
        else:
            rngs = (np.random.default_rng([cfg.seed, i]) for i in range(cfg.restarts))
            starts = [random_law(family, rng, chan, sizes) for rng in rngs]

        # one report, for the returned law
        assert len(reported) == 1 and reported[0] is result.best_law
        # one assembly per law scored in full, scored from that assembly:
        # the starts and the candidates that won their batches
        assert len(assembled) == len(full) > len(starts)
        for (_, joint), stack in zip(assembled, full):
            plan = term_plan(THEOREMS[theorem].queries, joint.ids, joint.mass.shape)
            assert np.array_equal(plan.marginals(joint.mass), stack)
        # each start once, in order
        hashes = [law_hash(law) for law, _ in assembled]
        assert [h for h in hashes if h in map(law_hash, starts)] == list(map(law_hash, starts))

    @pytest.mark.parametrize("theorem", ["t1", "t2"])
    def test_one_slab_product_per_factor_visit(self, theorem, monkeypatch):
        # one grid sweep on the README channel, Yh2 a single letter: every
        # factor with k > 1 letters gets one product for the slabs of all its
        # cells, and the one-letter factor none
        chan = io.channel_preset("binary-symmetric-links",
                                 crossover={"Y0": 0.25, "Y1": 0.05, "Y2": 0.05})
        cfg = SearchConfig(mode="grid", resolution=4, max_iter=1, yh2_size=1)
        names, terms, _ = prob._product_plan(LAW_FAMILIES[theorem])
        left_out, product = [], prob._product

        def spy(operands, kept, out_ids, shape):
            if len(kept) < len(terms):
                left_out.append([n for n, ids in zip(names, terms) if ids not in kept])
            return product(operands, kept, out_ids, shape)

        monkeypatch.setattr(prob, "_product", spy)
        {"t1": optimize_t1, "t2": optimize_t2}[theorem](chan, cfg)
        factors = LAW_FAMILIES[theorem].factors
        assert left_out == [[f.name] for f in factors if f.target != ("Yh2",)]
        assert len(left_out) == len(factors) - 1

    @pytest.mark.parametrize("theorem", ["t1", "t2"])
    def test_one_slab_cell_table_per_factor_visit(self, theorem, monkeypatch):
        # the same sweep: every factor with k > 1 letters asks once for the
        # table of where its slabs' marginals sit, its given and target ids
        # fixed, not once per conditioning cell
        chan = io.channel_preset("binary-symmetric-links",
                                 crossover={"Y0": 0.25, "Y1": 0.05, "Y2": 0.05})
        cfg = SearchConfig(mode="grid", resolution=4, max_iter=1, yh2_size=1)
        asked, slab_cells = [], optimize.slab_cells

        def spy(plan, fixed, *rest):
            asked.append(fixed)
            return slab_cells(plan, fixed, *rest)

        monkeypatch.setattr(optimize, "slab_cells", spy)
        {"t1": optimize_t1, "t2": optimize_t2}[theorem](chan, cfg)
        factors = LAW_FAMILIES[theorem].factors
        assert asked == [f.given + f.target for f in factors if f.target != ("Yh2",)]

    def test_no_assembled_candidate_is_its_incumbent(self, monkeypatch):
        # a line move's best point can be its own base point, whose batch
        # score beats the incumbent only by rounding; the search workload's
        # random-restart t1 task assembled six such candidates
        compared = []
        set_slice = optimize._set_slice

        def spy(law, name, cell, vec):
            compared.append(np.array_equal(vec, optimize._get_slice(law, name, cell)))
            return set_slice(law, name, cell, vec)

        monkeypatch.setattr(optimize, "_set_slice", spy)
        optimize_t1(io.channel_preset("identity-direct"),
                    SearchConfig(mode="random-restart", restarts=2, max_iter=2, seed=4242))
        assert len(compared) > 10 and not any(compared)


class TestBlockBudget:
    """``prob.BLOCK_ENTRIES`` bounds the blocks of ``info.entropy``'s row
    passes; no budget moves a search result."""

    def searches(self):
        # the t2 restart scores (16, 1162) and (17, 1162) stacks, which the
        # default budget splits into blocks
        crossover = {"Y0": 0.25, "Y1": 0.05, "Y2": 0.05}
        bsc = io.channel_preset("binary-symmetric-links", crossover=crossover)
        return [json.dumps(run(bsc, cfg).to_dict()) for run, cfg in [
            (optimize_t2, SearchConfig(mode="random-restart", restarts=1, max_iter=1, seed=4242)),
            (optimize_t2, SearchConfig(mode="grid", resolution=3)),
            (optimize_t1, SearchConfig(mode="random-restart", restarts=1, max_iter=1, seed=7)),
        ]]

    @pytest.mark.parametrize("budget", [1, 2**30])
    def test_search_results_do_not_depend_on_the_budget(self, monkeypatch, budget):
        want = self.searches()
        monkeypatch.setattr(prob, "BLOCK_ENTRIES", budget)
        assert self.searches() == want


class TestNonBinaryBits:
    """sha256 of the ``to_dict()`` JSON of searches over ternary alphabets,
    which the goldens in ``tests/golden`` (all binary) do not reach."""

    @pytest.mark.parametrize("theorem, channel, options, digest", [
        ("t2", lambda: random_channel(np.random.default_rng(2026)),
         dict(mode="grid", resolution=4, v1_size=3, v2_size=3, yh1_size=3, yh2_size=3),
         "1300de5c85184b13961671a70b9991574bde22187ac0697c698104528740f42e"),
        ("t2", lambda: random_channel(np.random.default_rng(7), {"X0": 3, "Y1": 3}),
         dict(mode="grid", resolution=8),
         "5b7c287dbe351bcd36aedf2c292ae1724071a93b2522bc540d7190a03a781614"),
        ("t1", lambda: io.channel_preset("binary-symmetric-links",
                                         crossover={"Y0": 0.25, "Y1": 0.05, "Y2": 0.05}),
         dict(mode="random-restart", restarts=3, max_iter=4, seed=2, v1_size=3, yh1_size=3),
         "b53161c409406e85e0cbd254de5622c64e20abef74b473655f3cc06f4b24f6dd"),
        ("t2", lambda: io.channel_preset("identity-direct"),
         dict(mode="random-restart", restarts=3, max_iter=4, seed=1, v1_size=3, yh1_size=3),
         "834429705c86cfd7e9a65fb13c99038b515c174d9b920a301eed492645ce9fba"),
    ], ids=["t2-grid-aux3", "t2-grid-ternary-channel", "t1-restart", "t2-restart"])
    def test_search_output_is_pinned(self, theorem, channel, options, digest):
        run = {"t1": optimize_t1, "t2": optimize_t2}[theorem]
        text = io.dumps(run(channel(), SearchConfig(**options)).to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRandomRestart:
    CHAN = ("binary-symmetric-links", {"Y0": 0.3, "Y1": 0.1, "Y2": 0.1})

    def channel(self):
        name, crossover = self.CHAN
        return io.channel_preset(name, crossover=crossover)

    def test_deterministic_across_worker_counts(self):
        cfg = SearchConfig(mode="random-restart", restarts=3, max_iter=3, seed=5)
        chan = self.channel()
        serial = json.dumps(optimize_t1(chan, cfg, jobs=1).to_dict(), sort_keys=True)
        threaded = json.dumps(optimize_t1(chan, cfg, jobs=3).to_dict(), sort_keys=True)
        assert serial == threaded

    def test_more_restarts_never_hurt(self):
        chan = self.channel()
        small = optimize_t1(
            chan, SearchConfig(mode="random-restart", restarts=2, max_iter=2, seed=7)
        )
        large = optimize_t1(
            chan, SearchConfig(mode="random-restart", restarts=4, max_iter=2, seed=7)
        )
        assert large.best_objective_bits >= small.best_objective_bits - 1e-15

    def test_trace_shape(self):
        res = optimize_t1(
            self.channel(),
            SearchConfig(mode="random-restart", restarts=4, max_iter=2, seed=1),
        )
        assert len(res.trace) <= 4
        assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
        # candidates are scored slice-linearly, but every incumbent is a
        # full evaluation of its law
        assert res.trace[-1] == res.best_objective_bits
        assert eval_theorem1(self.channel(), res.best_law).objective_bits == res.trace[-1]

    def test_zero_restarts_still_reports_a_law(self):
        res = optimize_t1(
            self.channel(),
            SearchConfig(mode="random-restart", restarts=0, max_iter=2, seed=2),
        )
        assert res.evaluations >= 1
        assert math.isfinite(res.best_objective_bits) or res.infeasible_everywhere


class TestEmbeddingOrder:
    def test_second_family_scores_first_optimum_no_worse(self):
        chan = io.channel_preset(
            "binary-symmetric-links", crossover={"Y0": 0.3, "Y1": 0.1, "Y2": 0.1}
        )
        res1 = optimize_t1(chan, SearchConfig(mode="grid", resolution=4))
        embedded = embed_t1_in_t2(res1.best_law)
        report = eval_theorem2(chan, embedded)
        assert report.feasible
        assert report.objective_bits >= res1.best_objective_bits - 1e-9
