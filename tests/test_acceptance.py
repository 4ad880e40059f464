"""Acceptance checklist for the package as a whole.

One test per shipped guarantee, ordered from the information measures up to
the end-to-end command line surface.  Every seed is pinned, so each figure
is reproducible bit for bit; a verbose run reads as the checklist.  Each
test also enforces its own wall-clock ceiling.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import tworelay
from tworelay import cli, fm, sim
from tworelay import io as tio
from tworelay.info import InfoQuery, entropy, mutual_info
from tworelay.io import channel_preset
from tworelay.lp import OPTIMAL
from tworelay.optimize import SearchConfig, optimize_t1
from tworelay.prob import (
    Alphabet,
    CondPmf,
    JointPmf,
    NetworkChannel,
    T1Law,
    assemble_joint_t1,
    assemble_joint_t2,
    deterministic_cond,
    point_mass,
    random_channel,
    random_t1_law,
    random_t2_law,
    uniform_pmf,
    uniform_t1_law,
)
from tworelay.rates import (
    T1Rates,
    embed_t1_in_t2,
    eval_theorem1,
    eval_theorem2,
)

# 50-digit decimal oracles for the binary entropy at the pinned flip rates
H2_005 = 0.28639695711595612876647597772789747430599920184611
H2_011 = 0.49991595816452799564049959413027566263640075554318
H2_025 = 0.81127812445913286390969579203913761843013919423062

SEED_ZEROS = 21
SEED_EMBED = 31
SEED_LP_T1 = 41
SEED_LP_T2 = 42


# ---------------------------------------------------------------------------
# shared toy networks
# ---------------------------------------------------------------------------


def broadcast_channel():
    """All three outputs copy the sender bit exactly."""
    axs = {v: Alphabet(v, 2) for v in ("X0", "X1", "X2", "Y0", "Y1", "Y2")}
    mass = np.zeros((2, 2, 2, 2, 2, 2))
    for a in range(2):
        mass[a, :, :, a, a, a] = 1.0
    return NetworkChannel(
        CondPmf((axs["X0"], axs["X1"], axs["X2"]),
                (axs["Y0"], axs["Y1"], axs["Y2"]), mass)
    )


def pinned_law():
    """Every component a point mass; the compression variables copy."""
    ax = {v: Alphabet(v, 2) for v in ("X0", "X1", "X2", "Y1", "Y2", "Yh1", "Yh2")}
    copy = np.arange(2)[None, :].repeat(2, axis=0)
    return T1Law(
        point_mass(ax["X1"], 0),
        point_mass(ax["X2"], 0),
        deterministic_cond((ax["X1"], ax["X2"]), ax["X0"], np.zeros((2, 2), dtype=np.int64)),
        deterministic_cond((ax["X1"], ax["Y1"]), ax["Yh1"], copy),
        deterministic_cond((ax["X2"], ax["Y2"]), ax["Yh2"], copy),
    )


def covering_pair(alpha):
    """Relay 1 compresses a fair coin through a flip; everything else trivial."""
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


def silent_quantizers(law):
    """Pin every compression conditional to a point mass.

    Costs nothing and reveals nothing, so the existence conditions reduce to
    strictly positive decoding budgets and the law is generically feasible.
    """
    if isinstance(law, T1Law):
        fields = ("pyh1_given_x1y1", "pyh2_given_x2y2")
    else:
        fields = ("pyh1_given_x1v1y1", "pyh2_given_x2v2y2")
    replaced = {}
    for field, out in zip(fields, ("Yh1", "Yh2")):
        given = getattr(law, field).given
        shape = tuple(a.size for a in given)
        replaced[field] = deterministic_cond(
            given, Alphabet(out, 2), np.zeros(shape, dtype=np.int64))
    return dataclasses.replace(law, **replaced)


# ---------------------------------------------------------------------------
# the checklist
# ---------------------------------------------------------------------------


def test_information_oracles_match_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (2, 3, 5, 8):
        u = JointPmf((Alphabet("X0", k),), np.full(k, 1.0 / k))
        worst = max(worst, abs(entropy(u) - math.log2(k)))
    spike = np.zeros(6)
    spike[4] = 1.0
    worst = max(worst, abs(entropy(JointPmf((Alphabet("X0", 6),), spike))))
    q = InfoQuery(("X0",), ("Y0",))
    for p, h in ((0.05, H2_005), (0.11, H2_011), (0.25, H2_025)):
        flip = 0.5 * np.array([[1 - p, p], [p, 1 - p]])
        joint = JointPmf((Alphabet("X0", 2), Alphabet("Y0", 2)), flip)
        worst = max(worst, abs(mutual_info(joint, q) - (1.0 - h)))
    dt = time.perf_counter() - t0
    assert worst <= 1e-9
    assert dt < 1.0
    print(f"PASS information oracles: worst error {worst:.2e} in {dt:.2f}s")


def test_law_factorization_forces_relay_independence():
    t0 = time.perf_counter()
    q1 = InfoQuery(("X1",), ("X2",))
    q2 = InfoQuery(("X1", "V1"), ("X2", "V2"))
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng([SEED_ZEROS, i])
        channel = random_channel(rng)
        joint = assemble_joint_t1(channel, random_t1_law(rng, channel))
        worst = max(worst, mutual_info(joint, q1))
    for i in range(200):
        rng = np.random.default_rng([SEED_ZEROS, 1000 + i])
        channel = random_channel(rng)
        joint = assemble_joint_t2(channel, random_t2_law(rng, channel))
        worst = max(worst, mutual_info(joint, q1), mutual_info(joint, q2))
    dt = time.perf_counter() - t0
    assert worst <= 1e-10
    assert dt < 30.0
    print(f"PASS structural zeros: worst leak {worst:.2e} over 400 laws in {dt:.1f}s")


def test_first_scheme_embeds_in_second():
    t0 = time.perf_counter()
    pair_map = {"(2)": "(6b)", "(3)": "(7b)", "(4a)": "(8a)", "(4b)": "(8b)"}
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng([SEED_EMBED, i])
        channel = random_channel(rng)
        law = random_t1_law(rng, channel)
        r1 = eval_theorem1(channel, law)
        r2 = eval_theorem2(channel, embed_t1_in_t2(law), df_rates=(0.0, 0.0))
        worst = max(worst, abs(r2.objective_bits - r1.objective_bits))
        c1 = {c.label: c for c in r1.constraints}
        c2 = {c.label: c for c in r2.constraints}
        for a, b in pair_map.items():
            worst = max(worst, abs(c2[b].lhs - c1[a].lhs), abs(c2[b].rhs - c1[a].rhs))
    dt = time.perf_counter() - t0
    assert worst <= 1e-9
    assert dt < 30.0
    print(f"PASS embedding: worst deviation {worst:.2e} over 100 laws in {dt:.1f}s")


def test_projected_system_agrees_with_evaluator():
    """Exact rational max of the staged system vs the closed-form report.

    A fully random law is essentially always infeasible (random quantizers
    cost more than the decoding budget), which checks the refusal side; the
    same draw with silenced quantizers is generically feasible and checks
    the value side.
    """
    t0 = time.perf_counter()
    worst = 0.0
    n_feasible = 0
    n_infeasible = 0
    for theorem, count, base in (("t1", 50, SEED_LP_T1), ("t2", 30, SEED_LP_T2)):
        raw = fm.builtin_system(theorem)
        for i in range(count):
            rng = np.random.default_rng([base, i])
            channel = random_channel(rng)
            if theorem == "t1":
                drawn = random_t1_law(rng, channel)
            else:
                drawn = random_t2_law(rng, channel)
            for law in (drawn, silent_quantizers(drawn)):
                if theorem == "t1":
                    joint = assemble_joint_t1(channel, law)
                    report = eval_theorem1(channel, law)
                else:
                    joint = assemble_joint_t2(channel, law)
                    report = eval_theorem2(channel, law)
                result = fm.max_rate(raw, fm.binding_of(joint, theorem))
                if report.feasible:
                    n_feasible += 1
                    assert result.status == OPTIMAL, (theorem, i)
                    worst = max(worst, abs(float(result.value) - report.objective_bits))
                else:
                    n_infeasible += 1
                    attains = (result.status == OPTIMAL
                               and float(result.value) >= report.objective_bits - 1e-6)
                    assert not attains, (theorem, i)
    dt = time.perf_counter() - t0
    assert worst <= 1e-6
    assert n_feasible > 0 and n_infeasible > 0
    dt_msg = (f"PASS staged-system agreement: {n_feasible} feasible / "
              f"{n_infeasible} infeasible, worst gap {worst:.2e} in {dt:.1f}s")
    assert dt < 120.0
    print(dt_msg)


def test_symbolic_reduction_verdicts(capsys):
    t0 = time.perf_counter()
    for which, seed in (("t1", 10), ("t2", 3)):
        code = cli.main(["fm", which, "--check-against", which,
                        "--bindings", "30", "--seed", str(seed)])
        cap = capsys.readouterr()
        assert code == 0
        assert cap.out.rstrip().endswith("# verdict: equivalent"), which
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"PASS symbolic reduction: both families equivalent over 30 bindings in {dt:.1f}s")


def test_covering_succeeds_above_rate_threshold():
    t0 = time.perf_counter()
    channel, law = covering_pair(0.25)
    anchor = 1.0 - H2_025
    hi = sim.covering_experiment(
        law, channel, anchor + 0.1, n=1000, trials=200, seed=0, epsilon=0.2)
    lo = sim.covering_experiment(
        law, channel, anchor - 0.1, n=1000, trials=200, seed=0, epsilon=0.2)
    dt = time.perf_counter() - t0
    assert hi >= 0.95
    assert lo <= 0.5
    assert dt < 120.0
    print(f"PASS covering threshold: success {hi:.3f} above, {lo:.3f} below in {dt:.1f}s")


def test_direct_link_capacity_recovered():
    t0 = time.perf_counter()
    result = optimize_t1(
        channel_preset("identity-direct"),
        SearchConfig(mode="grid", resolution=32),
    )
    dt = time.perf_counter() - t0
    assert not result.infeasible_everywhere
    assert result.best_objective_bits >= 0.98
    assert dt < 60.0
    print(f"PASS capacity recovery: {result.best_objective_bits:.6f} bits in {dt:.1f}s")


def test_noiseless_run_records_zero_errors():
    t0 = time.perf_counter()
    cfg = sim.SimConfig(
        n=8,
        blocks=3,
        rates=T1Rates(0.0, 0.0, 0.0, 0.0, 0.0),
        typicality=sim.TypicalityParams(0.2),
        trials=50,
        seed=0,
    )
    stats = sim.run_cf(broadcast_channel(), pinned_law(), cfg)
    dt = time.perf_counter() - t0
    assert stats.blocks_decoded == 100
    assert all(v == 0 for v in stats.stage_errors.values())
    assert dt < 10.0
    print(f"PASS noiseless run: {stats.blocks_decoded} blocks clean in {dt:.1f}s")


def test_reruns_are_byte_identical_under_any_jobs(tmp_path, capsys):
    """Same seeds must give the same bytes, whatever the worker count."""
    chan = tmp_path / "chan.json"
    chan.write_text(tio.dumps(
        {"format_version": 1, "kind": "channel", "preset": "identity-direct"}))
    law = tmp_path / "law.json"
    law.write_text(tio.dumps(tio.law_to_dict(
        uniform_t1_law(channel_preset("identity-direct")))))
    cov_chan, cov_law_obj = covering_pair(0.25)
    sweep_chan = tmp_path / "cov_chan.json"
    sweep_chan.write_text(tio.dumps(tio.channel_to_dict(cov_chan)))
    sweep_law = tmp_path / "cov_law.json"
    sweep_law.write_text(tio.dumps(tio.law_to_dict(cov_law_obj)))

    def capture(argv):
        code = cli.main(argv)
        cap = capsys.readouterr()
        assert code == 0
        return cap.out

    surfaces = {
        "eval": [["eval", "--channel", str(chan), "--law", str(law),
                  "--theorem", "t1"]] * 2,
        "reduction": [["fm", "t1", "--check-against", "t1",
                       "--bindings", "8", "--seed", "10"]] * 2,
        "sweep": [["sim", "--channel", str(sweep_chan), "--law", str(sweep_law),
                   "--n", "200", "--trials", "30", "--seed", "0",
                   "--sweep", "rh1", "0.1:0.3:0.1", "--jobs", j]
                  for j in ("1", "3")],
        "search": [["optimize", "--channel", str(chan), "--theorem", "t1",
                    "--mode", "random-restart", "--restarts", "4",
                    "--max-iter", "8", "--seed", "1", "--jobs", j]
                   for j in ("1", "4")],
    }
    for name, (first, second) in surfaces.items():
        assert capture(first) == capture(second), name

    # library level: the heavier grid search and the block-Markov run
    grid_cfg = SearchConfig(mode="grid", resolution=8)
    ident = channel_preset("identity-direct")
    a = tio.dumps(optimize_t1(ident, grid_cfg, jobs=1).to_dict())
    b = tio.dumps(optimize_t1(ident, grid_cfg, jobs=3).to_dict())
    assert a == b
    cfg = sim.SimConfig(
        n=8, blocks=3, rates=T1Rates(0.0, 0.0, 0.0, 0.0, 0.0),
        typicality=sim.TypicalityParams(0.2), trials=10, seed=4)
    runs = [tio.dumps(sim.run_cf(broadcast_channel(), pinned_law(), cfg).to_dict())
            for _ in range(2)]
    assert runs[0] == runs[1]
    print("PASS determinism: all rerun surfaces byte-identical")


def test_public_names_resolve():
    # tests, demos and the benchmark import these names; a refactor must keep them
    missing = [name for name in tworelay.__all__ if not hasattr(tworelay, name)]
    assert missing == []
    print(f"PASS public API: all {len(tworelay.__all__)} names resolve")
