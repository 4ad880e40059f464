"""Tests of the benchmark itself: checks, failure accounting and tracing.

Run from the repository root with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tworelay  # noqa: E402
from tworelay import fm, io, lp, optimize, rates  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402
from run import PassResult, import_times, run_pass  # noqa: E402
from workloads import CheckFailed, Task, require  # noqa: E402


@pytest.fixture(scope="module")
def identity_search():
    channel = io.channel_preset("identity-direct")
    return channel, optimize.optimize_t1(channel, optimize.SearchConfig(mode="grid", resolution=2))


def _raise():
    raise RuntimeError("boom")


def test_objective_off_by_1e9_fails_the_task(identity_search):
    channel, result = identity_search
    check = workloads.check_search(channel, "t1", None)
    check(result)
    off = dataclasses.replace(
        result,
        best_report=dataclasses.replace(
            result.best_report, objective_bits=result.best_objective_bits + 1e-9
        ),
    )
    with pytest.raises(CheckFailed):
        check(off)
    outcome = run_pass([Task("right", lambda: result, check, work=lambda r: r.evaluations),
                        Task("off", lambda: off, check, work=lambda r: r.evaluations)])
    assert outcome.attempted == 2
    assert len(outcome.failures) == 1 and outcome.failures[0].startswith("off")
    assert outcome.work == result.evaluations


def test_objective_floor_is_enforced(identity_search):
    channel, result = identity_search
    with pytest.raises(CheckFailed):
        workloads.check_search(channel, "t1", result.best_objective_bits + 1e-6)(result)


@pytest.fixture(scope="module")
def t2_bindings():
    """Seed 1134075746 draws 5 t2 bindings: four on which both systems are
    infeasible, and a genuine gap with a lower per-stage maximum."""
    return fm.sample_bindings("t2", 5, 1134075746)


def test_flipped_verdict_fails(t2_bindings):
    agreeing = fm.BindingComparison(lp.OPTIMAL, lp.OPTIMAL, 0.5, 0.5)
    check = workloads.check_equiv("t2", 1)
    check((t2_bindings[:1], fm.EquivReport(True, (agreeing,))))
    with pytest.raises(CheckFailed):
        check((t2_bindings[:1], fm.EquivReport(False, (agreeing,))))
    with pytest.raises(CheckFailed):
        workloads.check_verdict("not-equivalent")(fm.EquivReport(True, ()))


@pytest.mark.parametrize(
    "comparison",
    [
        # tighter per-stage maximum, but not the one the unreduced system gives
        fm.BindingComparison(lp.OPTIMAL, lp.OPTIMAL, 0.01, 0.6),
        # infeasible although the unreduced system is feasible
        fm.BindingComparison(lp.INFEASIBLE, lp.OPTIMAL, None, 0.5),
        # the single-letter set the tighter one
        fm.BindingComparison(lp.OPTIMAL, lp.OPTIMAL, 0.6, 0.5),
        fm.BindingComparison(lp.OPTIMAL, lp.INFEASIBLE, 0.5, None),
    ],
)
def test_unexplained_disagreement_fails(t2_bindings, comparison):
    check = workloads.check_equiv("t2", 1)
    with pytest.raises(CheckFailed):
        check((t2_bindings[4:], fm.EquivReport(False, (comparison,))))


def test_lower_per_stage_maximum_is_explained(t2_bindings):
    reduced = fm.eliminate_all(fm.builtin_system("t2"), workloads.FM_HELPERS["t2"])
    report = fm.numeric_equiv(reduced, fm.target_system("t2"), t2_bindings)
    workloads.check_equiv("t2", 5)((t2_bindings, report))
    gap = report.comparisons[4]
    assert report.verdict == "not-equivalent"
    assert (gap.status_a, gap.status_b) == (lp.OPTIMAL, lp.OPTIMAL)
    assert gap.max_a < gap.max_b - fm.EQUIV_TOL
    assert all(c.agree for c in report.comparisons[:4])


def test_corner_disagreement_is_explained():
    channel, law, _ = workloads.corner_case()
    reduced = fm.eliminate_all(fm.builtin_system("t2"), workloads.FM_HELPERS["t2"])
    binding = fm.binding_of(tworelay.assemble_joint_t2(channel, law), "t2")
    report = fm.numeric_equiv(reduced, fm.target_system("t2"), [binding])
    workloads.check_equiv("t2", 1)(([binding], report))
    assert report.verdict == "not-equivalent"


@pytest.mark.parametrize(
    "bounds, fraction, ok",
    [
        ((workloads.COVERING_HIT_MIN, 1.0), 0.995, True),
        ((workloads.COVERING_HIT_MIN, 1.0), 0.965, False),
        ((0.0, workloads.COVERING_MISS_MAX), 0.0, True),
        ((0.0, workloads.COVERING_MISS_MAX), 0.035, False),
    ],
)
def test_covering_fraction_bounds(bounds, fraction, ok):
    check = workloads.check_fraction(*bounds)
    if ok:
        check(fraction)
    else:
        with pytest.raises(CheckFailed):
            check(fraction)


def test_raising_and_wrong_tasks_count_as_failed():
    tasks = [
        Task("fine", lambda: 3, lambda out: require(out == 3, "wrong"), work=lambda out: 1),
        Task("raises", _raise, lambda out: None, work=lambda out: 1),
        Task("wrong", lambda: 2, lambda out: require(out == 3, "wrong"), work=lambda out: 1),
    ]
    outcome = run_pass(tasks)
    assert outcome.attempted == 3
    assert [f.split()[0].rstrip(":") for f in outcome.failures] == ["raises", "wrong"]
    assert outcome.work == 1


def _attributes():
    modules = [tworelay] + [m for n, m in sys.modules.items() if n.startswith("tworelay.")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_tracer_wraps_every_alias_and_restores_them():
    before = _attributes()
    tracer = layers.Tracer(tworelay)
    channel = io.channel_preset("identity-direct")
    law = tworelay.uniform_t1_law(channel)
    with tracer:
        assert optimize.eval_theorem1 is not before[("tworelay.optimize", "eval_theorem1")]
        assert fm.maximize is not before[("tworelay.fm", "maximize")]
        rates.eval_theorem1(channel, law)
        tworelay.eval_theorem1(channel, law)
        fm.binding_of(tworelay.assemble_joint_t1(channel, law), "t1")  # entropies outside evals
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.stats["rates.eval_t1"].calls == 2
    # untraced calls after exit leave the counts alone
    rates.eval_theorem1(channel, law)
    assert tracer.stats["rates.eval_t1"].calls == 2
    metrics = layers.layer_metrics(tracer.stats, 1)
    assert metrics["rates.eval_calls"] == (2, "count")
    per_eval = metrics["info.entropies_per_eval"][0]
    assert per_eval == int(per_eval) > 0
    assert metrics["info.entropy_calls"][0] > 2 * per_eval


def test_nested_spans_split_self_time_and_count_lps():
    tracer = layers.Tracer(tworelay)
    channel, law, _ = workloads.corner_case()
    reduced = fm.eliminate_all(fm.builtin_system("t2"), workloads.FM_HELPERS["t2"])
    binding = fm.binding_of(tworelay.assemble_joint_t2(channel, law), "t2")
    with tracer:
        fm.numeric_equiv(reduced, fm.target_system("t2"), [binding])
    metrics = layers.layer_metrics(tracer.stats, 1)
    assert metrics["lp.maximize_calls"][0] == 2
    assert metrics["fm.disagreements"][0] == 1
    assert metrics["lp.rows_mean"][0] == pytest.approx(
        (len(reduced.inequalities) + len(fm.target_system("t2").inequalities)) / 2
    )
    assert 0 < metrics["fm.numeric_equiv_self_s"][0] < metrics["fm.numeric_equiv_s"][0]


def test_system_sizes_are_not_summed_over_passes():
    tracer = layers.Tracer(tworelay)
    with tracer:
        for _ in range(2):
            reduced = fm.eliminate_all(fm.builtin_system("t1"), workloads.FM_HELPERS["t1"])
    assert layers.layer_metrics(tracer.stats, 2)["fm.rows_t1"][0] == len(reduced.inequalities)


def test_removed_names_read_zero_without_crashing():
    spans = layers.SPANS + (
        ("rates.eval_t1", "rates", "no_longer_here"),
        ("ghost", "no_such_module", "anything"),
    )
    tracer = layers.Tracer(tworelay, spans)
    with tracer:
        pass
    metrics = layers.layer_metrics(tracer.stats, 1)
    assert metrics and all(value == 0 for value, _ in metrics.values())


def test_import_times_follow_nesting():
    def line(cumulative, depth, name):
        return f"import time: {1:>9} | {cumulative:>10} | {'  ' * depth}{name}"

    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        line(5, 4, "scipy._lib"),
        line(15, 3, "scipy"),
        line(35, 2, "scipy.stats"),
        line(40, 2, "numpy"),
        line(100, 1, "tworelay.sim"),
        line(120, 0, "tworelay"),
        line(7, 0, "scipy.special"),  # imported outside tworelay: not counted
    ])
    assert import_times(text) == (120e-6, 35e-6)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_build_from_the_seed(name, tmp_path):
    first = workloads.make(name, 3, str(tmp_path))
    again = workloads.make(name, 3, str(tmp_path))
    assert [t.name for t in first] == [t.name for t in again]
    assert len({t.name for t in first}) == len(first)
    assert any(t.work is not None for t in first)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    one = PassResult()
    one.wall_s = one.work_s = 1.0
    one.work = 1
    layer = run.per_layer({}, [one], [one], [(1.0, 0.5)])
    e2e = run.end_to_end([1.0], [one])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
