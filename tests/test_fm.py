"""Symbolic elimination: exactness, pruning direction, numeric equivalence.

The two headline checks reduce each builtin system and compare it against the
corresponding single-letter target system by exact LP on seeded
bindings.  A hand-built decode-and-forward-heavy law is also exercised where
the two systems genuinely part ways, to pin down that numeric_equiv reports
the disagreement instead of papering over it.
"""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworelay import cli, fm, lp, prob
from tworelay.info import InfoQuery, binary_entropy
from tworelay.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, maximize
from tworelay.prob import (
    CANONICAL_ORDER,
    LAW_FAMILIES,
    Alphabet,
    CondPmf,
    InvariantError,
    JointPmf,
    NetworkChannel,
    ResourceLimitError,
    T2Law,
    ValidationError,
    assemble_joint,
    assemble_joint_t2,
    random_channel,
    random_law,
    uniform_cond,
)
from tworelay.rates import T1_QUERIES, T2_QUERIES, eval_theorem2

A = InfoQuery(("Yh1",), ("Y1",), ("X1",))
B = InfoQuery(("Yh2",), ("Y2",), ("X2",))

GOLDEN = Path(__file__).parent / "golden"


def expr(vars=None, syms=None):
    """A row's coefficients: rate variables by name, then symbols."""
    return {**(vars or {}), **(syms or {})}


def system(rows, variables):
    return fm.RateSystem.of(rows, variables)


def t1_binding(**values):
    """Name every theorem-1 symbol, defaulting the unmentioned ones to 0."""
    out = {str(q): Fraction(0) for q in T1_QUERIES.values()}
    for name, v in values.items():
        out[str(T1_QUERIES[name])] = Fraction(v)
    return out


class TestInfoSymbol:
    def test_name_is_canonical_query(self):
        assert str(A) == "I(Yh1;Y1|X1)"

    def test_identity_by_name(self):
        again = InfoQuery(("Yh1",), ("Y1",), ("X1",))
        assert again == A
        assert hash(again) == hash(A)


class TestInequality:
    def test_normalization_scales_leading_variable(self):
        row = fm.Inequality(expr({"RH1": -2, "RB": 4}, {A: 6}), True, "x")
        (norm,) = system([row], ("RB", "RH1")).inequalities
        assert norm.coeffs == {"RB": Fraction(1), "RH1": Fraction(-1, 2), A: Fraction(3, 2)}
        assert list(norm.coeffs) == ["RB", "RH1", A]  # column order
        assert norm.strict

    def test_normalization_direction_preserved(self):
        # scale factor is positive even when the leading coefficient is not
        row = fm.Inequality(expr({"RB": -3}), False, "x")
        (norm,) = system([row], ("RB",)).inequalities
        assert norm.coeffs == {"RB": Fraction(-1)}

    def test_symbol_only_row_normalized_by_first_symbol(self):
        row = fm.Inequality(expr(syms={A: 4, B: 2}), True, "x")
        (norm,) = system([row], ()).inequalities
        assert norm.coeffs == {A: Fraction(1), B: Fraction(1, 2)}


class TestRateSystem:
    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValidationError):
            system([fm.Inequality(expr({"RB": 1}), True, "r")], ("RH1",))

    def test_unreferenced_variable_rejected(self):
        with pytest.raises(ValidationError):
            system([fm.Inequality(expr({"RB": 1}), True, "r")], ("RB", "RH1"))

    def test_symbols_collected_sorted(self):
        s = system(
            [fm.Inequality(expr({"RB": 1}, {B: 1, A: 1}), True, "r")], ("RB",)
        )
        assert [str(sym) for sym in s.symbols] == sorted([str(A), str(B)])


class TestBuiltinSystems:
    def test_t1_row_count(self):
        s = fm.builtin_system("t1")
        assert len(s.inequalities) == 15  # 10 coding bounds + 4 nonneg + objective link
        assert s.variables == ("RB", "RH1", "RH2", "RS1", "RS2")

    def test_t2_row_count(self):
        s = fm.builtin_system("t2")
        # 15 coding bounds + 9 nonneg + the two-sided sum-rate definition
        assert len(s.inequalities) == 26
        assert len(s.variables) == 10

    def test_t1_strictness_pattern(self):
        s = fm.builtin_system("t1")
        strict = [r.provenance for r in s.inequalities if r.strict]
        assert len(strict) == 11
        assert all(p.endswith(">=0") for p in (
            r.provenance for r in s.inequalities if not r.strict
        ))

    def test_target_t1_labels(self):
        s = fm.target_system("t1")
        assert [r.provenance for r in s.inequalities] == [
            "(2)", "(3)", "(4a)", "(4b)", "(19)"
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            fm.builtin_system("t3")
        with pytest.raises(ValidationError):
            fm.target_system("bogus")

    @pytest.mark.parametrize("family", [fm.builtin_system, fm.target_system])
    def test_built_once_per_tag(self, family):
        # one shared frozen system, so its compiled rows are built once too
        assert family("t1") is family("t1")
        assert family("t2") is family("t2")
        assert family("t1") is not family("t2")
        for _ in range(2):
            with pytest.raises(ValidationError):
                family("t3")

    def test_unknown_binding_family_rejected(self):
        channel, law, _ = df_heavy_law()
        with pytest.raises(ValidationError, match="unknown binding family 't3'"):
            fm.binding_of(assemble_joint_t2(channel, law), "t3")

    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize("family", [fm.builtin_system, fm.target_system])
    def test_round_trip(self, which, family):
        s = family(which)
        text = fm.format_system(s)
        assert fm.format_system(fm.parse_system(text)) == text


class TestGoldenText:
    """The builtin and target systems and the ``tworelay fm`` output, pinned
    byte for byte, so any drift in a row, a label or a variable order shows."""

    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize("family", [fm.builtin_system, fm.target_system])
    def test_system_text(self, which, family):
        kind = family.__name__.split("_")[0]
        expected = (GOLDEN / f"{kind}_{which}.txt").read_text(encoding="utf-8")
        assert fm.format_system(family(which)) == expected

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_cli_stdout(self, which, capsys):
        assert cli.main(["fm", which]) == 0
        expected = (GOLDEN / f"fm_{which}.out").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("which, options", [
        ("t1", ["--bindings", "40", "--seed", "3"]),
        ("t2", []),
    ])
    def test_cli_check_against(self, which, options, capsys):
        # the numeric check: the reduced system and verdict on stdout, the
        # row counts, binding count and informative count on stderr
        assert cli.main(["fm", which, "--check-against", which, *options]) == 0
        captured = capsys.readouterr()
        assert captured.out == (GOLDEN / f"fm_check_{which}.out").read_text(encoding="utf-8")
        assert captured.err == (GOLDEN / f"fm_check_{which}.err").read_text(encoding="utf-8")


class TestEliminate:
    def test_single_pair(self):
        # x < a together with x > b projects to b < a
        s = system(
            [
                fm.Inequality(expr({"X": 1}, {A: -1}), True, "up"),
                fm.Inequality(expr({"X": -1}, {B: 1}), True, "down"),
            ],
            ("X",),
        )
        out = fm.eliminate(s, "X")
        assert len(out.inequalities) == 1
        row = out.inequalities[0]
        assert row.coeffs == {A: Fraction(-1), B: Fraction(1)}
        assert row.strict
        assert row.provenance == "up+down"

    def test_one_sided_variable_drops_its_rows(self):
        s = system(
            [
                fm.Inequality(expr({"X": 1}, {A: 1}), True, "only-upper"),
                fm.Inequality(expr({"RB": 1}, {B: -1}), True, "keep"),
            ],
            ("X", "RB"),
        )
        out = fm.eliminate(s, "X")
        assert [r.provenance for r in out.inequalities] == ["keep"]
        assert out.variables == ("RB",)

    def test_strictness_combines_as_or(self):
        s = system(
            [
                fm.Inequality(expr({"X": 1}, {A: -1}), False, "up"),
                fm.Inequality(expr({"X": -1}, {B: 1}), False, "down"),
            ],
            ("X",),
        )
        assert not fm.eliminate(s, "X").inequalities[0].strict
        s2 = system(
            [
                fm.Inequality(expr({"X": 1}, {A: -1}), True, "up"),
                fm.Inequality(expr({"X": -1}, {B: 1}), False, "down"),
            ],
            ("X",),
        )
        assert fm.eliminate(s2, "X").inequalities[0].strict

    def test_fractional_coefficients_exact(self):
        s = system(
            [
                fm.Inequality(expr({"X": 3}, {A: -1}), True, "up"),
                fm.Inequality(expr({"X": -7}, {B: 2}), True, "down"),
            ],
            ("X",),
        )
        # -A/3 + 2B/7 < 0, normalized by its first symbol A
        out = fm.eliminate(s, "X")
        assert out.inequalities[0].coeffs == {A: Fraction(-1), B: Fraction(6, 7)}
        assert out.coef.tolist() == [[-7, 6]]

    def test_missing_variable_rejected(self):
        with pytest.raises(ValidationError):
            fm.eliminate(fm.target_system("t1"), "RH1")


class TestPrune:
    def test_duplicates_collapse(self):
        row = fm.Inequality(expr({"RB": 1}, {A: -1}), True, "a")
        out = fm.prune(system([row, row], ("RB",)))
        assert len(out.inequalities) == 1

    def test_positive_multiples_collapse(self):
        r1 = fm.Inequality(expr({"RB": 1}, {A: -1}), True, "a")
        r2 = fm.Inequality(expr({"RB": 2}, {A: -2}), True, "b")
        out = fm.prune(system([r1, r2], ("RB",)))
        assert len(out.inequalities) == 1

    def test_dominance_keeps_the_tighter_row(self):
        # RB <= 0 is implied by RB + s <= 0 for a nonnegative symbol s
        loose = fm.Inequality(expr({"RB": 1}), False, "loose")
        tight = fm.Inequality(expr({"RB": 1}, {A: 1}), False, "tight")
        out = fm.prune(system([loose, tight], ("RB",)))
        assert [r.provenance for r in out.inequalities] == ["tight"]

    def test_dominance_never_drops_the_tighter_row(self):
        tight = fm.Inequality(expr({"RB": 1}, {A: 1}), False, "tight")
        out = fm.prune(system([tight], ("RB",)))
        assert [r.provenance for r in out.inequalities] == ["tight"]

    def test_strict_duplicate_outlives_nonstrict(self):
        r1 = fm.Inequality(expr({"RB": 1}, {A: -1}), False, "weak")
        r2 = fm.Inequality(expr({"RB": 1}, {A: -1}), True, "strong")
        out = fm.prune(system([r1, r2], ("RB",)))
        assert [r.provenance for r in out.inequalities] == ["strong"]

    def test_vacuous_symbol_rows_dropped(self):
        keep = fm.Inequality(expr({"RB": 1}, {A: -1}), True, "keep")
        vac = fm.Inequality(expr(syms={A: -1, B: -2}), False, "vacuous")
        out = fm.prune(system([keep, vac], ("RB",)))
        assert [r.provenance for r in out.inequalities] == ["keep"]

    def test_strict_symbol_rows_kept(self):
        # -s < 0 demands s > 0, which a zero-valued symbol violates
        keep = fm.Inequality(expr({"RB": 1}, {A: -1}), True, "keep")
        pos = fm.Inequality(expr(syms={B: -1}), True, "positivity")
        out = fm.prune(system([keep, pos], ("RB",)))
        assert {r.provenance for r in out.inequalities} == {"keep", "positivity"}

    def test_unsatisfiable_zero_row_kept(self):
        keep = fm.Inequality(expr({"RB": 1}, {A: -1}), True, "keep")
        false_row = fm.Inequality(expr(), True, "empty")
        out = fm.prune(system([keep, false_row], ("RB",)))
        assert {r.provenance for r in out.inequalities} == {"keep", "empty"}
        trivial = fm.Inequality(expr(), False, "trivial")
        out2 = fm.prune(system([keep, trivial], ("RB",)))
        assert [r.provenance for r in out2.inequalities] == ["keep"]

    def test_prune_preserves_solution_set(self):
        midway = fm.eliminate(fm.eliminate(fm.builtin_system("t1"), "RH1"), "RS1")
        bindings = fm.sample_bindings("t1", 8, seed=11)
        rep = fm.numeric_equiv(fm.prune(midway), midway, bindings)
        assert rep.equivalent


def normalized(coeffs, variables):
    """Reference normalization: the nonzero coefficients scaled so that the
    first rate coefficient in ``variables`` order, else the first symbol's
    in name order, has magnitude 1."""
    coeffs = {k: Fraction(c) for k, c in coeffs.items() if c}
    symbols = sorted((k for k in coeffs if not isinstance(k, str)), key=str)
    order = [v for v in variables if v in coeffs] + symbols
    lead = abs(coeffs[order[0]]) if order else 1
    return {k: c / lead for k, c in coeffs.items()}


def rate_part(coeffs):
    return {k: c for k, c in coeffs.items() if isinstance(k, str)}


def pairwise_prune(rows, variables):
    """Reference pruner: the earlier pairwise rule, special cases included,
    on (coeffs, strict, provenance) rows with Fraction coefficients.
    Returns the kept rows normalized and the variables they use."""

    def redundant(candidate, against):
        (c_coeffs, c_strict, _), (a_coeffs, a_strict, _) = candidate, against
        if rate_part(c_coeffs) != rate_part(a_coeffs):
            return False
        if c_strict and not a_strict:
            return False
        symbols = {k for k in {**c_coeffs, **a_coeffs} if not isinstance(k, str)}
        return all(a_coeffs.get(k, 0) - c_coeffs.get(k, 0) >= 0 for k in symbols)

    normal = []
    for coeffs, strict, provenance in rows:
        coeffs = normalized(coeffs, variables)
        # implied by 0 <= 0; the empty non-strict row among them
        if not strict and not rate_part(coeffs) and all(c <= 0 for c in coeffs.values()):
            continue
        normal.append((coeffs, strict, provenance))
    kept = []
    for i, row in enumerate(normal):
        dropped = False
        for j, other in enumerate(normal):
            if i != j and redundant(row, other):
                if redundant(other, row) and j > i:
                    continue
                dropped = True
                break
        if not dropped:
            kept.append(row)
    used = {k for coeffs, _, _ in kept for k in rate_part(coeffs)}
    return kept, [v for v in variables if v in used]


def same_system(got, rows, variables):
    """``got`` is the system of the reference's rows, in text and matrix."""
    want = fm.RateSystem.of([fm.Inequality(*row) for row in rows], variables)
    assert fm.format_system(got) == fm.format_system(want)
    assert got.coef.tolist() == want.coef.tolist()


class TestPruneOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_pairwise_rule(self, data):
        # few rates, symbols and small coefficients, so rate-free rows,
        # duplicates of either strictness, positive multiples and the empty
        # row all come up often
        coeff = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                                 Fraction(-2), Fraction(1, 2), Fraction(-3, 2)])
        pool = []
        for k in range(data.draw(st.integers(1, 9))):
            rate_vars = data.draw(st.dictionaries(st.sampled_from(["RB", "RA"]), coeff))
            syms = data.draw(st.dictionaries(st.sampled_from([A, B]), coeff))
            pool.append(fm.Inequality(expr(rate_vars, syms), data.draw(st.booleans()), f"r{k}"))
        rows = []
        for _ in range(data.draw(st.integers(1, 12))):
            row = data.draw(st.sampled_from(pool))
            factor = data.draw(st.sampled_from([Fraction(1), Fraction(3), Fraction(2, 5)]))
            strict = data.draw(st.sampled_from([row.strict, not row.strict]))
            scaled = {k: c * factor for k, c in row.coeffs.items()}
            rows.append(fm.Inequality(scaled, strict, f"{row.provenance}*"))
        variables = [v for v in ("RB", "RA") if v in used_rates(rows)]
        same_system(fm.prune(system(rows, variables)), *pairwise_prune(rows, variables))

    def test_matches_pairwise_rule_on_full_width_rows(self):
        # primitive rows with entries up to 2**31 - 1, the most a system
        # stores: their leads share no common scale inside int64, so the
        # rows are compared cross-multiplied
        top = 2**31 - 1
        dropped = 0
        for seed in range(40):
            rng = np.random.default_rng([seed, 33])
            rows = []
            for k in range(12):
                size = lambda: int(rng.integers(1, top, endpoint=True))
                rate = {"RB": size()} if k % 3 else {}
                syms = {s: size() * int(rng.choice([-1, 1])) for s in (A, B)}
                rows.append(fm.Inequality(expr(rate, syms), bool(rng.integers(2)), f"r{k}"))
            rows.append(fm.Inequality(expr({"RB": top}, {A: -top, B: top - 1}), True, "edge"))
            got = fm.prune(system(rows, ["RB"]))
            assert np.abs(got.coef).max() >= 2**30
            same_system(got, *pairwise_prune(rows, ["RB"]))
            dropped += len(rows) - len(got.coef)
        assert dropped > 0


def used_rates(rows):
    """The rate variables some row gives a nonzero coefficient."""
    return {k for coeffs, _, _ in rows for k, c in coeffs.items() if isinstance(k, str) and c}


def linear_expr_eliminate(rows, variables, var):
    """Reference elimination: the earlier ``LinearExpr`` arithmetic, row by
    row, on (coeffs, strict, provenance) rows with Fraction coefficients.
    Returns the rows and the variables they use."""
    upper, lower, rest = [], [], []
    for row in rows:
        c = Fraction(row[0].get(var, 0))
        (upper if c > 0 else lower if c < 0 else rest).append((row, c))
    out = [row for row, _ in rest]
    for (up, up_strict, up_label), cu in upper:
        for (lo, lo_strict, lo_label), cl in lower:
            combined = {}
            for coeffs, factor in ((up, 1 / cu), (lo, 1 / -cl)):
                for k, c in coeffs.items():
                    combined[k] = combined.get(k, 0) + c * factor
            combined = {k: c for k, c in combined.items() if c}
            out.append((combined, up_strict or lo_strict, f"{up_label}+{lo_label}"))
    return out, [v for v in variables if v != var and v in used_rates(out)]


class TestEliminateOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_linear_expr_elimination(self, data):
        coeff = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                                 Fraction(-3), Fraction(1, 2), Fraction(-2, 7)])
        rows = []
        for k in range(data.draw(st.integers(1, 10))):
            rate_vars = data.draw(st.dictionaries(st.sampled_from(["RB", "RA", "RC"]), coeff))
            syms = data.draw(st.dictionaries(st.sampled_from(SYMBOLS), coeff))
            rows.append(fm.Inequality(expr(rate_vars, syms), data.draw(st.booleans()), f"r{k}"))
        variables = [v for v in ("RB", "RA", "RC") if v in used_rates(rows)]
        if not variables:
            return
        var = data.draw(st.sampled_from(variables))
        want = linear_expr_eliminate(rows, variables, var)
        got = fm.eliminate(system(rows, variables), var)
        same_system(got, *want)
        # the next step starts from the matrix the step left behind
        same_system(fm.prune(got), *pairwise_prune(*want))


class TestEliminateAll:
    @staticmethod
    def in_order(system, variables):
        for var in variables:
            system = fm.prune(fm.eliminate(system, var))
        return system

    def test_order_independence(self):
        raw = fm.builtin_system("t1")
        ab = self.in_order(raw, ["RH1", "RH2"])
        ba = self.in_order(raw, ["RH2", "RH1"])
        bindings = fm.sample_bindings("t1", 8, seed=3)
        assert fm.numeric_equiv(ab, ba, bindings).equivalent

    def test_heuristic_matches_explicit_order(self):
        raw = fm.builtin_system("t1")
        auto = fm.eliminate_all(raw, ["RH1", "RH2", "RS1", "RS2"])
        fixed = self.in_order(raw, ["RS2", "RS1", "RH2", "RH1"])
        bindings = fm.sample_bindings("t1", 8, seed=4)
        assert fm.numeric_equiv(auto, fixed, bindings).equivalent

    def test_projection_preserves_feasibility(self):
        raw = fm.builtin_system("t1")
        red = fm.eliminate_all(raw, ["RH1", "RH2", "RS1", "RS2"])
        for binding in fm.sample_bindings("t1", 12, seed=5):
            full = fm.max_rate(raw, binding)
            proj = fm.max_rate(red, binding)
            assert full.status == proj.status
            if full.status == OPTIMAL:
                assert full.value == proj.value  # exact rationals, no tolerance

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValidationError):
            fm.eliminate_all(fm.builtin_system("t1"), ["RH1", "nope"])

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_projection_leaves_its_last_step_unpruned(self, monkeypatch, which):
        calls = {"eliminate": 0, "prune": 0}
        for name in calls:
            step = getattr(fm, name)
            monkeypatch.setattr(fm, name, lambda *args, _name=name, _step=step: (
                calls.__setitem__(_name, calls[_name] + 1) or _step(*args)))
        raw = fm.builtin_system(which)
        fresh = fm.RateSystem(raw.coef, raw.strict, raw.provenance, raw.variables, raw.symbols)
        fresh._projection
        assert calls["eliminate"] > 1
        assert calls["prune"] == calls["eliminate"] - 1
        # eliminate_all still prunes after its last step
        calls.update(eliminate=0, prune=0)
        red = fm.eliminate_all(raw, HELPERS[which])
        assert calls["prune"] == calls["eliminate"] > 1
        again = fm.prune(red)
        assert np.array_equal(again.coef, red.coef) and np.array_equal(again.strict, red.strict)
        assert again.provenance == red.provenance


class TestNumericEquiv:
    def test_identical_systems(self):
        tgt = fm.target_system("t1")
        bindings = fm.sample_bindings("t1", 5, seed=1)
        assert fm.numeric_equiv(tgt, tgt, bindings).equivalent

    def test_redundant_row_is_harmless(self):
        tgt = fm.target_system("t1")
        padded = fm.RateSystem.of(
            tgt.inequalities + (tgt.inequalities[-1],), tgt.variables
        )
        bindings = fm.sample_bindings("t1", 5, seed=2)
        assert fm.numeric_equiv(tgt, padded, bindings).equivalent

    def test_feasible_value_agreement(self):
        # a relay quantization that costs nothing and reveals nothing keeps
        # every bound slack, so both systems cap the rate at the objective
        binding = t1_binding(
            dec1="1/4", dec2="1/4", dec12="1/2",
            res1="1/8", res2="1/8", obj_main="3/4", obj_corr=0,
        )
        raw = fm.builtin_system("t1")
        tgt = fm.target_system("t1")
        rep = fm.numeric_equiv(raw, tgt, [binding])
        assert rep.equivalent
        c = rep.comparisons[0]
        assert c.status_a == c.status_b == OPTIMAL
        assert c.max_a == pytest.approx(0.75, abs=1e-12)
        assert c.max_b == pytest.approx(0.75, abs=1e-12)

    def test_infeasible_agreement(self):
        # quantization costs more than every decoding budget
        binding = t1_binding(
            cover1=1, sender1=1, dec1="1/100", res1="1/100",
            obj_main="1/2",
        )
        rep = fm.numeric_equiv(
            fm.builtin_system("t1"), fm.target_system("t1"), [binding]
        )
        assert rep.equivalent
        assert rep.comparisons[0].status_a == INFEASIBLE

    def test_unbounded_reported(self):
        free = system([fm.Inequality(expr({"RB": -1}), False, "floor")], ("RB",))
        rep = fm.numeric_equiv(free, free, [t1_binding()])
        assert rep.equivalent
        assert rep.comparisons[0].status_a == UNBOUNDED
        assert rep.comparisons[0].max_a is None

    def test_mixed_status_disagrees(self):
        free = system([fm.Inequality(expr({"RB": -1}), False, "floor")], ("RB",))
        capped = fm.target_system("t1")
        rep = fm.numeric_equiv(free, capped, [t1_binding(obj_main=1)])
        assert not rep.equivalent
        assert rep.verdict == "not-equivalent"

    def test_missing_symbol_rejected(self):
        with pytest.raises(ValidationError):
            fm.numeric_equiv(
                fm.target_system("t1"), fm.target_system("t1"), [{}]
            )

    def test_empty_binding_list_rejected(self):
        tgt = fm.target_system("t1")
        with pytest.raises(ValidationError, match="at least one binding"):
            fm.numeric_equiv(tgt, tgt, [])

    def test_missing_objective_rejected(self):
        nob = system([fm.Inequality(expr({"R21": 1}, {A: -1}), True, "r")], ("R21",))
        with pytest.raises(ValidationError):
            fm.max_rate(nob, t1_binding())


def fraction_rows_max_rate(rows, variables, binding):
    """max_rate by the simplex on (coeffs, strict, provenance) rows, with
    each row constant summed in Fractions, row by row."""
    lp_rows = []
    for coeffs, _, _ in rows:
        const = Fraction(0)
        for k, c in coeffs.items():
            if not isinstance(k, str):
                const += Fraction(c) * binding[str(k)]
        lp_rows.append(({k: c for k, c in coeffs.items() if isinstance(k, str) and c}, -const))
    return maximize({"RB": 1}, lp_rows, variables)


def oracle(system, binding):
    """:func:`fraction_rows_max_rate` on the system's own rows."""
    return fraction_rows_max_rate(system.inequalities, system.variables, binding)


def answer(result):
    """What ``max_rate`` promises: the status and exact value, no point."""
    return result.status, result.value


SYMBOLS = list(T1_QUERIES.values())[:4]


def capped_system(data):
    """A random small system, its rows and a binding: mostly rows that cap
    the rates by a combination of symbols, so that most systems are feasible
    and a scaled row often binds."""
    rate_coeff = st.fractions(-1, 3, max_denominator=9)
    sym_coeff = st.fractions(-4, 1, max_denominator=9)
    rows = [fm.Inequality(expr({"RB": 1}, {SYMBOLS[0]: -1}), True, "cap")]
    for _ in range(data.draw(st.integers(0, 6))):
        rate_vars = data.draw(st.dictionaries(st.sampled_from(["RB", "RA"]), rate_coeff))
        syms = data.draw(st.dictionaries(st.sampled_from(SYMBOLS), sym_coeff))
        rows.append(fm.Inequality(expr(rate_vars, syms), data.draw(st.booleans()), "r"))
    s = system(rows, [v for v in ("RB", "RA") if v in used_rates(rows)])
    # non-dyadic values from a short list, so equal values cancel and
    # some row constants come out exactly 0
    value = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(5, 7),
                             Fraction(2), Fraction(11, 6), Fraction(1, 1024)])
    return s, rows, {str(sym): data.draw(value) for sym in SYMBOLS}


def one_at_a_time(which, count, seed):
    """The bindings of ``sample_bindings``, one checked channel, law and joint
    per draw."""
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        channel = random_channel(rng)
        law = random_law(LAW_FAMILIES[which], rng, channel, {})
        out.append(fm.binding_of(assemble_joint(channel, law), which))
    return out


def stack_size(which):
    """Joints per stack: all that fit in ``STACK_ENTRIES``."""
    ids = prob._product_plan(LAW_FAMILIES[which])[2]
    return prob.STACK_ENTRIES // 2 ** len(ids)


def spoil_one_row(monkeypatch, bad, at=3, pair=2):
    """Make row normalization number ``at`` (counting from 0; one tensor of
    a whole stack) come back with pair ``pair``'s last row replaced by
    ``bad(row)``."""
    normalize = prob._normalize_rows
    calls = []

    def spoiled(draws):
        rows = normalize(draws)
        if len(calls) == at:
            rows[pair, -1] = bad(rows[pair, -1])
        calls.append(draws.shape)
        return rows

    monkeypatch.setattr(prob, "_normalize_rows", spoiled)
    return calls


class TestSampleBindings:
    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("extra", [None, 0, 1])
    def test_bit_identical_to_one_law_at_a_time(self, which, seed, extra):
        count = 1 if extra is None else stack_size(which) + extra
        got = fm.sample_bindings(which, count, seed)
        want = one_at_a_time(which, count, seed)
        assert got == want
        assert [list(b) for b in got] == [list(b) for b in want]
        assert all(type(v) is float for b in got for v in b.values())

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_stacks_fill_the_entry_bound(self, which):
        per = stack_size(which)
        assert per > 1
        rngs = (np.random.default_rng([3, i]) for i in range(per + 1))
        stacks = [stack for _, stack in prob.random_joints(LAW_FAMILIES[which], rngs)]
        assert [len(stack) for stack in stacks] == [per, 1]
        assert stacks[0].size <= prob.STACK_ENTRIES
        assert not stacks[0].flags.writeable

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_draws_give_no_bindings(self, count):
        assert fm.sample_bindings("t2", count, 0) == []

    @pytest.mark.parametrize("which, count, seed, error, match", [
        ("t3", 5, 0, ValidationError, "unknown binding family 't3'"),
        ("t1", 5, -1, ValidationError, "seed -1 < 0"),
        ("t1", fm.MAX_BINDINGS + 1, 0, ResourceLimitError, "exceed the cap"),
    ])
    def test_refused_before_any_draw(self, monkeypatch, which, count, seed, error, match):
        calls = spoil_one_row(monkeypatch, lambda row: row)  # only counts draws
        with pytest.raises(error, match=match):
            fm.sample_bindings(which, count, seed)
        assert calls == []

    @pytest.mark.parametrize("bad, match", [
        (lambda row: np.full_like(row, np.nan), "non-finite entries"),
        (lambda row: 1.1 * row, "slice mass off by"),
    ], ids=["nan-row", "row-sums-to-1.1"])
    def test_every_stacked_row_is_checked(self, monkeypatch, capsys, bad, match):
        # normalization 3 is the t1 stack's p(x0|x1,x2); the third pair's
        # last row is one row, mid-stack
        spoil_one_row(monkeypatch, bad)
        with pytest.raises(ValidationError, match=f"px0_given_x1x2 stack: {match}"):
            fm.sample_bindings("t1", 8, 0)
        spoil_one_row(monkeypatch, bad)
        assert cli.main(["fm", "t1", "--check-against", "t1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: px0_given_x1x2 stack: ")
        assert "Traceback" not in err

    def test_stacked_joint_is_checked(self, monkeypatch):
        product = prob._product
        monkeypatch.setattr(prob, "_product", lambda *args: 1.1 * product(*args))
        with pytest.raises(ValidationError, match="JointPmf stack: slice mass off by"):
            fm.sample_bindings("t2", 3, 0)

    def test_stacked_contraction_is_capped(self, monkeypatch):
        # a full t1 stack's largest operand, the channel, has 64 * 64 entries
        # and its joint 64 * 256: the contraction is refused, not the draws
        monkeypatch.setattr(prob, "MAX_JOINT_ENTRIES", 10_000)
        with pytest.raises(ResourceLimitError, match="joint of 16384 entries, cap is 10000"):
            fm.sample_bindings("t1", 64, 0)


class TestMaxRate:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_integer_binding_matches_fraction_rows(self, data):
        s, rows, binding = capped_system(data)
        want = fraction_rows_max_rate(rows, s.variables, binding)
        assert answer(fm.max_rate(s, binding)) == answer(want)

    def test_zero_constant_rows(self):
        # 2/3*(A - B) is exactly 0 when A == B, so RB <= 0 binds below the
        # cap row's 1/9
        rows = [fm.Inequality(expr({"RB": 1}, {A: Fraction(2, 3), B: Fraction(-2, 3)}), False, "z"),
                fm.Inequality(expr({"RB": 3}, {A: -1}), False, "cap")]
        binding = {str(A): Fraction(1, 3), str(B): Fraction(1, 3)}
        res = fm.max_rate(system(rows, ("RB",)), binding)
        assert answer(res) == answer(fraction_rows_max_rate(rows, ("RB",), binding))
        assert res.value == Fraction(0)

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_sampled_bindings_match_fraction_rows(self, which):
        helpers = {"t1": ["RH1", "RH2", "RS1", "RS2"],
                   "t2": ["RH1", "RH2", "R011", "R012", "R021", "R022"]}[which]
        raw = fm.builtin_system(which)
        systems = (raw, fm.eliminate_all(raw, helpers), fm.target_system(which))
        for binding in fm.sample_bindings(which, 6, seed=21):
            for s in systems:
                want = oracle(s, binding)
                assert answer(fm.max_rate(s, binding)) == answer(want)


HELPERS = {"t1": ["RH1", "RH2", "RS1", "RS2"],
           "t2": ["RH1", "RH2", "R011", "R012", "R021", "R022"]}
SIX = [(which, kind) for which in ("t1", "t2") for kind in ("builtin", "reduced", "target")]


def six_system(which, kind):
    raw = fm.builtin_system(which)
    return {"builtin": raw, "target": fm.target_system(which),
            "reduced": fm.eliminate_all(raw, HELPERS[which])}[kind]


def rational_bindings(rng, names, count):
    """Values 0 to 4 in steps of 1/64, about half of them 0."""
    steps = rng.integers(0, 257, (count, len(names))) * rng.integers(0, 2, (count, len(names)))
    return [{n: Fraction(int(k), 64) for n, k in zip(names, row)} for row in steps]


def cap(rate_vars, syms, strict=False, label="r"):
    return fm.Inequality(expr(rate_vars, syms), strict, label)


class TestProjectionOracle:
    """``max_rate`` reads the projection onto RB; the simplex of ``lp`` on
    the system's own rows is the oracle, in status and exact value."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_six_systems_on_random_rational_bindings(self, data):
        s = six_system(*data.draw(st.sampled_from(SIX)))
        # 0 to 4 bits in steps of 1/64, zero often, so both statuses come up
        value = st.one_of(st.just(Fraction(0)), st.integers(0, 256).map(lambda k: Fraction(k, 64)))
        binding = {str(q): data.draw(value) for q in s.symbols}
        assert answer(fm.max_rate(s, binding)) == answer(oracle(s, binding))

    @pytest.mark.parametrize("which, kind", SIX)
    def test_seeded_bindings_reach_both_statuses(self, which, kind):
        s = six_system(which, kind)
        rng = np.random.default_rng([24, len(s.inequalities)])
        names = [str(q) for q in s.symbols]
        bindings = rational_bindings(rng, names, 40)
        got = [answer(fm.max_rate(s, b)) for b in bindings]
        assert got == [answer(oracle(s, b)) for b in bindings]
        assert {status for status, _ in got} == {OPTIMAL, INFEASIBLE}

    def test_bindings_read_in_blocks_agree(self, monkeypatch):
        s = six_system("t2", "reduced")
        names = [str(q) for q in s.symbols]
        rng = np.random.default_rng(9)
        bindings = rational_bindings(rng, names, 30)
        whole = fm._solve(s, names, fm._table(bindings, names))
        monkeypatch.setattr(prob, "BLOCK_ENTRIES", 1)  # one binding per block
        assert fm._solve(s, names, fm._table(bindings, names)) == whole

    @pytest.mark.parametrize("values", [
        {A: Fraction(1, 3), B: Fraction(1, 3)},  # 1/3 - 1/3 is exactly 0
        {A: Fraction(1, 3), B: Fraction(1, 3) + Fraction(1, 10**30)},
        {A: Fraction(1, 3) + Fraction(1, 10**30), B: Fraction(1, 3)},
        {A: Fraction(1, 10**300), B: Fraction(1, 10**300)},
        {A: Fraction(10**300), B: Fraction(10**300) - 1},
        {A: Fraction(10**400), B: Fraction(10**400)},  # beyond float range
        {A: Fraction(10**400), B: Fraction(1, 3)},
        {A: Fraction(1, 10**400), B: Fraction(0)},  # underflows to 0.0
        {A: Fraction(0), B: Fraction(0)},
    ], ids=["equal-thirds", "b-above", "a-above", "1e-300", "1e300", "past-float",
            "mixed", "underflow", "zeros"])
    @pytest.mark.parametrize("rows", [
        # the cap B, a floor A, and a free row A - B <= 0
        [cap({"RB": 1}, {B: -1}), cap({"RB": -1}, {A: 1}), cap({}, {A: 1, B: -1})],
        # two candidate least upper bounds, one of them strict
        [cap({"RB": 1}, {A: -1}), cap({"RB": 3}, {B: -3}, strict=True)],
        # a free row that is false unless A == B
        [cap({"RB": 1}, {A: -1}), cap({}, {A: 1, B: -1}), cap({}, {A: -1, B: 1})],
        # a floor with no cap: unbounded, unless the free row fails
        [cap({"RB": -2}, {A: 2}), cap({}, {B: 1, A: -1})],
    ], ids=["cap-floor-free", "two-caps", "equality", "unbounded"])
    def test_near_ties(self, rows, values):
        binding = {str(k): v for k, v in values.items()}
        want = fraction_rows_max_rate(rows, ("RB",), binding)
        assert answer(fm.max_rate(system(rows, ("RB",)), binding)) == answer(want)

    def test_unbounded_system(self):
        s = system([cap({"RB": -1, "RA": 1}, {A: 1}), cap({"RA": -1}, {B: -1})], ("RB", "RA"))
        binding = {str(A): Fraction(1, 3), str(B): Fraction(2)}
        assert answer(fm.max_rate(s, binding)) == (UNBOUNDED, None)
        assert answer(oracle(s, binding)) == (UNBOUNDED, None)

    def test_negative_symbol_value_rejected(self):
        # pruning keeps only what nonnegative symbols imply
        s = system([cap({"RB": 1}, {A: -1})], ("RB",))
        for value in (Fraction(-1, 3), Fraction(-1, 10**400), Fraction(-10**400)):
            with pytest.raises(ValidationError, match="negative value"):
                fm.max_rate(s, {str(A): value})

    @pytest.mark.parametrize("which, seed", [("t1", 10), ("t2", 3)])
    def test_no_simplex_on_agreeing_bindings(self, monkeypatch, which, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(fm, "maximize", refuse)
        monkeypatch.setattr(lp, "maximize", refuse)
        raw, red, tgt = (six_system(which, kind) for kind in ("builtin", "reduced", "target"))
        bindings = fm.sample_bindings(which, 30, seed)
        for a, b in ((raw, red), (red, tgt), (raw, tgt)):
            assert fm.numeric_equiv(a, b, bindings).equivalent
        rational = rational_bindings(np.random.default_rng(5), [str(q) for q in raw.symbols], 40)
        rep = fm.numeric_equiv(raw, red, rational)
        assert rep.equivalent and rep.informative > 0

    def test_disagreement_is_confirmed_by_the_simplex(self, monkeypatch):
        channel, law, _ = df_heavy_law()
        binding = fm.binding_of(assemble_joint_t2(channel, law), "t2")
        red, tgt = six_system("t2", "reduced"), six_system("t2", "target")
        calls = []
        simplex = fm._simplex
        monkeypatch.setattr(fm, "_simplex", lambda s, b: calls.append(s) or simplex(s, b))
        assert not fm.numeric_equiv(red, tgt, [binding]).equivalent
        assert calls == [red, tgt]
        # an answer the simplex does not confirm raises
        monkeypatch.setattr(fm, "_simplex", lambda s, b: LpResult(UNBOUNDED))
        with pytest.raises(InvariantError, match="simplex"):
            fm.numeric_equiv(red, tgt, [binding])


def float_value():
    """Floats a binding may hold: 0, ordinary values, subnormals, 2**-1000
    and values near 2**1000, where a coefficient times a value overflows."""
    return st.one_of(
        st.just(0.0),
        st.just(2.0**-1000),
        st.floats(0.0, 4.0),
        st.floats(5e-324, 2.0**-1022, exclude_max=True),
        st.floats(2.0**999, 2.0**1001),
    )


class TestFloatBindings:
    """A binding's floats are exact dyadic rationals: reading them as floats
    gives what their Fractions give, and only unsure rows pay for Fractions."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_float_binding_matches_its_fractions(self, data):
        s = six_system(*data.draw(st.sampled_from(SIX)))
        binding = {str(q): data.draw(float_value()) for q in s.symbols}
        got = fm.max_rate(s, binding)
        assert answer(got) == answer(fm.max_rate(s, {k: Fraction(v) for k, v in binding.items()}))
        assert got.value is None or type(got.value) is Fraction

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_seeded_floats_match_the_simplex(self, which):
        s = six_system(which, "reduced")
        for binding in fm.sample_bindings(which, 20, seed=12):
            exact = {k: Fraction(v) for k, v in binding.items()}
            assert answer(fm.max_rate(s, binding)) == answer(oracle(s, exact))

    def test_no_fraction_for_bindings_the_screen_settles(self, monkeypatch):
        red, tgt = six_system("t2", "reduced"), six_system("t2", "target")
        settled, built = [], []
        screen = fm._screen

        def spy_screen(*args):
            infeasible, unsure = screen(*args)
            settled.append(bool(infeasible.all()))
            return infeasible, unsure

        class Counted(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return Fraction(*args)

        monkeypatch.setattr(fm, "_screen", spy_screen)
        monkeypatch.setattr(fm, "Fraction", Counted)
        # sampled t2 bindings are nearly all settled infeasible; steps of
        # 1/64, as floats, reach optima
        names = sorted({str(q) for q in red.symbols + tgt.symbols})
        steps = rational_bindings(np.random.default_rng(5), names, 20)
        costs = []
        for binding in fm.sample_bindings("t2", 60, seed=8) + [
                {k: float(v) for k, v in b.items()} for b in steps]:
            settled.clear()
            built.clear()
            fm.numeric_equiv(red, tgt, [binding])
            costs.append((settled == [True, True], len(built)))
        assert {n for screened, n in costs if screened} == {0}
        assert any(screened for screened, _ in costs)
        assert any(n for screened, n in costs if not screened)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), np.float64("nan"),
        "0.5", None, 1j, [0.5],
    ], ids=["nan", "inf", "-inf", "numpy-nan", "str", "none", "complex", "list"])
    @pytest.mark.parametrize("with_fraction", [False, True])
    def test_non_number_refused_by_name(self, value, with_fraction):
        s = system([cap({"RB": 1}, {A: -1}), cap({"RB": 1}, {B: -1})], ("RB",))
        binding = {str(A): Fraction(1, 3) if with_fraction else 0.25, str(B): value}
        with pytest.raises(ValidationError, match=r"gives I\(Yh2;Y2\|X2\) the value .*not a finite"):
            fm.max_rate(s, binding)
        with pytest.raises(ValidationError, match=r"I\(Yh2;Y2\|X2\)"):
            fm.numeric_equiv(s, s, [{str(A): 0.5, str(B): 0.5}, binding])

    def test_negative_zero_is_zero(self):
        s = system([cap({"RB": 1}, {A: -1}), cap({}, {B: 1})], ("RB",))
        for a in (0.0, -0.0, Fraction(0)):
            for b in (0.0, -0.0, 0):
                assert answer(fm.max_rate(s, {str(A): a, str(B): b})) == (OPTIMAL, Fraction(0))

    @pytest.mark.parametrize("value", [-0.5, -5e-324, Fraction(-1, 10**400), np.float64(-1.0)])
    def test_negative_refused_by_name(self, value):
        s = system([cap({"RB": 1}, {A: -1}), cap({"RB": 1}, {B: -1})], ("RB",))
        with pytest.raises(ValidationError, match=r"gives I\(Yh2;Y2\|X2\) a negative value"):
            fm.max_rate(s, {str(A): 0.25, str(B): value})


class TestSchemeReduction:
    """The headline derivations, on seeded real-law bindings."""

    def test_first_scheme_matches_single_letter_region(self):
        raw = fm.builtin_system("t1")
        red = fm.eliminate_all(raw, ["RH1", "RH2", "RS1", "RS2"])
        assert red.variables == ("RB",)
        bindings = fm.sample_bindings("t1", 30, seed=10)
        rep = fm.numeric_equiv(red, fm.target_system("t1"), bindings)
        assert rep.equivalent
        # this seed exercises both feasible and infeasible laws
        statuses = {c.status_a for c in rep.comparisons}
        assert statuses == {OPTIMAL, INFEASIBLE}

    def test_second_scheme_matches_single_letter_region_on_sampled_laws(self):
        raw = fm.builtin_system("t2")
        red = fm.eliminate_all(
            raw, ["RH1", "RH2", "R011", "R012", "R021", "R022"]
        )
        assert set(red.variables) == {"RB", "R1", "R21", "R22"}
        bindings = fm.sample_bindings("t2", 30, seed=3)
        rep = fm.numeric_equiv(red, fm.target_system("t2"), bindings)
        assert rep.equivalent
        assert OPTIMAL in {c.status_a for c in rep.comparisons}


def df_heavy_law():
    """A law whose decode-and-forward path carries rate on its own.

    The sender's auxiliary fully determines the transmitted symbol, the
    direct link is clean, and the relay observation is a noisy copy that the
    quantizer forwards verbatim.  Quantization then costs a full conditional
    entropy while the decoding budgets that back it are all zero.
    """
    p = 0.25
    x0 = Alphabet("X0", 2)
    x1 = Alphabet("X1", 1)
    x2 = Alphabet("X2", 1)
    y0 = Alphabet("Y0", 2)
    y1 = Alphabet("Y1", 2)
    y2 = Alphabet("Y2", 1)
    v1 = Alphabet("V1", 2)
    v2 = Alphabet("V2", 1)
    yh1 = Alphabet("Yh1", 2)
    yh2 = Alphabet("Yh2", 1)

    chan = np.zeros((2, 1, 1, 2, 2, 1))
    for a in range(2):
        for b in range(2):
            chan[a, 0, 0, a, b, 0] = (1 - p) if b == a else p
    channel = NetworkChannel(CondPmf((x0, x1, x2), (y0, y1, y2), chan))

    law = T2Law(
        px1=JointPmf((x1,), np.ones((1,))),
        px2=JointPmf((x2,), np.ones((1,))),
        pv1_given_x1=CondPmf((x1,), (v1,), np.full((1, 2), 0.5)),
        pv2_given_x2=uniform_cond((x2,), (v2,)),
        px0_given_x1x2v1v2=CondPmf(
            (x1, x2, v1, v2), (x0,), np.eye(2).reshape(1, 1, 2, 1, 2)
        ),
        pyh1_given_x1v1y1=CondPmf(
            (x1, v1, y1), (yh1,),
            np.array(np.broadcast_to(np.eye(2), (1, 2, 2, 2))),
        ),
        pyh2_given_x2v2y2=uniform_cond((x2, v2, y2), (yh2,)),
    )
    return channel, law, p


class TestSchemeReductionGap:
    """Where the second scheme's two formulations genuinely differ.

    On the decode-and-forward-heavy law the per-stage system is infeasible
    (the quantizer needs more budget than the zero decoding room it gets),
    yet the single-letter constraint set still admits the decode-and-forward
    rate alone.  numeric_equiv must surface that as a disagreement, not an
    error and not a silent pass.
    """

    def test_disagreement_reported_honestly(self):
        channel, law, p = df_heavy_law()
        binding = fm.binding_of(assemble_joint_t2(channel, law), "t2")

        raw = fm.builtin_system("t2")
        red = fm.eliminate_all(
            raw, ["RH1", "RH2", "R011", "R012", "R021", "R022"]
        )
        rep = fm.numeric_equiv(red, fm.target_system("t2"), [binding])
        assert not rep.equivalent
        c = rep.comparisons[0]
        assert c.status_a == INFEASIBLE
        assert c.status_b == OPTIMAL
        assert c.max_b == pytest.approx(1 - binary_entropy(p), abs=1e-9)

    def test_evaluator_sides_with_single_letter_region(self):
        channel, law, p = df_heavy_law()
        report = eval_theorem2(channel, law)
        assert report.feasible
        assert report.objective_bits == pytest.approx(
            1 - binary_entropy(p), abs=1e-9
        )

    def test_reduced_system_demands_quantizer_budget(self):
        # the reduction contains a variable-free row requiring the relay-1
        # quantization cost to fit inside its decoding plus recovery budget;
        # the single-letter set never forces that when the auxiliary path is open
        red = fm.eliminate_all(
            fm.builtin_system("t2"),
            ["RH1", "RH2", "R011", "R012", "R021", "R022"],
        )
        t = T2_QUERIES
        wanted = {
            t["sender1"]: Fraction(1),
            t["dec1"]: Fraction(-1),
            t["res1"]: Fraction(-1),
        }
        assert any(r.coeffs == wanted for r in red.inequalities)


class TestTextFormat:
    def test_golden_emit(self):
        s = system(
            [
                fm.Inequality(expr({"RB": 1}, {A: -1}), True, "cap"),
                fm.Inequality(expr({"RB": -1}), False, "RB>=0"),
            ],
            ("RB",),
        )
        assert fm.format_system(s) == (
            "vars: RB\n"
            "1*RB + -1*I(Yh1;Y1|X1) < 0  # cap\n"
            "-1*RB <= 0  # RB>=0\n"
        )

    def test_parse_tolerates_comments_and_blanks(self):
        text = (
            "# leading comment\n"
            "vars: RB\n"
            "\n"
            "1*RB + -1*I(Yh1;Y1|X1) <= 0\n"
        )
        s = fm.parse_system(text)
        assert s.variables == ("RB",)
        assert s.inequalities[0].provenance == ""
        assert not s.inequalities[0].strict

    def test_parse_merges_repeated_terms(self):
        s = fm.parse_system("vars: RB\n1*RB + 1*RB + -1*I(Yh1;Y1|X1) < 0\n")
        # 2*RB - I < 0, normalized
        assert s.inequalities[0].coeffs == {"RB": Fraction(1), A: Fraction(-1, 2)}

    def test_each_symbol_text_parsed_once(self, monkeypatch):
        text = fm.format_system(fm.builtin_system("t2"))
        texts = []
        parse = InfoQuery.parse.__func__
        monkeypatch.setattr(InfoQuery, "parse",
                            classmethod(lambda cls, s: texts.append(s) or parse(cls, s)))
        assert fm.format_system(fm.parse_system(text)) == text
        assert sorted(texts) == sorted(set(texts))
        assert len(texts) == len(fm.builtin_system("t2").symbols)

    @pytest.mark.parametrize("which, kind", SIX)
    def test_integer_rows_need_no_fraction(self, monkeypatch, which, kind):
        text = fm.format_system(six_system(which, kind))
        built = []

        class Counted(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(fm, "Fraction", Counted)
        assert fm.format_system(fm.parse_system(text)) == text
        assert len(built) == len(re.findall(r"[0-9]/[0-9]", text))

    def test_zero_row_round_trips(self):
        s = system(
            [
                fm.Inequality(expr({"RB": 1}), True, "use-rb"),
                fm.Inequality(expr(), True, "empty"),
            ],
            ("RB",),
        )
        text = fm.format_system(s)
        assert "0 < 0  # empty" in text
        assert fm.format_system(fm.parse_system(text)) == text

    def test_rational_coefficients_round_trip(self):
        s = system(
            [fm.Inequality(expr({"RB": 1}, {A: Fraction(-22, 7)}), False, "q")],
            ("RB",),
        )
        text = fm.format_system(s)
        assert "-22/7*I(Yh1;Y1|X1)" in text
        assert fm.format_system(fm.parse_system(text)) == text

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_systems_round_trip(self, data):
        coeff = st.fractions(-9, 9, max_denominator=12).filter(bool)
        names = st.from_regex(r"R[A-Z0-9]{0,3}", fullmatch=True)
        rows, used = [], []
        for _ in range(data.draw(st.integers(0, 6))):
            ids = data.draw(st.permutations(CANONICAL_ORDER))
            cut = sorted(data.draw(st.lists(st.integers(1, 9), min_size=2, max_size=2)))
            n_left, n_right = cut[0], max(cut[1] - cut[0], 1)
            given = ids[n_left + n_right:n_left + n_right + data.draw(st.integers(0, 3))]
            sym = InfoQuery(ids[:n_left], ids[n_left:n_left + n_right], given)
            rate_vars = data.draw(st.dictionaries(names, coeff, max_size=3))
            sym_coeffs = data.draw(st.dictionaries(st.just(sym), coeff, max_size=1))
            provenance = data.draw(st.text("abcRH0123()<>=+-;|, ", max_size=12)).strip()
            rows.append(fm.Inequality(expr(rate_vars, sym_coeffs), data.draw(st.booleans()),
                                      provenance))
            used += [v for v in rate_vars if v not in used]
        variables = tuple(data.draw(st.permutations(used)))
        s = system(rows, variables)
        text = fm.format_system(s)
        parsed = fm.parse_system(text)
        assert parsed.variables == variables
        assert [tuple(r) for r in parsed.inequalities] == [
            (normalized(c, variables), strict, label) for c, strict, label in rows]
        assert fm.format_system(parsed) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "1*RB < 0\n",  # no header
            "vars: RB\n1*RB = 0\n",  # bad sense
            "vars: RB\nRB < 0\n",  # missing coefficient
            "vars: RB\n1*I(Yh1) < 0\n",  # malformed term
            "vars: RB\n1*RH9 < 0\n",  # undeclared variable
            "vars: RB\n1/0*RB < 0\n",  # zero denominator
            "vars: RB\n1e400*RB < 0\n",  # not an integer or integer ratio
            "vars: RB\n1*RB + 1*I(X0;Y0|) < 0\n",  # empty conditioning set
            pytest.param(f"vars: RB\n{'1' * 5000}*RB < 0\n", id="more-digits-than-int-reads"),
            "vars: RB RB\n1*RB < 0\n",  # variable declared twice
            "vars: RB\nvars: RA\n1*RA < 0\n",  # a second header
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValidationError):
            fm.parse_system(bad)
