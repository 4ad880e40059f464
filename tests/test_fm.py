"""Symbolic elimination: exactness, pruning direction, numeric equivalence.

The two headline checks reduce each builtin system and compare it against the
corresponding single-letter target system by exact LP on seeded
bindings.  A hand-built decode-and-forward-heavy law is also exercised where
the two systems genuinely part ways, to pin down that numeric_equiv reports
the disagreement instead of papering over it.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworelay import cli, fm
from tworelay.info import InfoQuery, binary_entropy
from tworelay.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, maximize
from tworelay.prob import (
    CANONICAL_ORDER,
    Alphabet,
    CondPmf,
    JointPmf,
    NetworkChannel,
    T2Law,
    ValidationError,
    assemble_joint_t2,
    uniform_cond,
)
from tworelay.rates import T1_QUERIES, T2_QUERIES, eval_theorem2

A = fm.InfoSymbol.of(InfoQuery(("Yh1",), ("Y1",), ("X1",)))
B = fm.InfoSymbol.of(InfoQuery(("Yh2",), ("Y2",), ("X2",)))

GOLDEN = Path(__file__).parent / "golden"


def expr(vars=None, syms=None):
    return fm.LinearExpr.of(vars or {}, syms or {})


def system(rows, variables):
    return fm.RateSystem(tuple(rows), tuple(variables))


def t1_binding(**values):
    """Name every theorem-1 symbol, defaulting the unmentioned ones to 0."""
    out = {str(q): Fraction(0) for q in T1_QUERIES.values()}
    for name, v in values.items():
        out[str(T1_QUERIES[name])] = Fraction(v)
    return out


class TestInfoSymbol:
    def test_name_is_canonical_query(self):
        assert A.name == "I(Yh1;Y1|X1)"

    def test_identity_by_name(self):
        again = fm.InfoSymbol.of(InfoQuery(("Yh1",), ("Y1",), ("X1",)))
        assert again == A
        assert hash(again) == hash(A)
        assert A < B


class TestLinearExpr:
    def test_zero_coefficients_dropped(self):
        e = expr({"RB": 0, "RH1": 2}, {A: Fraction(0)})
        assert e.vars == (("RH1", Fraction(2)),)
        assert e.syms == ()

    def test_plus_cancels(self):
        e = expr({"RB": 1}, {A: 1}) + expr({"RB": -1}, {A: 2})
        assert e.vars == ()
        assert e.sym_map() == {A: Fraction(3)}

    def test_minus_cancels(self):
        e = expr({"RB": 1, "RH1": 2}, {A: 1}) - expr({"RB": 1}, {A: 1, B: 1})
        assert e.var_map() == {"RH1": Fraction(2)}
        assert e.sym_map() == {B: Fraction(-1)}

    def test_scaled_keeps_lowest_terms(self):
        e = expr({"RB": Fraction(2, 3)}).scaled(Fraction(3, 4))
        assert e.var_map() == {"RB": Fraction(1, 2)}

    def test_is_zero(self):
        assert expr().is_zero()
        assert not expr({"RB": 1}).is_zero()


class TestInequality:
    def test_normalization_scales_leading_variable(self):
        row = fm.Inequality(expr({"RH1": -2, "RB": 4}, {A: 6}), True, "x")
        norm = row.normalized(("RB", "RH1"))
        assert norm.expr.var_map() == {"RB": Fraction(1), "RH1": Fraction(-1, 2)}
        assert norm.expr.sym_map() == {A: Fraction(3, 2)}
        assert norm.strict

    def test_normalization_direction_preserved(self):
        # scale factor is positive even when the leading coefficient is not
        row = fm.Inequality(expr({"RB": -3}), False, "x")
        norm = row.normalized(("RB",))
        assert norm.expr.var_map() == {"RB": Fraction(-1)}

    def test_symbol_only_row_normalized_by_first_symbol(self):
        row = fm.Inequality(expr(syms={A: 4, B: 2}), True, "x")
        norm = row.normalized(("RB",))
        assert norm.expr.sym_map() == {A: Fraction(1), B: Fraction(1, 2)}


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
        assert [sym.name for sym in s.symbols] == sorted([A.name, B.name])


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
        assert row.expr.var_map() == {}
        assert row.expr.sym_map() == {A: Fraction(-1), B: Fraction(1)}
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
        row = fm.eliminate(s, "X").inequalities[0]
        assert row.expr.sym_map() == {A: Fraction(-1, 3), B: Fraction(2, 7)}

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


class TestNumericEquiv:
    def test_identical_systems(self):
        tgt = fm.target_system("t1")
        bindings = fm.sample_bindings("t1", 5, seed=1)
        assert fm.numeric_equiv(tgt, tgt, bindings).equivalent

    def test_redundant_row_is_harmless(self):
        tgt = fm.target_system("t1")
        padded = fm.RateSystem(
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
        assert c.slack_a == 0.0  # the objective link is tight at the optimum

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
            fm.max_rate(nob, t1_binding(), "RB")


def fraction_rows_max_rate(system, binding, objective="RB"):
    """max_rate with each row constant summed in Fractions, row by row."""
    rows = []
    for ineq in system.inequalities:
        const = Fraction(0)
        for sym, c in ineq.expr.syms:
            const += c * binding[sym.name]
        rows.append((ineq.expr.var_map(), -const))
    return maximize({objective: 1}, rows, system.variables)


class TestMaxRate:
    SYMBOLS = [fm.InfoSymbol.of(q) for q in list(T1_QUERIES.values())[:4]]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_integer_binding_matches_fraction_rows(self, data):
        # mostly rows that cap the rates by a combination of symbols, so
        # that most systems are feasible and a scaled row often binds
        rate_coeff = st.fractions(-1, 3, max_denominator=9)
        sym_coeff = st.fractions(-4, 1, max_denominator=9)
        rows = [fm.Inequality(expr({"RB": 1}, {self.SYMBOLS[0]: -1}), True, "cap")]
        for _ in range(data.draw(st.integers(0, 6))):
            rate_vars = data.draw(st.dictionaries(st.sampled_from(["RB", "RA"]), rate_coeff))
            syms = data.draw(st.dictionaries(st.sampled_from(self.SYMBOLS), sym_coeff))
            rows.append(fm.Inequality(expr(rate_vars, syms), data.draw(st.booleans()), "r"))
        used = {v for r in rows for v, _ in r.expr.vars}
        s = system(rows, [v for v in ("RB", "RA") if v in used])
        # non-dyadic values from a short list, so equal values cancel and
        # some row constants come out exactly 0
        value = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(5, 7),
                                 Fraction(2), Fraction(11, 6), Fraction(1, 1024)])
        binding = {sym.name: data.draw(value) for sym in self.SYMBOLS}
        assert fm.max_rate(s, binding) == fraction_rows_max_rate(s, binding)

    def test_zero_constant_rows(self):
        # 2/3*(A - B) is exactly 0 when A == B, so RB <= 0 binds below the
        # cap row's 1/9
        s = system(
            [fm.Inequality(expr({"RB": 1}, {A: Fraction(2, 3), B: Fraction(-2, 3)}), False, "z"),
             fm.Inequality(expr({"RB": 3}, {A: -1}), False, "cap")],
            ("RB",),
        )
        binding = {A.name: Fraction(1, 3), B.name: Fraction(1, 3)}
        res = fm.max_rate(s, binding)
        assert res == fraction_rows_max_rate(s, binding)
        assert res.value == Fraction(0)

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_sampled_bindings_match_fraction_rows(self, which):
        helpers = {"t1": ["RH1", "RH2", "RS1", "RS2"],
                   "t2": ["RH1", "RH2", "R011", "R012", "R021", "R022"]}[which]
        raw = fm.builtin_system(which)
        systems = (raw, fm.eliminate_all(raw, helpers), fm.target_system(which))
        for binding in fm.sample_bindings(which, 6, seed=21):
            for s in systems:
                assert fm.max_rate(s, binding) == fraction_rows_max_rate(s, binding)


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
        t = {name: fm.InfoSymbol.of(q) for name, q in T2_QUERIES.items()}
        wanted = {
            t["sender1"]: Fraction(1),
            t["dec1"]: Fraction(-1),
            t["res1"]: Fraction(-1),
        }
        assert any(
            not r.expr.vars and r.expr.sym_map() == wanted
            for r in red.inequalities
        )


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
        assert s.inequalities[0].expr.var_map() == {"RB": Fraction(2)}

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
            sym = fm.InfoSymbol.of(
                InfoQuery(ids[:n_left], ids[n_left:n_left + n_right], given)
            )
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
        assert parsed == system([r.normalized(variables) for r in rows], variables)
        assert fm.format_system(parsed) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "1*RB < 0\n",  # no header
            "vars: RB\n1*RB = 0\n",  # bad sense
            "vars: RB\nRB < 0\n",  # missing coefficient
            "vars: RB\n1*I(Yh1) < 0\n",  # malformed term
            "vars: RB\n1*RH9 < 0\n",  # undeclared variable
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValidationError):
            fm.parse_system(bad)
