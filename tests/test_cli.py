"""End-to-end behavior of the command line front end."""

import argparse
import csv
import io as stdio
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import tworelay
from tworelay import cli, fm
from tworelay import io as tio
from tworelay.io import channel_preset
from tworelay.lp import UNBOUNDED, LpResult
from tworelay.optimize import MODES, SearchConfig
from tworelay.prob import (
    Alphabet,
    MAX_JOINT_ENTRIES,
    CondPmf,
    NetworkChannel,
    T1Law,
    T2Law,
    deterministic_cond,
    point_mass,
    uniform_cond,
    uniform_law,
    uniform_pmf,
    uniform_t1_law,
)
from tworelay.rates import T1_QUERIES, T2_QUERIES, T1Rates

GOLDEN = Path(__file__).parent / "golden"
T2_SIZES = {"V1": 2, "V2": 2, "Yh1": 2, "Yh2": 2}


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
    ax = {v: Alphabet(v, 2) for v in ("X0", "X1", "X2", "Y1", "Y2", "Yh1", "Yh2")}
    copy = np.arange(2)[None, :].repeat(2, axis=0)
    return T1Law(
        point_mass(ax["X1"], 0),
        point_mass(ax["X2"], 0),
        deterministic_cond((ax["X1"], ax["X2"]), ax["X0"], np.zeros((2, 2), dtype=np.int64)),
        deterministic_cond((ax["X1"], ax["Y1"]), ax["Yh1"], copy),
        deterministic_cond((ax["X2"], ax["Y2"]), ax["Yh2"], copy),
    )


def covering_pair(alpha=0.25):
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


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One shared set of channel and law files for every subcommand."""
    root = tmp_path_factory.mktemp("cli")
    out = {}

    def put(name, payload):
        path = root / (name + ".json")
        path.write_text(tio.dumps(payload))
        out[name] = str(path)

    ident = channel_preset("identity-direct")
    put("chan", {"format_version": 1, "kind": "channel", "preset": "identity-direct"})
    put("law_t1", tio.law_to_dict(uniform_t1_law(ident)))
    put("law_t2", tio.law_to_dict(uniform_law(T2Law, ident, T2_SIZES)))
    bad_data = tio.law_to_dict(uniform_t1_law(ident))
    bad_data["components"]["px1"]["data"] = [0.5, "x"]
    put("law_bad_data", bad_data)
    extra = tio.law_to_dict(uniform_t1_law(ident))
    extra["components"]["pv1_given_x1"] = tio.law_to_dict(uniform_law(T2Law, ident, T2_SIZES))["components"]["pv1_given_x1"]
    extra["components"]["typo_px1"] = extra["components"]["px1"]
    put("law_extra_components", extra)
    # built for a three-letter X1, while the identity-direct channel has two
    wide = NetworkChannel(uniform_cond(
        tuple(Alphabet(v, 3 if v == "X1" else 2) for v in ("X0", "X1", "X2")),
        tuple(Alphabet(v, 2) for v in ("Y0", "Y1", "Y2"))))
    put("law_wide_x1", tio.law_to_dict(uniform_t1_law(wide)))
    put("chan_noiseless", tio.channel_to_dict(broadcast_channel()))
    put("law_pinned", tio.law_to_dict(pinned_law()))
    cov_channel, cov_law = covering_pair()
    put("chan_cov", tio.channel_to_dict(cov_channel))
    put("law_cov", tio.law_to_dict(cov_law))

    bad = root / "truncated.json"
    bad.write_text('{"format_version": 1, "kind": "chan')
    out["truncated"] = str(bad)
    return out


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """A channel and a second-theorem law with every alphabet at 8 letters:
    their joint would hold 8^10 entries (8 GiB), above the entry cap."""
    root = tmp_path_factory.mktemp("wide")
    channel = NetworkChannel(uniform_cond(
        tuple(Alphabet(v, 8) for v in ("X0", "X1", "X2")),
        tuple(Alphabet(v, 8) for v in ("Y0", "Y1", "Y2"))))
    out = {"chan": root / "chan.json", "law": root / "law.json"}
    out["chan"].write_text(tio.dumps(tio.channel_to_dict(channel)))
    law = uniform_law(T2Law, channel, dict.fromkeys(T2_SIZES, 8))
    out["law"].write_text(tio.dumps(tio.law_to_dict(law)))
    return {k: str(v) for k, v in out.items()}


@pytest.fixture
def no_over_cap_buffer(monkeypatch):
    """Fail, rather than allocate, if the joint product asks ``np.empty`` for
    an output above the entry cap (``test_prob`` pins that it allocates its
    output there, once)."""
    empty = np.empty

    def guarded(shape, *args, **kwargs):
        if math.prod((shape,) if isinstance(shape, int) else shape) > MAX_JOINT_ENTRIES:
            pytest.fail("an over-cap joint was allocated")
        return empty(shape, *args, **kwargs)
    monkeypatch.setattr(np, "empty", guarded)


def run_cli(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestEval:
    def test_t1_json_shape(self, files, capsys):
        code, out, err = run_cli(
            ["eval", "--channel", files["chan"], "--law", files["law_t1"],
             "--theorem", "t1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["format_version"] == 1
        assert isinstance(payload["objective_bits"], float)
        assert isinstance(payload["feasible"], bool)
        for row in payload["constraints"]:
            assert set(row) == {"label", "lhs", "rhs", "satisfied"}
        assert err.startswith("t1: ")
        assert "bits" in err

    def test_t2_accepts_t2_law(self, files, capsys):
        code, out, _ = run_cli(
            ["eval", "--channel", files["chan"], "--law", files["law_t2"],
             "--theorem", "t2"], capsys)
        assert code == 0
        assert "objective_bits" in json.loads(out)

    def test_nats_scales_everything(self, files, capsys):
        base = ["eval", "--channel", files["chan"], "--law", files["law_t1"],
                "--theorem", "t1"]
        _, out_bits, _ = run_cli(base, capsys)
        _, out_nats, _ = run_cli(base + ["--nats"], capsys)
        bits = json.loads(out_bits)
        nats = json.loads(out_nats)
        assert nats["units"] == "nats"
        assert "objective_bits" not in nats
        assert nats["objective_nats"] == pytest.approx(bits["objective_bits"] * math.log(2))
        for row_b, row_n in zip(bits["constraints"], nats["constraints"]):
            assert row_n["lhs"] == pytest.approx(row_b["lhs"] * math.log(2))
            assert row_n["rhs"] == pytest.approx(row_b["rhs"] * math.log(2))
            assert row_n["satisfied"] == row_b["satisfied"]

    def test_law_kind_mismatch_exits_2(self, files, capsys):
        for held, theorem in (("t1", "t2"), ("t2", "t1")):
            code, out, err = run_cli(
                ["eval", "--channel", files["chan"], "--law", files[f"law_{held}"],
                 "--theorem", theorem], capsys)
            assert code == 2
            assert out == ""
            assert err == (f"error: the input holds a {held} law, "
                           f"but the requested theorem is {theorem}\n")

    def test_broken_file_exits_2(self, files, capsys):
        for channel, law, fragment in (
            ("truncated", "law_t1", "invalid JSON"),
            ("chan", "law_bad_data", "px1.data: could not convert string to float"),
            ("chan", "law_wide_x1", "alphabet mismatch on X1: law has 3, channel has 2"),
            ("chan", "law_extra_components",
             "law: unknown components 'pv1_given_x1', 'typo_px1' for theorem 't1'"),
        ):
            code, out, err = run_cli(
                ["eval", "--channel", files[channel], "--law", files[law],
                 "--theorem", "t1"], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")
            assert fragment in err


class TestEntryCap:
    # the cap fires before the joint's product allocates anything
    MESSAGE = "resource limit: joint of 1073741824 entries, cap is 100000000\n"

    def test_eval_exits_3(self, wide_files, no_over_cap_buffer, capsys):
        code, out, err = run_cli(
            ["eval", "--channel", wide_files["chan"], "--law", wide_files["law"],
             "--theorem", "t2"], capsys)
        assert (code, out, err) == (3, "", self.MESSAGE)

    @pytest.mark.parametrize("mode", ["grid", "random-restart"])
    def test_optimize_exits_3(self, mode, wide_files, no_over_cap_buffer, capsys):
        code, out, err = run_cli(
            ["optimize", "--channel", wide_files["chan"], "--theorem", "t2", "--mode", mode,
             "--restarts", "1", "--v1-size", "8", "--v2-size", "8", "--yh1-size", "8",
             "--yh2-size", "8"], capsys)
        assert (code, out, err) == (3, "", self.MESSAGE)


class TestOptimize:
    @pytest.mark.parametrize("theorem", ["t1", "t2"])
    def test_oversized_alphabet_exits_2_for_either_theorem(self, files, theorem, capsys):
        code, out, err = run_cli(
            ["optimize", "--channel", files["chan"], "--theorem", theorem,
             "--resolution", "2", "--v1-size", "9"], capsys)
        assert (code, out, err) == (2, "", "error: alphabet V1: size 9 outside [1, 8]\n")

    def test_grid_json_shape(self, files, capsys):
        code, out, err = run_cli(
            ["optimize", "--channel", files["chan"], "--theorem", "t1",
             "--mode", "grid", "--resolution", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "optimization"
        assert payload["theorem"] == "t1"
        assert payload["evaluations"] > 0
        assert len(payload["trace"]) >= 1
        # the winning law round-trips through the file format
        law = tio.law_from_dict(payload["law"])
        assert isinstance(law, T1Law)
        assert "evaluations" in err

    def test_nats_keys(self, files, capsys):
        code, out, _ = run_cli(
            ["optimize", "--channel", files["chan"], "--theorem", "t1",
             "--mode", "grid", "--resolution", "2", "--nats"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert "best_objective_nats" in payload
        assert "best_objective_bits" not in payload
        assert payload["report"]["units"] == "nats"

    def test_oversized_grid_exits_3(self, files, capsys):
        # about 8e22 compositions of 100000 over the six Yh1 letters, refused
        # before any law is scored
        code, out, err = run_cli(
            ["optimize", "--channel", files["chan"], "--theorem", "t1", "--mode", "grid",
             "--resolution", "100000", "--yh1-size", "6"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("resource limit: grid slice pyh1_given_x1y1[0, 0] with k=6")
        assert "resolution 100000" in err

    def test_jobs_do_not_change_output(self, files, capsys):
        base = ["optimize", "--channel", files["chan"], "--theorem", "t1",
                "--mode", "random-restart", "--restarts", "3",
                "--max-iter", "6", "--seed", "2"]
        _, serial, _ = run_cli(base + ["--jobs", "1"], capsys)
        _, parallel, _ = run_cli(base + ["--jobs", "3"], capsys)
        assert serial == parallel

    @pytest.mark.parametrize("theorem", ["t1", "t2"])
    @pytest.mark.parametrize("mode, options", [
        ("grid", ["--resolution", "8"]),
        ("restart", ["--restarts", "2", "--max-iter", "4", "--seed", "0"]),
    ])
    def test_golden_stdout(self, theorem, mode, options, tmp_path, capsys):
        # the README channel; the t2 restart run is the known dead search
        # that ends infeasible_everywhere after 5018 evaluations
        chan = tmp_path / "chan.json"
        chan.write_text(tio.dumps({
            "format_version": 1, "kind": "channel", "preset": "binary-symmetric-links",
            "crossover": {"Y0": 0.25, "Y1": 0.05, "Y2": 0.05}}))
        code, out, _ = run_cli(
            ["optimize", "--channel", str(chan), "--theorem", theorem,
             "--mode", "grid" if mode == "grid" else "random-restart", *options], capsys)
        assert code == 0
        assert out == (GOLDEN / f"optimize_{mode}_{theorem}.out").read_text(encoding="utf-8")

    def test_negative_seed_exits_2(self, files, capsys):
        # numpy refuses a negative seed with a ValueError deep in the search
        code, out, err = run_cli(
            ["optimize", "--channel", files["chan"], "--theorem", "t1",
             "--mode", "random-restart", "--restarts", "1", "--max-iter", "1",
             "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: seed -1 < 0\n"


class TestFm:
    def test_builtin_reduction_round_trips(self, capsys):
        code, out, err = run_cli(["fm", "t1"], capsys)
        assert code == 0
        reduced = fm.parse_system(out)
        expected = fm.eliminate_all(
            fm.builtin_system("t1"), ("RH1", "RH2", "RS1", "RS2"))
        assert len(reduced.inequalities) == len(expected.inequalities)
        assert " -> " in err

    def test_check_verdict_line(self, capsys):
        code, out, err = run_cli(
            ["fm", "t1", "--check-against", "t1", "--bindings", "10",
             "--seed", "10"], capsys)
        assert code == 0
        assert out.rstrip().endswith("# verdict: equivalent")
        # the verdict comment must not break re-parsing
        fm.parse_system(out)
        assert "equivalent over 10 bindings" in err

    def test_check_note_counts_informative_bindings(self, capsys):
        code, out, err = run_cli(
            ["fm", "t2", "--check-against", "t2", "--bindings", "12", "--seed", "3"], capsys)
        assert code == 0
        reduced = fm.eliminate_all(
            fm.builtin_system("t2"), ("RH1", "RH2", "R011", "R012", "R021", "R022"))
        report = fm.numeric_equiv(
            reduced, fm.target_system("t2"), fm.sample_bindings("t2", 12, seed=3))
        assert out.endswith(f"# verdict: {report.verdict}\n")
        assert err.rstrip().endswith(
            f"; {report.verdict} over 12 bindings, {report.informative} informative")

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(["fm", "t2", "--check-against", "t2", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: seed -1 < 0\n"

    def test_bindings_cap_exits_3(self, capsys):
        # refused before the first draw, so this returns at once
        count = fm.MAX_BINDINGS + 1
        code, out, err = run_cli(
            ["fm", "t1", "--check-against", "t1", "--bindings", str(count)], capsys)
        assert code == 3
        assert out == ""
        assert err == f"resource limit: {count} bindings exceed the cap of {fm.MAX_BINDINGS}\n"

    def test_unconfirmed_disagreement_exits_4(self, monkeypatch, capsys):
        # this check's one binding disagrees, so the simplex re-checks it;
        # a simplex answer other than the projection's is a broken invariant
        monkeypatch.setattr(fm, "maximize", lambda *args: LpResult(UNBOUNDED))
        code, out, err = run_cli(
            ["fm", "t2", "--check-against", "t2", "--bindings", "1", "--seed", "41"], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("invariant violated: ")

    def test_rows_on_many_scales_exit_0(self, tmp_path, capsys):
        # rate-free rows leading with the primes 2 to 53: the lcm of their
        # leads passes int64, which once refused the file with exit 3
        primes = [p for p in range(2, 54) if all(p % q for q in range(2, p))]
        path = tmp_path / "system.txt"
        path.write_text("vars: RB RA\n1*RB + -1*RA < 0\n1*RA + -1*I(X0;Y0) < 0\n"
                        + "".join(f"{p}*I(X0;Y0) + -1*I(X1;Y0) < 0\n" for p in primes))
        code, out, err = run_cli(["fm", str(path), "--eliminate", "RA"], capsys)
        assert code == 0
        assert out == ("vars: RB\n1*I(X0;Y0) + -1/53*I(X1;Y0) < 0  # \n"
                       "1*RB + -1*I(X0;Y0) < 0  # +\n")
        assert err == "18 rows -> 2\n"

    def test_system_file_input(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text(fm.format_system(fm.builtin_system("t1")))
        code, out, _ = run_cli(
            ["fm", str(path), "--eliminate", "RH1"], capsys)
        assert code == 0
        expected = fm.eliminate_all(fm.builtin_system("t1"), ("RH1",))
        assert len(fm.parse_system(out).inequalities) == len(expected.inequalities)

    def test_file_check_needs_builtin_tag(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text(fm.format_system(fm.builtin_system("t1")))
        code, out, err = run_cli(
            ["fm", str(path), "--check-against", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "needs a builtin tag" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_check_needs_a_binding(self, count, capsys):
        code, _, err = run_cli(
            ["fm", "t1", "--check-against", "t1", "--bindings", count], capsys)
        assert code == 2
        assert "at least one binding" in err
        assert "equivalent" not in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["fm", "no-such-system.txt"], capsys)
        assert code == 2
        assert err.startswith("error: ")

    def test_system_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_bytes(b"\xff\xfevars: RB\nRB <= 1\n")
        code, out, err = run_cli(["fm", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: system file {path}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")

    def test_zero_denominator_exits_2(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("vars: RB\n1/0*RB < 0\n")
        code, out, err = run_cli(["fm", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: line 2: malformed term '1/0*RB'\n"

    @pytest.mark.parametrize("text, message", [
        # once printed "1*RB + 1*RB < 0", which parses back as 2*RB
        ("vars: RB RB\n1*RB < 0\n", "variables declared more than once: ['RB']"),
        ("vars: RB\n1*RB + 1*I(X0;Y0|) < 0\n", "line 2: unknown variable id ''"),
        ("vars: RB\n1*I(Yh1) < 0\n", "line 2: malformed information term 'I(Yh1)'"),
        # once loaded, the second header replacing the first
        ("vars: RB\nvars: RA\n1*RA < 0\n", "line 2: a second 'vars:' header"),
    ])
    def test_malformed_system_exits_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text(text)
        code, out, err = run_cli(["fm", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_row_cap_exits_3(self, tmp_path, capsys):
        # 40 rows bound RA above and 40 below, over 12 distinct terms; the
        # 1,600 pairs are refused before any is formed
        terms = list(T1_QUERIES.values())[:12]
        rows = []
        for i in range(40):
            a, b = terms[i % 12], terms[(i + 5) % 12]
            rows.append({"RA": 1, "RB": i, a: 1, b: -(i + 1)})
            rows.append({"RA": -1, "RB": i + 2, a: -i, b: 1})
        system = fm.RateSystem.of(
            [fm.Inequality(e, True, f"r{k}") for k, e in enumerate(rows)], ("RA", "RB"))
        path = tmp_path / "system.txt"
        path.write_text(fm.format_system(system))
        code, out, err = run_cli(["fm", str(path), "--eliminate", "RA"], capsys)
        assert code == 3
        assert out == ""
        assert err == (
            f"resource limit: eliminating RA would give 1600 rows, "
            f"above the cap of {fm.MAX_FM_ROWS}\n"
        )

    def test_projection_cap_exits_3(self, tmp_path, capsys):
        # 40 rows bound RA above and 40 below, as above, but nothing is
        # eliminated: the check's projection onto RB meets the cap
        terms = list(T2_QUERIES.values())[:12]
        rows = []
        for i in range(40):
            a, b = terms[i % 12], terms[(i + 5) % 12]
            rows.append({"RA": 1, "RB": i, a: 1, b: -(i + 1)})
            rows.append({"RA": -1, "RB": i + 2, a: -i, b: 1})
        system = fm.RateSystem.of(
            [fm.Inequality(e, True, f"r{k}") for k, e in enumerate(rows)], ("RA", "RB"))
        path = tmp_path / "system.txt"
        path.write_text(fm.format_system(system))
        code, out, err = run_cli(["fm", str(path), "--check-against", "t2"], capsys)
        assert code == 3
        assert out == ""
        # the closure's RA >= 0 is a 41st lower bound, RB >= 0 the one row kept
        assert err == (
            f"resource limit: projecting onto RB: eliminating RA would give 1641 rows, "
            f"above the cap of {fm.MAX_FM_ROWS}\n"
        )

    @pytest.mark.parametrize("text, options", [
        # a coefficient that int64 holds, but whose products could pass it
        ("vars: RB RA\n1*RB + 4294967296*RA < 0\n-1*RA + 1*I(Yh1;Y1|X1) < 0\n",
         ["--eliminate", "RA"]),
        # refused as the file loads, before any elimination
        ("vars: RB\n1*RB + 2147483648*I(Yh1;Y1|X1) < 0\n", []),
        ("vars: RB\n1*RB + -1/3000000000*I(V1;Y1|X1) < 0\n", ["--check-against", "t2"]),
        # a step multiplies coefficients: RB's comes out near 5.9e9
        ("vars: RB RA\n40000*RB + 65536*RA + -1*I(V1;Y1|X1) < 0\n"
         "50000*RB + -65535*RA + -1*I(V2;Y2|X2) < 0\n", ["--eliminate", "RA"]),
    ], ids=["compile", "load", "check", "step"])
    def test_coefficient_past_int64_range_exits_3(self, text, options, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text(text)
        code, out, err = run_cli(["fm", str(path), *options], capsys)
        assert code == 3
        assert out == ""
        assert err == ("resource limit: a row coefficient reaches 2**31, "
                       "past which int64 could overflow\n")


class TestSim:
    def test_noiseless_run_json(self, files, capsys):
        code, out, err = run_cli(
            ["sim", "--channel", files["chan_noiseless"], "--law",
             files["law_pinned"], "--n", "8", "--blocks", "3",
             "--trials", "5", "--seed", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "simulation"
        assert payload["blocks_decoded"] == 10
        assert all(v == 0 for v in payload["stage_errors"].values())
        assert "note:" not in err
        assert "10 blocks decoded, 0 first errors" in err

    def test_missing_seed_noted(self, files, capsys):
        code, _, err = run_cli(
            ["sim", "--channel", files["chan_noiseless"], "--law",
             files["law_pinned"], "--n", "4", "--trials", "2"], capsys)
        assert code == 0
        assert "note: --seed not given, defaulting to 0" in err

    def test_csv_output(self, files, capsys):
        code, out, _ = run_cli(
            ["sim", "--channel", files["chan_noiseless"], "--law",
             files["law_pinned"], "--n", "8", "--trials", "5",
             "--seed", "1", "--csv"], capsys)
        assert code == 0
        head, row = list(csv.reader(stdio.StringIO(out)))
        assert len(head) == len(row)
        assert "receiver-(s1,s2)" in head
        assert row[head.index("blocks_decoded")] == "10"
        for stage in head[4:]:
            assert row[head.index(stage)] == "0"

    def test_t2_law_rejected(self, files, capsys):
        # a run and a sweep alike
        for sweep in ([], ["--sweep", "rh1", "0:1:0.5"]):
            code, out, err = run_cli(
                ["sim", "--channel", files["chan"], "--law", files["law_t2"],
                 "--n", "4", "--seed", "0", *sweep], capsys)
            assert code == 2
            assert out == ""
            assert err == "error: the input holds a t2 law, but the requested theorem is t1\n"

    def test_codeword_cap_exits_3(self, files, capsys):
        for rates in (
            ["--n", "20", "--rbar", "1", "--rh1", "0.5", "--rh2", "0.5",
             "--rs1", "1", "--rs2", "1"],
            # a book of 2^(8 * 10^12) entries, refused before it is sized
            ["--n", "8", "--rh1", "1e12"],
            # a 2^19-codeword x0 book: within the codeword cap, but 2^19 x
            # 1000 symbols, about 4 GB as int64
            ["--n", "1000", "--rbar", "0.019"],
            # 2^12 x 2^12 = 16.7M sender candidate pairs per block
            ["--n", "8", "--rh1", "1.5", "--rh2", "1.5"],
        ):
            code, _, err = run_cli(
                ["sim", "--channel", files["chan_noiseless"], "--law",
                 files["law_pinned"], "--seed", "0", *rates], capsys)
            assert code == 3
            assert err.startswith("resource limit: ")

    def test_sweep_certain_hit_exits_0(self, files, capsys):
        # every book entry is typical under the pinned law (log q = 0)
        code, out, _ = run_cli(
            ["sim", "--channel", files["chan_noiseless"], "--law", files["law_pinned"],
             "--n", "100", "--trials", "3", "--seed", "0",
             "--sweep", "rh1", "0.2:0.3:0.1"], capsys)
        assert code == 0
        assert out == "rh1,success_fraction\n0.2,1\n0.3,1\n"

    def test_sweep_block_length_cap_exits_3(self, files, capsys):
        # a billion-symbol pair would need several GB before the first check
        code, out, err = run_cli(
            ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"],
             "--n", "1000000000", "--trials", "1", "--seed", "0",
             "--sweep", "rh1", "0.5:0.6:0.1"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("resource limit: block length")

    def test_sweep_csv_monotone(self, files, capsys):
        code, out, err = run_cli(
            ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"],
             "--n", "200", "--trials", "30", "--seed", "0",
             "--sweep", "rh1", "0.05:0.35:0.1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rh1,success_fraction"
        assert len(lines) == 5
        fractions = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        # covering can only get easier as the book grows
        assert fractions == sorted(fractions)
        assert "4 points" in err

    def test_sweep_jobs_do_not_change_output(self, files, capsys):
        base = ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"],
                "--n", "200", "--trials", "20", "--seed", "3",
                "--sweep", "rh1", "0.1:0.3:0.05"]
        _, serial, _ = run_cli(base + ["--jobs", "1"], capsys)
        _, parallel, _ = run_cli(base + ["--jobs", "2"], capsys)
        assert serial == parallel

    def test_sweep_default_eps_is_the_library_default(self, files, capsys):
        # without --eps a sweep point is the library's own covering experiment,
        # literal (n = 20) and analytic (n = 400) alike
        ch, law = covering_pair()
        for n, ranges in (("20", "0.1:0.3:0.1"), ("400", "0.15:0.25:0.05")):
            code, out, _ = run_cli(
                ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"],
                 "--n", n, "--trials", "40", "--seed", "2", "--sweep", "rh1", ranges], capsys)
            assert code == 0
            rates = cli._parse_sweep_range(ranges)
            fractions = [tworelay.sim.covering_experiment(law, ch, r, int(n), 40, 2)
                         for r in rates]
            assert out == "rh1,success_fraction\n" + "".join(
                f"{r:.10g},{f:.10g}\n" for r, f in zip(rates, fractions))
        assert cli.build_parser().parse_args(
            ["sim", "--channel", "c", "--law", "l"]).eps == tworelay.sim.COVERING_EPSILON

    def test_overflowing_book_exponent_exits_2(self, files, capsys):
        # rate * n is infinite: an input error, as in a sweep, not a cap
        for sweep in ([], ["--sweep", "rh1", "1e308:1e308:1e308"]):
            code, out, err = run_cli(
                ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"],
                 "--n", "4", "--trials", "1", "--seed", "0", "--rh1", "1e308", *sweep], capsys)
            assert code == 2
            assert out == ""
            assert err == "error: rate rh1 at block length 4 overflows the book exponent\n"

    def test_sweep_validation(self, files, capsys):
        base = ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"],
                "--n", "50", "--seed", "0", "--sweep"]
        for tail, fragment in (
            (["rh2", "0:1:0.5"], "only the rh1 rate"),
            (["rh1", "0:1"], "not start:stop:step"),
            (["rh1", "0:x:0.5"], "non-numeric"),
            (["rh1", "0:1:0"], "step must be positive"),
            (["rh1", "1:0:0.5"], "runs backwards"),
        ):
            code, _, err = run_cli(base + tail, capsys)
            assert code == 2
            assert fragment in err

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "rh1", "0:1:0.5"]])
    def test_negative_seed_exits_2(self, files, capsys, sweep):
        code, out, err = run_cli(
            ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"],
             "--n", "4", "--trials", "1", "--seed", "-1", *sweep], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: seed -1 < 0\n"

    def test_sweep_points_match_the_counting_loop(self):
        # the count is computed once; a test-local copy of the loop it
        # replaced gives the same values on ranges as a user would type them
        # and on stops one rounding off the grid
        def counted(start, stop, step):
            values, k = [], 0
            while start + k * step <= stop + 1e-12:
                if k == cli.MAX_SWEEP_POINTS:
                    return None
                values.append(start + k * step)
                k += 1
            return values

        checked = 0
        for start in (0.0, 0.05, 0.1, 0.15, 0.3, 1.0, 7.5, 100.0, 999.9):
            for step in (0.001, 0.01, 0.05, 0.1, 0.15, 0.25, 0.3, 1.0, 2.0):
                for k in (0, 1, 2, 3, 6, 7, 10, 33, 999, 1000):
                    grid = start + k * step
                    for stop in (float(f"{grid:.10g}"), grid, grid - 1e-15, grid + 1e-15):
                        if stop < start:
                            continue
                        text = f"{start!r}:{stop!r}:{step!r}"
                        want = counted(start, stop, step)
                        if want is None:
                            with pytest.raises(tworelay.ValidationError, match="more than"):
                                cli._parse_sweep_range(text)
                        else:
                            assert cli._parse_sweep_range(text) == want, text
                        checked += 1
        assert checked > 2500

    def test_sweep_below_float_spacing_is_one_point(self, files, capsys):
        # a step too small to move the start gives the start alone
        for text in ("0.5:0.5:1e-20", "1e308:1e308:1"):
            assert cli._parse_sweep_range(text) == [float(text.split(":")[0])]
        code, out, err = run_cli(
            ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"], "--n", "20",
             "--trials", "2", "--seed", "0", "--sweep", "rh1", "0.5:0.5:1e-20"], capsys)
        assert (code, out) == (0, "rh1,success_fraction\n0.5,0\n")

    @pytest.mark.parametrize("extra, expected", [
        # the README's sweep: analytic books at n = 1000
        (["--n", "1000", "--trials", "200"],
         "0.05,0\n0.1,0\n0.15,0.03\n0.2,0.97\n0.25,0.97\n0.3,0.97\n0.35,0.97\n"),
        # literal books, every exponent below the analytic cutoff
        (["--n", "32", "--eps", "0.3", "--trials", "40"],
         "0.05,0\n0.1,0\n0.15,0\n0.2,0\n0.25,0\n0.3,0.075\n0.35,0.1\n"),
    ])
    def test_readme_sweep_csv_is_pinned(self, files, extra, expected, capsys):
        code, out, _ = run_cli(
            ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"], "--seed", "0",
             *extra, "--sweep", "rh1", "0.05:0.35:0.05", "--csv"], capsys)
        assert (code, out) == (0, "rh1,success_fraction\n" + expected)

    def test_sweep_point_cap(self, files, capsys):
        # looked up first: without a cap the non-finite ranges below never end
        cap = cli.MAX_SWEEP_POINTS
        assert len(cli._parse_sweep_range(f"0:{cap - 1}:1")) == cap
        base = ["sim", "--channel", files["chan_cov"], "--law", files["law_cov"],
                "--n", "1", "--trials", "1", "--seed", "0", "--sweep", "rh1"]
        for text, fragment in (
            # just above the cap, with one-letter blocks so each point is cheap
            (f"0:{cap}:1", f"more than {cap} points"),
            ("0:inf:0.1", "non-finite"),
            ("nan:1:0.1", "non-finite"),
            ("0:1:inf", "non-finite"),
        ):
            code, out, err = run_cli(base + [text], capsys)
            assert code == 2
            assert fragment in err
            assert out == ""

    @pytest.mark.parametrize("flag", ["--rbar", "--rh1", "--rh2", "--rs1", "--rs2", "--eps"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_exit_2(self, files, capsys, flag, value):
        code, out, err = run_cli(
            ["sim", "--channel", files["chan_noiseless"], "--law",
             files["law_pinned"], "--n", "4", "--trials", "1", "--seed", "0",
             f"{flag}={value}"], capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""


def subcommand(name):
    """The ``tworelay name`` parser of a freshly built command line."""
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


class Captured(Exception):
    """Carries what a stubbed library call was given out of ``cli.main``."""


class TestRunSurface:
    """Each run option is declared once, in the library: the command line
    derives its flags, defaults and choices from ``SearchConfig``, ``MODES``
    and ``T1Rates``, and its help text stays as captured."""

    @pytest.mark.parametrize("command", ["tworelay", "eval", "optimize", "fm", "sim"])
    def test_help_golden(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
        argv = [] if command == "tworelay" else [command]
        with pytest.raises(SystemExit) as done:
            cli.build_parser().parse_args(argv + ["--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out == (GOLDEN / f"help_{command}.out").read_text(encoding="utf-8")

    def test_one_optimize_flag_per_search_setting(self):
        actions = subcommand("optimize")._actions
        types = get_type_hints(SearchConfig)
        for f in fields(SearchConfig):
            (action,) = [a for a in actions if a.dest == f.name]
            assert action.option_strings == [f"--{f.name.replace('_', '-')}"]
            assert action.type is types[f.name]
            assert action.default == f.default and type(action.default) is type(f.default)
        (mode,) = [a for a in actions if a.dest == "mode"]
        assert tuple(mode.choices) == MODES

    def test_optimize_passes_every_setting_by_name(self, files, monkeypatch):
        def stop(channel, cfg):
            raise Captured(cfg)
        monkeypatch.setattr(cli, "optimize_t1", stop)
        types = get_type_hints(SearchConfig)
        given, argv = {}, ["optimize", "--channel", files["chan"], "--theorem", "t1"]
        for f in fields(SearchConfig):
            if f.name == "mode":
                value = next(m for m in MODES if m != f.default)
            else:
                value = types[f.name](f.default * 3 + 1)  # differs from the default
            given[f.name] = value
            argv += [f"--{f.name.replace('_', '-')}", str(value)]
        with pytest.raises(Captured) as caught:
            cli.main(argv)
        assert caught.value.args[0] == SearchConfig(**given)

    def test_one_sim_flag_per_rate(self):
        actions = subcommand("sim")._actions
        for f in fields(T1Rates):
            (action,) = [a for a in actions if a.dest == f.name]
            assert action.option_strings == [f"--{f.name}"]
            assert action.type is float and action.default == 0.0

    def test_sim_rates_reach_the_run_in_field_order(self, files, capsys):
        # distinct multiples of 1/n, so quantization keeps each one
        rates = {f.name: (k + 1) / 4 for k, f in enumerate(fields(T1Rates))}
        argv = ["sim", "--channel", files["chan_noiseless"], "--law", files["law_pinned"],
                "--n", "4", "--blocks", "2", "--trials", "1", "--seed", "0"]
        argv += [arg for name, rate in rates.items() for arg in (f"--{name}", str(rate))]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["quantized_rates"] == rates


def _entry_point_wrapper(bindir):
    """Write the wrapper pip generates for the declared `tworelay` script."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "tworelay" in scripts, f"{pyproject} declares no tworelay console script"
    module, _, func = scripts["tworelay"].partition(":")
    exe = bindir / "tworelay"
    exe.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n")
    exe.chmod(0o755)
    return str(exe)


@pytest.fixture(scope="module")
def child_env():
    """An environment whose child interpreters import this `tworelay`.

    PYTHONPATH is made absolute so the child imports it whatever its
    working directory.
    """
    env = dict(os.environ)
    root = str(Path(tworelay.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="module")
def console_script(tmp_path_factory, child_env):
    """The `tworelay` executable and an environment that runs the code under test.

    An installed script on PATH is used as is; otherwise the entry point
    declared in pyproject.toml is wrapped the way pip would install it.
    """
    exe = shutil.which("tworelay") or _entry_point_wrapper(tmp_path_factory.mktemp("bin"))
    return exe, child_env


class TestInstalledScript:
    def test_console_entry_point(self, files, console_script):
        exe, env = console_script
        done = subprocess.run(
            [exe, "eval", "--channel", files["chan"], "--law", files["law_t1"],
             "--theorem", "t1"],
            capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert "objective_bits" in json.loads(done.stdout)

    def test_exit_code_reaches_shell(self, files, console_script):
        exe, env = console_script
        done = subprocess.run(
            [exe, "eval", "--channel", files["truncated"],
             "--law", files["law_t1"], "--theorem", "t1"],
            capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 2, done.stderr

    def test_python_m_runs_the_command(self, files, child_env):
        done = subprocess.run([sys.executable, "-m", "tworelay", "--help"],
                              capture_output=True, text=True, timeout=120, env=child_env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: tworelay")
        done = subprocess.run(
            [sys.executable, "-m", "tworelay", "eval", "--channel", files["truncated"],
             "--law", files["law_t1"], "--theorem", "t1"],
            capture_output=True, text=True, timeout=120, env=child_env)
        assert done.returncode == 2, done.stderr


# runs its first argument in a fresh interpreter, stdout silenced, and prints
# the scipy modules loaded by then
SCIPY_PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def scipy_loaded_after(code, env):
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestImportPath:
    """scipy is loaded only by the analytic covering path, and then only
    ``scipy.special``."""

    def test_import_and_commands_leave_scipy_unloaded(self, files, child_env):
        argvs = [
            ["eval", "--channel", files["chan"], "--law", files["law_t1"], "--theorem", "t1"],
            ["optimize", "--channel", files["chan"], "--theorem", "t1", "--mode", "grid",
             "--resolution", "2"],
            ["fm", "t1"],
        ]
        code = ("import tworelay\n"
                "from tworelay import cli\n"
                f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
                "assert codes == [0, 0, 0], codes\n")
        assert scipy_loaded_after(code, child_env) == []

    def test_analytic_covering_loads_only_scipy_special(self, files, child_env):
        code = ("from tworelay import io, sim\n"
                f"ch = io.load_channel({files['chan_cov']!r})\n"
                f"law = io.load_law({files['law_cov']!r})\n"
                # 0.5 bits is above the 1 - h(1/4) covering threshold
                "assert sim.covering_experiment(law, ch, 0.5, n=1000, trials=3, seed=0) == 1\n")
        loaded = scipy_loaded_after(code, child_env)
        assert "scipy.special" in loaded
        assert not [m for m in loaded if m.startswith("scipy.stats")]
