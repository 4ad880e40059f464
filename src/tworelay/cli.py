"""Command line front end: eval, optimize, fm, and sim subcommands.

Machine-readable output (JSON, system text, CSV) goes to stdout; one-line
human summaries and notes go to stderr.  Exit codes: 0 on success, 2 for
input validation problems, 3 for resource caps, 4 for internal invariant
violations.  An infeasible law or a not-equivalent verdict is a result,
not an error, and still exits 0.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from typing import Callable, get_type_hints

from . import fm, io, sim
from .optimize import MODES, SearchConfig, optimize_t1, optimize_t2
from .prob import InvariantError, ResourceLimitError, ValidationError
from .rates import THEOREMS, T1Rates, eval_theorem1, eval_theorem2

LN2 = math.log(2.0)

# every sweep point is a full covering experiment
MAX_SWEEP_POINTS = 1000


def _report_in_nats(report: dict) -> dict:
    out = dict(report)
    out["objective_nats"] = out.pop("objective_bits") * LN2
    out["constraints"] = [
        {**c, "lhs": c["lhs"] * LN2, "rhs": c["rhs"] * LN2}
        for c in report["constraints"]
    ]
    out["units"] = "nats"
    return out


def _opt_in_nats(result: dict) -> dict:
    out = dict(result)
    out["best_objective_nats"] = out.pop("best_objective_bits") * LN2
    out["trace"] = [v * LN2 for v in result["trace"]]
    out["report"] = _report_in_nats(result["report"])
    out["units"] = "nats"
    return out


def cmd_eval(args) -> int:
    channel, law = io.load_channel(args.channel), io.load_law(args.law)
    if args.theorem == "t1":
        report = eval_theorem1(channel, law)
    else:
        report = eval_theorem2(channel, law)
    payload = report.to_dict()
    if args.nats:
        payload = _report_in_nats(payload)
    sys.stdout.write(io.dumps(payload))
    verdict = "feasible" if report.feasible else "infeasible"
    print(f"{args.theorem}: {verdict}, objective {report.objective_bits:.6f} bits",
          file=sys.stderr)
    return 0


def cmd_optimize(args) -> int:
    channel = io.load_channel(args.channel)
    cfg = SearchConfig(**{f.name: getattr(args, f.name) for f in fields(SearchConfig)})
    run = optimize_t1 if args.theorem == "t1" else optimize_t2
    result = run(channel, cfg)
    payload = result.to_dict()
    if args.nats:
        payload = _opt_in_nats(payload)
    sys.stdout.write(io.dumps(payload))
    tail = " (no feasible law found)" if result.infeasible_everywhere else ""
    print(
        f"{args.theorem} {cfg.mode}: objective "
        f"{result.best_objective_bits:.6f} bits after "
        f"{result.evaluations} evaluations{tail}",
        file=sys.stderr,
    )
    return 0


def _system_from(source: str, builtin: Callable[[str], fm.RateSystem]) -> fm.RateSystem:
    """``builtin(source)`` for a builtin tag, else the system in that file."""
    if source in THEOREMS:
        return builtin(source)
    return fm.parse_system(io.read_text(source, "system"))


def cmd_fm(args) -> int:
    system = _system_from(args.which, fm.builtin_system)
    if args.eliminate is not None:
        eliminate = tuple(args.eliminate)
    elif args.which in THEOREMS:
        # a builtin system's internal rates: those its target set lacks
        kept = fm.target_system(args.which).variables
        eliminate = tuple(v for v in system.variables if v not in kept)
    else:
        eliminate = ()
    reduced = fm.eliminate_all(system, eliminate)
    # written only once the check has run, so a refused check prints nothing
    text = fm.format_system(reduced)
    note = f"{len(system.coef)} rows -> {len(reduced.coef)}"

    if args.check_against is not None:
        tags = [s for s in (args.which, args.check_against) if s in THEOREMS]
        if not tags:
            raise ValidationError(
                "numeric check needs a builtin tag (t1 or t2) as the system "
                "or the --check-against target to know which laws to sample"
            )
        target = _system_from(args.check_against, fm.target_system)
        bindings = fm.sample_bindings(tags[0], args.bindings, args.seed)
        report = fm.numeric_equiv(reduced, target, bindings)
        text += f"# verdict: {report.verdict}\n"
        note += (f"; {report.verdict} over {args.bindings} bindings, "
                 f"{report.informative} informative")
    sys.stdout.write(text)
    print(note, file=sys.stderr)
    return 0


def _parse_sweep_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"sweep range {text!r} is not start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"sweep range {text!r} has a non-numeric part") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationError(f"sweep range {text!r} has a non-finite part")
    if step <= 0:
        raise ValidationError(f"sweep step must be positive, got {step}")
    if stop < start:
        raise ValidationError(f"sweep range {text!r} runs backwards")
    # the last index; the tolerance keeps a stop on the grid despite rounding
    last = (stop - start) / step + 1e-9
    if last >= MAX_SWEEP_POINTS:
        raise ValidationError(f"sweep range {text!r} has more than {MAX_SWEEP_POINTS} points")
    return [start + k * step for k in range(math.floor(last) + 1)]


def cmd_sim(args) -> int:
    channel, law = io.load_channel(args.channel), io.load_law(args.law)
    if args.seed is None:
        print("note: --seed not given, defaulting to 0", file=sys.stderr)
        args.seed = 0

    if args.sweep is not None:
        name, ranges = args.sweep
        if name.lower() != "rh1":
            raise ValidationError(f"only the rh1 rate can be swept, not {name!r}")
        rates = _parse_sweep_range(ranges)

        fractions = [
            sim.covering_experiment(law, channel, r, args.n, args.trials, args.seed, args.eps)
            for r in rates
        ]
        sys.stdout.write("rh1,success_fraction\n")
        for r, frac in zip(rates, fractions):
            sys.stdout.write(f"{r:.10g},{frac:.10g}\n")
        print(f"covering sweep: {len(rates)} points, {args.trials} trials each",
              file=sys.stderr)
        return 0

    cfg = sim.SimConfig(
        n=args.n,
        blocks=args.blocks,
        rates=T1Rates(**{f.name: getattr(args, f.name) for f in fields(T1Rates)}),
        typicality=sim.TypicalityParams(args.eps),
        trials=args.trials,
        seed=args.seed,
    )
    stats = sim.run_cf(channel, law, cfg)
    if args.csv:
        sys.stdout.write(stats.to_csv())
    else:
        sys.stdout.write(io.dumps(stats.to_dict()))
    errors = sum(stats.stage_errors.values())
    print(f"{stats.blocks_decoded} blocks decoded, {errors} first errors",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tworelay",
        description="Rates, reductions, and toy coding runs for the two-relay feedback network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one law on one channel")
    p_eval.add_argument("--channel", required=True, help="channel JSON file")
    p_eval.add_argument("--law", required=True, help="law JSON file")
    p_eval.add_argument("--theorem", required=True, choices=tuple(THEOREMS))
    p_eval.add_argument("--nats", action="store_true",
                        help="report information values in nats instead of bits")
    p_eval.set_defaults(func=cmd_eval)

    p_opt = sub.add_parser("optimize", help="search for a high-rate law")
    p_opt.add_argument("--channel", required=True, help="channel JSON file")
    p_opt.add_argument("--theorem", required=True, choices=tuple(THEOREMS))
    types = get_type_hints(SearchConfig)
    for f in fields(SearchConfig):
        p_opt.add_argument(f"--{f.name.replace('_', '-')}", type=types[f.name],
                           default=f.default, choices=MODES if f.name == "mode" else None)
    p_opt.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; restarts run serially")
    p_opt.add_argument("--nats", action="store_true",
                       help="report information values in nats instead of bits")
    p_opt.set_defaults(func=cmd_optimize)

    p_fm = sub.add_parser("fm", help="eliminate variables from an inequality system")
    p_fm.add_argument("which", help="t1, t2, or a system file")
    p_fm.add_argument("--eliminate", nargs="*", default=None, metavar="VAR",
                      help="variables to project out (builtin systems default "
                           "to their internal rates)")
    p_fm.add_argument("--check-against", default=None, metavar="TARGET",
                      help="t1, t2, or a system file to compare against numerically")
    p_fm.add_argument("--bindings", type=int, default=30,
                      help="sampled laws for the numeric check")
    p_fm.add_argument("--seed", type=int, default=0)
    p_fm.set_defaults(func=cmd_fm)

    p_sim = sub.add_parser("sim", help="run the toy coding scheme")
    p_sim.add_argument("--channel", required=True, help="channel JSON file")
    p_sim.add_argument("--law", required=True, help="t1 law JSON file")
    p_sim.add_argument("--n", type=int, default=8, help="block length")
    p_sim.add_argument("--blocks", type=int, default=3)
    p_sim.add_argument("--trials", type=int, default=20)
    p_sim.add_argument("--eps", type=float, default=sim.COVERING_EPSILON,
                       help="typicality tolerance")
    p_sim.add_argument("--seed", type=int, default=None)
    for f in fields(T1Rates):
        p_sim.add_argument(f"--{f.name}", type=float, default=0.0)
    p_sim.add_argument("--csv", action="store_true",
                       help="emit the one-row CSV instead of JSON")
    p_sim.add_argument("--sweep", nargs=2, default=None,
                       metavar=("RATE", "START:STOP:STEP"),
                       help="covering-success sweep over the rh1 book rate")
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; sweep points run serially")
    p_sim.set_defaults(func=cmd_sim)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 3
    except InvariantError as err:
        print(f"invariant violated: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
