"""Per-layer timing for the traced pass, from outside the library.

:class:`Tracer` replaces the module attributes through which ``tworelay``
code calls its own public functions (``tworelay.optimize.eval_theorem1``,
``tworelay.info.marginalize``, ``tworelay.fm.maximize``...) with timing
wrappers while it is entered, and puts the originals back when it exits.
Every alias of a target function in the package is wrapped, because modules
import each other's functions by name.  Nothing under ``src/`` changes.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the wrapped calls it made directly.  The spans it contains, at any
depth, are also tallied per name, so ``run_cf`` can be split into ``build``
and the rest, and entropy calls counted per rate evaluation.  A target that
a later refactor removes or renames is skipped and reads as zero calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# (span name, home module, attribute)
SPANS = (
    ("prob.assemble", "prob", "assemble_joint_t1"),
    ("prob.assemble", "prob", "assemble_joint_t2"),
    ("prob.marginalize", "prob", "marginalize"),
    ("info.mutual_info", "info", "mutual_info"),
    ("info.entropy", "info", "entropy"),
    ("rates.eval_t1", "rates", "eval_theorem1"),
    ("rates.eval_t2", "rates", "eval_theorem2"),
    ("rates.hash", "rates", "law_hash"),
    ("rates.hash", "rates", "channel_hash"),
    ("optimize", "optimize", "optimize_t1"),
    ("optimize", "optimize", "optimize_t2"),
    ("lp.maximize", "lp", "maximize"),
    ("fm.eliminate", "fm", "eliminate_all"),
    ("fm.format_parse", "fm", "format_system"),
    ("fm.format_parse", "fm", "parse_system"),
    ("fm.sample_bindings", "fm", "sample_bindings"),
    ("fm.numeric_equiv", "fm", "numeric_equiv"),
    ("sim.build", "sim", "build"),
    ("sim.run_cf", "sim", "run_cf"),
    ("sim.typical", "sim", "typical"),
    ("sim.covering", "sim", "covering_experiment"),
    ("io.load", "io", "load_channel"),
    ("io.load", "io", "load_law"),
    ("io.serialize", "io", "dumps"),
    ("cli", "cli", "main"),
)

# spans whose single-call durations are kept for percentiles
KEEP_DURATIONS = {"rates.eval_t1", "rates.eval_t2", "lp.maximize", "sim.typical"}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    # wrapped calls made inside this span, at any depth: name -> (calls, seconds)
    inner: dict[str, tuple] = field(default_factory=dict)
    # exact counts read from arguments and results
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # sizes read from the latest result, which repeat in every pass
    latest: dict[str, int] = field(default_factory=dict)


def _argument(fn: Callable, args, kwargs, name: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _classify_covering(fn, args, kwargs) -> str:
    # the literal search runs for books up to SMALL_BOOK_CUTOFF entries
    from tworelay import sim

    bits = round(_argument(fn, args, kwargs, "rh1") * _argument(fn, args, kwargs, "n"))
    cutoff = getattr(sim, "SMALL_BOOK_CUTOFF", 4096)
    return "sim.covering_literal" if (1 << bits) <= cutoff else "sim.covering_analytic"


def _classify_cli(fn, args, kwargs) -> str:
    argv = _argument(fn, args, kwargs, "argv")
    return f"cli.{argv[0]}" if argv else "cli"


CLASSIFY = {"sim.covering": _classify_covering, "cli": _classify_cli}
OBSERVED = {
    "rates.eval_t1", "rates.eval_t2", "optimize", "lp.maximize", "fm.eliminate",
    "fm.numeric_equiv", "sim.build", "sim.typical", "sim.run_cf",
}


def _observe(name: str, fn, args, kwargs, result, stats: SpanStats) -> None:
    """Exact counts that the span's arguments or result carry."""
    counts = stats.counts
    if name in ("rates.eval_t1", "rates.eval_t2"):
        counts["feasible"] += bool(result.feasible)
    elif name == "optimize":
        counts["evaluations"] += result.evaluations
        counts["gave_up"] += bool(result.infeasible_everywhere)
    elif name == "lp.maximize":
        counts["rows"] += len(_argument(fn, args, kwargs, "constraints"))
    elif name == "fm.eliminate":
        # the t2 system is the one with per-block binning rates
        system = _argument(fn, args, kwargs, "system")
        family = "t2" if "R011" in system.variables else "t1"
        stats.latest[f"rows_{family}"] = len(result.inequalities)
    elif name == "fm.numeric_equiv":
        counts["disagreements"] += sum(not c.agree for c in result.comparisons)
    elif name == "sim.build":
        books = result[0]
        counts["codewords"] += sum(
            v.size // books.n for v in vars(books).values() if isinstance(v, np.ndarray)
        )
    elif name == "sim.typical":
        counts["hits"] += bool(result)
    elif name == "sim.run_cf":
        errors = result.stage_errors
        counts["decoded"] += result.blocks_decoded
        counts["reached_sender"] += (
            result.blocks_decoded - errors["relay1-covering"] - errors["relay2-covering"]
        )


class Tracer:
    """Wraps the package's public functions while entered; see module docs."""

    def __init__(self, package, spans=SPANS):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self._stack: list[list] = []
        modules = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith(package.__name__ + ".")
        ]
        self._patches: list[tuple[Any, str, Callable, Callable]] = []
        for name, home, attr in spans:
            target = getattr(getattr(package, home, None), attr, None)
            if not callable(target):
                continue
            wrapper = self._wrap(name, target)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is target:
                        self._patches.append((module, alias, target, wrapper))

    def __enter__(self) -> "Tracer":
        for module, alias, _, wrapper in self._patches:
            setattr(module, alias, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, alias, original, _ in self._patches:
            setattr(module, alias, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        classify = CLASSIFY.get(name)
        keep = name in KEEP_DURATIONS
        observed = name in OBSERVED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, {}]  # time in direct wrapped calls, inner spans by name
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
            span = classify(fn, args, kwargs) if classify else name
            s = stats[span]
            s.calls += 1
            s.total_s += elapsed
            s.self_s += elapsed - frame[0]
            if keep:
                s.durations.append(elapsed)
            inner = frame[1]
            _add(s.inner, inner)
            if stack:
                parent = stack[-1]
                parent[0] += elapsed
                calls, seconds = inner.get(span, (0, 0.0))
                inner[span] = (calls + 1, seconds + elapsed)
                _add(parent[1], inner)
            if observed:
                try:
                    _observe(span, fn, args, kwargs, result, s)
                except (AttributeError, KeyError, TypeError, IndexError):
                    pass  # a changed result type reads as zero, like a removed name
            return result

        return wrapper


def _add(tallies: dict, more: dict) -> None:
    """Add ``name -> (calls, seconds)`` tallies into ``tallies``."""
    for key, (calls, seconds) in more.items():
        old_calls, old_seconds = tallies.get(key, (0, 0.0))
        tallies[key] = (old_calls + calls, old_seconds + seconds)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict[str, SpanStats], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass, as ``name -> (value, unit)``."""
    get = lambda name: stats.get(name, SpanStats())
    per = lambda value: value / passes

    def calls(*names):
        return per(sum(get(n).calls for n in names))

    def total(*names):
        return per(sum(get(n).total_s for n in names))

    def self_s(*names):
        return per(sum(get(n).self_s for n in names))

    def count(name, key):
        return per(get(name).counts.get(key, 0.0))

    def inner(names, inner_name, index):
        return per(sum(get(n).inner.get(inner_name, (0, 0.0))[index] for n in names))

    def latest(name, key):
        return get(name).latest.get(key, 0)

    eval_spans = ("rates.eval_t1", "rates.eval_t2")
    evals = calls(*eval_spans)
    covering = ("sim.covering_literal", "sim.covering_analytic")
    lp_ms = [1e3 * d for d in get("lp.maximize").durations]
    return {
        "prob.assemble_calls": (calls("prob.assemble"), "count"),
        "prob.assemble_s": (total("prob.assemble"), "s"),
        "prob.marginalize_calls": (calls("prob.marginalize"), "count"),
        "prob.marginalize_s": (total("prob.marginalize"), "s"),
        "info.mutual_info_calls": (calls("info.mutual_info"), "count"),
        "info.mutual_info_s": (total("info.mutual_info"), "s"),
        "info.entropy_calls": (calls("info.entropy"), "count"),
        "info.entropy_s": (total("info.entropy"), "s"),
        "info.entropies_per_eval": (_ratio(inner(eval_spans, "info.entropy", 0), evals),
                                    "ratio"),
        "rates.eval_calls": (evals, "count"),
        "rates.eval_s": (total("rates.eval_t1", "rates.eval_t2"), "s"),
        "rates.eval_self_s": (self_s("rates.eval_t1", "rates.eval_t2"), "s"),
        "rates.eval_t1_p50_us": (1e6 * _percentile(get("rates.eval_t1").durations, 50), "us"),
        "rates.eval_t1_p99_us": (1e6 * _percentile(get("rates.eval_t1").durations, 99), "us"),
        "rates.eval_t2_p50_us": (1e6 * _percentile(get("rates.eval_t2").durations, 50), "us"),
        "rates.eval_t2_p99_us": (1e6 * _percentile(get("rates.eval_t2").durations, 99), "us"),
        "rates.hash_s": (total("rates.hash"), "s"),
        "rates.feasible_ratio": (_ratio(
            count("rates.eval_t1", "feasible") + count("rates.eval_t2", "feasible"), evals),
            "ratio"),
        "optimize.evaluations": (count("optimize", "evaluations"), "count"),
        "optimize.gave_up": (count("optimize", "gave_up"), "count"),
        "optimize.s": (total("optimize"), "s"),
        "optimize.self_s": (self_s("optimize"), "s"),
        "lp.maximize_calls": (calls("lp.maximize"), "count"),
        "lp.maximize_s": (total("lp.maximize"), "s"),
        "lp.maximize_p50_ms": (_percentile(lp_ms, 50), "ms"),
        "lp.maximize_p90_ms": (_percentile(lp_ms, 90), "ms"),
        "lp.rows_mean": (_ratio(count("lp.maximize", "rows"), calls("lp.maximize")), "count"),
        "fm.rows_t1": (latest("fm.eliminate", "rows_t1"), "count"),
        "fm.rows_t2": (latest("fm.eliminate", "rows_t2"), "count"),
        "fm.eliminate_s": (total("fm.eliminate"), "s"),
        "fm.format_parse_s": (total("fm.format_parse"), "s"),
        "fm.sample_bindings_s": (total("fm.sample_bindings"), "s"),
        "fm.numeric_equiv_s": (total("fm.numeric_equiv"), "s"),
        "fm.numeric_equiv_self_s": (self_s("fm.numeric_equiv"), "s"),
        "fm.disagreements": (count("fm.numeric_equiv", "disagreements"), "count"),
        "sim.build_calls": (calls("sim.build"), "count"),
        "sim.build_s": (total("sim.build"), "s"),
        "sim.build_codewords": (count("sim.build", "codewords"), "count"),
        "sim.run_cf_s": (total("sim.run_cf"), "s"),
        "sim.decode_s": (total("sim.run_cf") - inner(("sim.run_cf",), "sim.build", 1), "s"),
        "sim.typical_calls": (calls("sim.typical"), "count"),
        "sim.typical_s": (total("sim.typical"), "s"),
        "sim.typical_p50_us": (1e6 * _percentile(get("sim.typical").durations, 50), "us"),
        "sim.typical_hit_ratio": (_ratio(count("sim.typical", "hits"), calls("sim.typical")),
                                  "ratio"),
        "sim.sender_stage_ratio": (_ratio(count("sim.run_cf", "reached_sender"),
                                          count("sim.run_cf", "decoded")), "ratio"),
        "sim.covering_literal_s": (total("sim.covering_literal"), "s"),
        "sim.covering_analytic_s": (total("sim.covering_analytic"), "s"),
        "sim.covering_codewords": (inner(covering, "sim.typical", 0), "count"),
        "io.load_s": (total("io.load"), "s"),
        "io.serialize_s": (total("io.serialize"), "s"),
        "cli.eval_s": (total("cli.eval"), "s"),
        "cli.optimize_s": (total("cli.optimize"), "s"),
        "cli.fm_s": (total("cli.fm"), "s"),
        "cli.sim_s": (total("cli.sim"), "s"),
    }
