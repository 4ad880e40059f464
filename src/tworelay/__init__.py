"""Rate computation, polyhedral reduction, and simulation for a two-relay
network whose relays feed their received sequences back to each other's
transmitter side.

The public surface is re-exported here; submodules hold the implementation:

* :mod:`tworelay.prob`: joint and conditional pmfs over a fixed variable
  order, network channels, the two input-law families declared as factor
  tables, and exact joint assembly (``assemble_joint``).
* :mod:`tworelay.info`: the term type ``InfoQuery`` and its text, entropies,
  and conditional mutual information, also from a compiled entropy basis.
* :mod:`tworelay.rates`: the two achievable-rate evaluators, the inner
  partial-rate maximization, and the per-stage proof systems.
* :mod:`tworelay.lp`: exact rational linear programming (test oracle grade).
* :mod:`tworelay.fm`: symbolic Fourier-Motzkin elimination over rate
  variables and ``InfoQuery`` symbols, and checks of reduced systems.
* :mod:`tworelay.optimize`: coordinate and random search over input laws.
* :mod:`tworelay.sim`: finite-blocklength compress-and-forward experiments.
* :mod:`tworelay.io`: JSON formats and the preset channels.
* :mod:`tworelay.cli`: the ``tworelay`` command.
"""

from .fm import (
    EquivReport,
    Inequality,
    RateSystem,
    builtin_system,
    eliminate,
    eliminate_all,
    format_system,
    numeric_equiv,
    parse_system,
    prune,
    sample_bindings,
    target_system,
)
from .info import InfoQuery, binary_entropy, entropy, mutual_info
from .io import channel_preset, load_channel, load_law
from .optimize import OptResult, SearchConfig, optimize_t1, optimize_t2
from .prob import (
    Alphabet,
    CondPmf,
    JointPmf,
    NetworkChannel,
    ResourceLimitError,
    T1Law,
    T2Law,
    ValidationError,
    assemble_joint,
    assemble_joint_t1,
    assemble_joint_t2,
    conditional,
    marginalize,
    random_channel,
    random_t1_law,
    random_t2_law,
    uniform_t1_law,
)
from .rates import (
    ConstraintCheck,
    DfSolution,
    RateReport,
    T1Rates,
    T2Rates,
    embed_t1_in_t2,
    eval_theorem1,
    eval_theorem2,
    solve_df_rates,
)
from .sim import (
    BinMaps,
    Codebooks,
    SimConfig,
    SimStats,
    TypicalityParams,
    build,
    covering_experiment,
    run_cf,
    typical,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BinMaps",
    "Codebooks",
    "CondPmf",
    "ConstraintCheck",
    "DfSolution",
    "EquivReport",
    "InfoQuery",
    "Inequality",
    "JointPmf",
    "NetworkChannel",
    "OptResult",
    "RateReport",
    "RateSystem",
    "ResourceLimitError",
    "SearchConfig",
    "SimConfig",
    "SimStats",
    "T1Law",
    "T1Rates",
    "T2Law",
    "T2Rates",
    "TypicalityParams",
    "ValidationError",
    "assemble_joint",
    "assemble_joint_t1",
    "assemble_joint_t2",
    "binary_entropy",
    "build",
    "builtin_system",
    "channel_preset",
    "conditional",
    "covering_experiment",
    "eliminate",
    "eliminate_all",
    "embed_t1_in_t2",
    "entropy",
    "eval_theorem1",
    "eval_theorem2",
    "format_system",
    "load_channel",
    "load_law",
    "marginalize",
    "mutual_info",
    "numeric_equiv",
    "optimize_t1",
    "optimize_t2",
    "parse_system",
    "prune",
    "random_channel",
    "random_t1_law",
    "random_t2_law",
    "run_cf",
    "sample_bindings",
    "solve_df_rates",
    "target_system",
    "typical",
    "uniform_t1_law",
    "__version__",
]
