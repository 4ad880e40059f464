"""The covering threshold, watched empirically.

Run as a script.  Sweeps the quantization-book rate through the value the
rate expressions charge for compressing a relay observation: below it the
chance of a usable book entry dies with the block length, above it the
chance saturates.  Ends with a noiseless end-to-end run of the block-Markov
scheme.
"""

import numpy as np

from tworelay import channel_preset, sim
from tworelay.info import binary_entropy
from tworelay.prob import (
    Alphabet,
    CondPmf,
    NetworkChannel,
    T1Law,
    deterministic_cond,
    point_mass,
    uniform_pmf,
)
from tworelay.rates import T1Rates

# Relay 1 watches a fair coin and wants to forward a description of it
# drawn through a 25% flip.  The rate the budget rows charge for that
# description is the conditional mutual information between observation
# and description, here one minus the entropy of the flip.
alpha = 0.25
threshold = 1.0 - binary_entropy(alpha)
print(f"covering needs {threshold:.4f} bits per sample")

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
channel = NetworkChannel(tr)

# A book of 2^(n*rate) candidate descriptions either contains one jointly
# typical with the observation or it does not.  Success probability per
# rate, at two block lengths; the books at the larger one would hold up to
# 2^300 entries, which only the analytic evaluation path makes touchable.
# Two finite-length artifacts to expect: success is capped by the chance
# that the observation itself is typical, so the plateau sits short of one
# and rises with n, and the transition sharpens onto the threshold from
# the right as n grows.
print()
print(f"{'rate':>8s}  {'n=250':>7s}  {'n=1000':>7s}")
for offset in (-0.12, -0.08, -0.04, -0.01, 0.01, 0.04, 0.08, 0.12):
    rate = threshold + offset
    fracs = [
        sim.covering_experiment(law, channel, rate, n, trials=200, seed=0)
        for n in (250, 1000)
    ]
    bar = "#" * round(fracs[1] * 30)
    print(f"{rate:8.4f}  {fracs[0]:7.3f}  {fracs[1]:7.3f}  {bar}")
print(f"{'':8s}  (threshold at {threshold:.4f})")

# The full scheme, on a network where every output copies the sender bit
# and a law whose variables are all pinned.  Nothing can go wrong, and the
# run confirms it stage by stage: every decoding step in every block of
# every trial, with no recorded first error anywhere.
cfg = sim.SimConfig(
    n=8,
    blocks=4,
    rates=T1Rates(0.0, 0.0, 0.0, 0.0, 0.0),
    typicality=sim.TypicalityParams(0.2),
    trials=25,
    seed=1,
)
axs = {v: Alphabet(v, 2) for v in ("X0", "X1", "X2", "Y1", "Y2")}
noiseless = channel_preset("binary-symmetric-links", crossover={"Y0": 0, "Y1": 0, "Y2": 0})
copy = np.arange(2)[None, :].repeat(2, axis=0)
pinned = T1Law(
    point_mass(axs["X1"], 0),
    point_mass(axs["X2"], 0),
    deterministic_cond((axs["X1"], axs["X2"]), axs["X0"], np.zeros((2, 2), dtype=np.int64)),
    deterministic_cond((axs["X1"], axs["Y1"]), Alphabet("Yh1", 2), copy),
    deterministic_cond((axs["X2"], axs["Y2"]), Alphabet("Yh2", 2), copy),
)

stats = sim.run_cf(noiseless, pinned, cfg)
print()
print(f"noiseless run: {stats.blocks_decoded} blocks decoded "
      f"over {stats.trials} trials")
for stage in sim.STAGES:
    print(f"  {stage:28s} {stats.stage_errors[stage]:3d} first errors")
