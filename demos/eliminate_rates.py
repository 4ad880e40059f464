"""Watching the constraint systems shed their helper rates.

Run as a script.  Reduces both builtin per-stage systems down to their
visible rate variables, checks each against its single-letter counterpart
on random bindings, and finishes at the one corner where the
two formulations genuinely part ways.
"""

import numpy as np

from tworelay import fm
from tworelay.info import binary_entropy
from tworelay.lp import INFEASIBLE, OPTIMAL
from tworelay.prob import (
    Alphabet,
    CondPmf,
    JointPmf,
    NetworkChannel,
    T2Law,
    assemble_joint_t2,
    uniform_cond,
)
from tworelay.rates import eval_theorem2

# The first scheme's per-stage system constrains the broadcast rate RB
# together with four helper rates: two quantization indices and the two
# chunks they are split into for forwarding.  Only RB is visible in the
# single-letter form, so the helpers have to go.
system = fm.builtin_system("t1")
print(f"compression-only system: {len(system.inequalities)} rows, "
      f"variables {', '.join(system.variables)}")

for var in ("RH1", "RH2", "RS1", "RS2"):
    system = fm.eliminate_all(system, [var])
    print(f"  after eliminating {var}: {len(system.inequalities)} rows, "
          f"variables {', '.join(system.variables) or '(none)'}")

# Far more rows than the five the single-letter set needs.  Pruning only
# drops a row when a single other row dominates it, and elimination
# manufactures rows that are sums of three or four survivors.  Spotting
# those is the LP's job, not the pruner's, so equality of the systems is a
# semantic question.  Here is the short form it should collapse to:
print()
print("hand-encoded single-letter set:")
for line in fm.format_system(fm.target_system("t1")).splitlines():
    print(f"  {line}")

# And the semantic check: on a binding of the information symbols, both
# systems become small exact LPs over the rates, and equivalence means the
# same status and the same maximum everywhere we look.  Bindings come from
# real channel+law pairs so they respect every information inequality.
bindings = fm.sample_bindings("t1", 12, seed=10)
report = fm.numeric_equiv(system, fm.target_system("t1"), bindings)
print()
print(f"against the single-letter set on 12 random bindings: {report.verdict}")

# Same exercise for the second scheme, which carries six helper rates: the
# quantization indices again plus four per-block binning rates for the
# forwarding layer.  The reduction is bigger but lands on the four rates
# the single-letter form speaks about.
system2 = fm.builtin_system("t2")
print()
print(f"with forwarding layer: {len(system2.inequalities)} rows, "
      f"{len(system2.variables)} variables")
reduced2 = fm.eliminate_all(
    system2, ["RH1", "RH2", "R011", "R012", "R021", "R022"]
)
print(f"  reduced: {len(reduced2.inequalities)} rows, "
      f"variables {', '.join(reduced2.variables)}")
bindings2 = fm.sample_bindings("t2", 12, seed=3)
report2 = fm.numeric_equiv(reduced2, fm.target_system("t2"), bindings2)
print(f"  against the single-letter set on 12 random bindings: {report2.verdict}")

# The agreement above is generic, not universal.  The reduction keeps a
# variable-free row demanding that each quantizer's cost fit inside its
# decoding-plus-recovery budget, and a law can violate that while the
# single-letter set still admits rate through the auxiliary path.  Build
# such a law: the sender's auxiliary determines its symbol outright, the
# direct link is clean, and relay 1 forwards its noisy observation
# verbatim, full quantization cost against zero budget.
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

binding = fm.binding_of(assemble_joint_t2(channel, law), "t2")
corner = fm.numeric_equiv(reduced2, fm.target_system("t2"), [binding])
c = corner.comparisons[0]
print()
print(f"corner law: {corner.verdict}")
print(f"  per-stage system:     {c.status_a}")
print(f"  single-letter system: {c.status_b}, max rate {c.max_b:.6f} bits")
assert c.status_a == INFEASIBLE and c.status_b == OPTIMAL

# The direct evaluator agrees with the single-letter side: the achievable
# rate here is what the clean direct link carries once the relay's useless
# verbatim forwarding is priced in, one minus the entropy of the flip.
report = eval_theorem2(channel, law)
print(f"  evaluator:            feasible={report.feasible}, "
      f"{report.objective_bits:.6f} bits")
print(f"  1 - h({p}) =          {1 - binary_entropy(p):.6f} bits")
