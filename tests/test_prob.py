"""Probability-core tests.

The assembly oracles here are deliberately dumb: nested loops over every
index tuple, multiplying the factors one scalar at a time.  The production
path goes through einsum, so agreement is meaningful.
"""

import dataclasses

import numpy as np
import pytest

from tworelay.prob import (
    Alphabet,
    CondPmf,
    JointPmf,
    NetworkChannel,
    ResourceLimitError,
    T1Law,
    ValidationError,
    assemble_joint,
    assemble_joint_t1,
    assemble_joint_t2,
    conditional,
    deterministic_cond,
    marginalize,
    point_mass,
    random_channel,
    random_t1_law,
    random_t2_law,
    uniform_cond,
    uniform_pmf,
)


def brute_force_joint_t1(channel, law):
    """Scalar-loop product of the five law factors and the channel factor."""
    nx0, nx1, nx2 = (channel.transition.given[i].size for i in range(3))
    ny0, ny1, ny2 = (channel.transition.target[i].size for i in range(3))
    nyh1 = law.pyh1_given_x1y1.target[0].size
    nyh2 = law.pyh2_given_x2y2.target[0].size
    out = np.zeros((nx0, nx1, nx2, ny0, ny1, ny2, nyh1, nyh2))
    for x0 in range(nx0):
        for x1 in range(nx1):
            for x2 in range(nx2):
                for y0 in range(ny0):
                    for y1 in range(ny1):
                        for y2 in range(ny2):
                            for yh1 in range(nyh1):
                                for yh2 in range(nyh2):
                                    out[x0, x1, x2, y0, y1, y2, yh1, yh2] = (
                                        law.px1.mass[x1]
                                        * law.px2.mass[x2]
                                        * law.px0_given_x1x2.mass[x1, x2, x0]
                                        * channel.transition.mass[x0, x1, x2, y0, y1, y2]
                                        * law.pyh1_given_x1y1.mass[x1, y1, yh1]
                                        * law.pyh2_given_x2y2.mass[x2, y2, yh2]
                                    )
    return out


def brute_force_joint_t2(channel, law):
    """Scalar-loop product of the seven law factors and the channel factor."""
    shape = (
        channel.input_sizes
        + (law.pv1_given_x1.target[0].size, law.pv2_given_x2.target[0].size)
        + channel.output_sizes
        + (law.pyh1_given_x1v1y1.target[0].size, law.pyh2_given_x2v2y2.target[0].size)
    )
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        x0, x1, x2, v1, v2, y0, y1, y2, yh1, yh2 = idx
        out[idx] = (
            law.px1.mass[x1]
            * law.px2.mass[x2]
            * law.pv1_given_x1.mass[x1, v1]
            * law.pv2_given_x2.mass[x2, v2]
            * law.px0_given_x1x2v1v2.mass[x1, x2, v1, v2, x0]
            * channel.transition.mass[x0, x1, x2, y0, y1, y2]
            * law.pyh1_given_x1v1y1.mass[x1, v1, y1, yh1]
            * law.pyh2_given_x2v2y2.mass[x2, v2, y2, yh2]
        )
    return out


BINARY_SIZES = dict(X0=2, X1=2, X2=2, Y0=2, Y1=2, Y2=2)


def test_assemble_t1_all_singleton_alphabets():
    ch = random_channel(np.random.default_rng(0), {k: 1 for k in BINARY_SIZES})
    law = random_t1_law(np.random.default_rng(1), ch, yh1_size=1, yh2_size=1)
    joint = assemble_joint_t1(ch, law)
    assert joint.mass.shape == (1,) * 8
    assert joint.mass.flat[0] == pytest.approx(1.0, abs=1e-15)


def test_assemble_t1_matches_scalar_loop_oracle():
    rng = np.random.default_rng(42)
    ch = random_channel(rng, BINARY_SIZES)
    law = random_t1_law(rng, ch, yh1_size=3, yh2_size=2)
    joint = assemble_joint_t1(ch, law)
    oracle = brute_force_joint_t1(ch, law)
    np.testing.assert_allclose(joint.mass, oracle, atol=1e-14)
    assert joint.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_assemble_t1_deterministic_factors_single_atom():
    x0 = Alphabet("X0", 2)
    x1 = Alphabet("X1", 2)
    x2 = Alphabet("X2", 2)
    y0 = Alphabet("Y0", 2)
    y1 = Alphabet("Y1", 1)
    y2 = Alphabet("Y2", 1)
    # Y0 copies X0; relay outputs are constants
    table = np.zeros((2, 2, 2, 2, 1, 1))
    for a in range(2):
        table[a, :, :, a, 0, 0] = 1.0
    ch = NetworkChannel(CondPmf((x0, x1, x2), (y0, y1, y2), table))
    law = T1Law(
        px1=point_mass(x1, 1),
        px2=point_mass(x2, 0),
        px0_given_x1x2=deterministic_cond((x1, x2), x0, np.array([[1, 0], [1, 0]])),
        pyh1_given_x1y1=uniform_cond((x1, y1), Alphabet("Yh1", 1)),
        pyh2_given_x2y2=uniform_cond((x2, y2), Alphabet("Yh2", 1)),
    )
    joint = assemble_joint_t1(ch, law)
    # x1=1, x2=0 selects x0=1, hence y0=1
    assert joint.mass[1, 1, 0, 1, 0, 0, 0, 0] == pytest.approx(1.0)
    assert joint.mass.sum() == pytest.approx(1.0)


def test_assemble_t2_normalizes_and_projects_onto_t1():
    rng = np.random.default_rng(7)
    ch = random_channel(rng, BINARY_SIZES)
    law2 = random_t2_law(rng, ch)
    joint = assemble_joint_t2(ch, law2)
    assert joint.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert joint.mass.ndim == 10

    # direct summation oracle on a few sampled cells
    idx = (1, 0, 1, 1, 0, 1, 0, 1, 1, 0)
    x0, x1, x2, v1, v2, y0, y1, y2, yh1, yh2 = idx
    expected = (
        law2.px1.mass[x1]
        * law2.px2.mass[x2]
        * law2.pv1_given_x1.mass[x1, v1]
        * law2.pv2_given_x2.mass[x2, v2]
        * law2.px0_given_x1x2v1v2.mass[x1, x2, v1, v2, x0]
        * ch.transition.mass[x0, x1, x2, y0, y1, y2]
        * law2.pyh1_given_x1v1y1.mass[x1, v1, y1, yh1]
        * law2.pyh2_given_x2v2y2.mass[x2, v2, y2, yh2]
    )
    assert joint.mass[idx] == pytest.approx(expected, abs=1e-15)


def test_assemble_t2_matches_scalar_loop_oracle():
    rng = np.random.default_rng(43)
    ch = random_channel(rng, dict(BINARY_SIZES, X0=3, Y1=3))
    law = random_t2_law(rng, ch, v1_size=3, v2_size=2, yh1_size=2, yh2_size=1)
    joint = assemble_joint_t2(ch, law)
    assert joint.ids == ("X0", "X1", "X2", "V1", "V2", "Y0", "Y1", "Y2", "Yh1", "Yh2")
    np.testing.assert_allclose(joint.mass, brute_force_joint_t2(ch, law), atol=1e-14)


@pytest.mark.parametrize("draw", [random_t1_law, random_t2_law])
def test_assemble_rejects_a_law_built_for_another_channel(draw):
    rng = np.random.default_rng(29)
    law = draw(rng, random_channel(rng, dict(BINARY_SIZES, X1=3)))
    with pytest.raises(ValidationError, match="alphabet mismatch on X1: law has 3, channel has 2"):
        assemble_joint(random_channel(rng, BINARY_SIZES), law)


def test_assemble_rejects_factors_that_disagree_on_a_size():
    rng = np.random.default_rng(31)
    ch = random_channel(rng, BINARY_SIZES)
    law = random_t2_law(rng, ch, v1_size=3)
    # p(v1|x1) over two letters, the other V1 factors over three
    mixed = dataclasses.replace(law, pv1_given_x1=random_t2_law(rng, ch).pv1_given_x1)
    with pytest.raises(ValidationError, match="alphabet mismatch on V1: law has 3, pv1_given_x1 has 2"):
        assemble_joint(ch, mixed)


@pytest.mark.parametrize("draw", [random_t1_law, random_t2_law])
def test_law_factors_checked_against_their_declaration(draw):
    rng = np.random.default_rng(37)
    law = draw(rng, random_channel(rng, BINARY_SIZES))
    with pytest.raises(ValidationError, match=r"^px1: axes \(\(\) -> \('X2',\)\)"):
        dataclasses.replace(law, px1=law.px2)
    with pytest.raises(ValidationError, match="^px1: a CondPmf, expected a JointPmf"):
        dataclasses.replace(law, px1=uniform_cond((), Alphabet("X1", 2)))
    x0 = next(f.name for f in law.factors if f.target == ("X0",))
    with pytest.raises(ValidationError, match=f"^{x0}: a JointPmf, expected a CondPmf"):
        dataclasses.replace(law, **{x0: law.px1})


def test_marginalize_matches_nested_loop_oracle():
    rng = np.random.default_rng(3)
    x0 = Alphabet("X0", 2)
    x1 = Alphabet("X1", 3)
    y0 = Alphabet("Y0", 2)
    mass = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
    joint = JointPmf((x0, x1, y0), mass)
    got = marginalize(joint, {"X0", "Y0"})
    oracle = np.zeros((2, 2))
    for a in range(2):
        for b in range(3):
            for c in range(2):
                oracle[a, c] += mass[a, b, c]
    np.testing.assert_allclose(got.mass, oracle, atol=1e-15)
    assert got.ids == ("X0", "Y0")


def test_marginalize_keep_all_is_identity():
    joint = uniform_pmf((Alphabet("X1", 2), Alphabet("Y1", 2)))
    got = marginalize(joint, {"X1", "Y1"})
    np.testing.assert_array_equal(got.mass, joint.mass)


def test_marginalize_order_independent():
    rng = np.random.default_rng(5)
    axes = (Alphabet("X0", 2), Alphabet("X1", 2), Alphabet("Y0", 3))
    joint = JointPmf(axes, rng.dirichlet(np.ones(12)).reshape(2, 2, 3))
    via_a = marginalize(marginalize(joint, {"X0", "Y0"}), {"Y0"})
    via_b = marginalize(joint, {"Y0"})
    np.testing.assert_allclose(via_a.mass, via_b.mass, atol=1e-15)


def test_marginalize_unknown_id_rejected():
    joint = uniform_pmf((Alphabet("X1", 2),))
    with pytest.raises(ValidationError):
        marginalize(joint, {"X9"})


def test_conditional_reconstructs_joint():
    rng = np.random.default_rng(11)
    axes = (Alphabet("X1", 2), Alphabet("Y1", 3))
    joint = JointPmf(axes, rng.dirichlet(np.ones(6)).reshape(2, 3))
    cond = conditional(joint, target=("Y1",), given=("X1",))
    px = marginalize(joint, {"X1"})
    rebuilt = px.mass[:, None] * cond.mass
    np.testing.assert_allclose(rebuilt, joint.mass, atol=1e-14)


def test_conditional_zero_mass_slice_is_uniform():
    x = Alphabet("X1", 2)
    y = Alphabet("Y1", 2)
    joint = JointPmf((x, y), np.array([[0.5, 0.5], [0.0, 0.0]]))
    cond = conditional(joint, target=("Y1",), given=("X1",))
    np.testing.assert_allclose(cond.mass[1], [0.5, 0.5])


def test_structural_independence_of_relay_inputs():
    rng = np.random.default_rng(19)
    ch = random_channel(rng, BINARY_SIZES)
    law = random_t1_law(rng, ch)
    joint = assemble_joint_t1(ch, law)
    pair = marginalize(joint, {"X1", "X2"})
    outer = np.outer(law.px1.mass, law.px2.mass)
    np.testing.assert_allclose(pair.mass, outer, atol=1e-12)


class TestValidation:
    def test_axis_order_enforced(self):
        x1 = Alphabet("X1", 2)
        x0 = Alphabet("X0", 2)
        with pytest.raises(ValidationError):
            JointPmf((x1, x0), np.full((2, 2), 0.25))

    def test_total_mass_checked(self):
        with pytest.raises(ValidationError):
            JointPmf((Alphabet("X0", 2),), np.array([0.5, 0.499]))

    def test_large_negative_rejected(self):
        with pytest.raises(ValidationError):
            JointPmf((Alphabet("X0", 2),), np.array([1.001, -0.001]))

    def test_tiny_negative_clamped(self):
        joint = JointPmf((Alphabet("X0", 2),), np.array([1.0, -1e-15]))
        assert joint.mass[1] == 0.0

    def test_alphabet_size_cap(self):
        with pytest.raises(ValidationError):
            Alphabet("X0", 9)

    def test_unknown_variable_id(self):
        with pytest.raises(ValidationError):
            Alphabet("Q7", 2)

    def test_cond_slice_normalization(self):
        x = Alphabet("X1", 2)
        y = Alphabet("Y1", 2)
        # slice sums 1.1 and 0.9: the total mass is right, each slice is not
        bad = np.array([[0.6, 0.5], [0.4, 0.5]])
        with pytest.raises(ValidationError):
            CondPmf((x,), (y,), bad)

    def test_joint_entry_cap(self):
        # ten axes of size 8: 8^10 > 1e8; a broadcast view keeps the test
        # from actually allocating the tensor
        axes = tuple(Alphabet(k, 8) for k in
                     ("X0", "X1", "X2", "V1", "V2", "Y0", "Y1", "Y2", "Yh1", "Yh2"))
        huge = np.broadcast_to(np.float64(0.0), (8,) * 10)
        with pytest.raises(ResourceLimitError):
            JointPmf(axes, huge)

    def test_cond_entry_cap(self):
        given = tuple(Alphabet(k, 8) for k in ("X0", "X1", "X2", "V1", "V2"))
        target = tuple(Alphabet(k, 8) for k in ("Y0", "Y1", "Y2", "Yh1", "Yh2"))
        huge = np.broadcast_to(np.float64(0.0), (8,) * 10)
        with pytest.raises(ResourceLimitError):
            CondPmf(given, target, huge)

    @pytest.mark.parametrize("row, match", [
        pytest.param([0.25, 0.25, 0.5], "mass shape", id="shape"),
        pytest.param([np.nan, 0.5], "non-finite", id="nan"),
        pytest.param([np.inf, 0.5], "non-finite", id="inf"),
        pytest.param([-np.inf, 0.5], "non-finite", id="-inf"),
        pytest.param([1.001, -0.001], "below", id="negative"),
        pytest.param([0.5, 0.499], "slice mass off", id="off-normalization"),
    ])
    @pytest.mark.parametrize("kind", ["joint", "cond"])
    def test_bad_mass_rejected(self, kind, row, match):
        with pytest.raises(ValidationError, match=match):
            build_pmf(kind, row)

    @pytest.mark.parametrize("kind", ["joint", "cond"])
    def test_tiny_negative_stored_as_zero(self, kind):
        pmf, _ = build_pmf(kind, [1.0, -1e-15])
        last = pmf.mass.flat[-1]
        assert last == 0.0 and not np.signbit(last)

    @pytest.mark.parametrize("kind", ["joint", "cond"])
    def test_stored_mass_is_a_read_only_copy(self, kind):
        pmf, mass = build_pmf(kind, [0.25, 0.75])
        before = mass.copy()
        mass[...] = 0.5
        np.testing.assert_array_equal(pmf.mass, before)
        assert not pmf.mass.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pmf.mass[0] = 0.0


def build_pmf(kind, row):
    """A JointPmf over X1 whose mass is ``row``, or a CondPmf of Y1 given X1
    whose first slice is uniform and whose second is ``row``, with the mass
    array it was given."""
    row = np.asarray(row, dtype=float)
    if kind == "joint":
        return JointPmf((Alphabet("X1", 2),), row), row
    mass = np.stack([np.full(row.size, 1.0 / row.size), row])
    return CondPmf((Alphabet("X1", 2),), (Alphabet("Y1", 2),), mass), mass


def test_deterministic_cond_one_hot():
    x = Alphabet("X1", 2)
    y = Alphabet("Y1", 3)
    cond = deterministic_cond((x,), y, np.array([2, 0]))
    assert cond.mass[0, 2] == 1.0
    assert cond.mass[1, 0] == 1.0
    assert cond.mass.sum() == 2.0


def test_random_channel_rows_normalized():
    ch = random_channel(np.random.default_rng(0), BINARY_SIZES)
    sums = ch.transition.mass.sum(axis=(3, 4, 5))
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_random_laws_are_reproducible():
    ch = random_channel(np.random.default_rng(0), BINARY_SIZES)
    a = random_t1_law(np.random.default_rng(123), ch)
    b = random_t1_law(np.random.default_rng(123), ch)
    np.testing.assert_array_equal(a.px0_given_x1x2.mass, b.px0_given_x1x2.mass)
    np.testing.assert_array_equal(a.pyh1_given_x1y1.mass, b.pyh1_given_x1y1.mass)
