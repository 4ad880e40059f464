"""Probability-core tests.

The assembly oracles here are deliberately dumb: nested loops over every
index tuple, multiplying the factors one scalar at a time.  The production
path is an in-place product of broadcast views, so agreement is meaningful.
Its bits are pinned against ``np.einsum`` on the same operands, and the
random draws against ``Generator.dirichlet``.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from tworelay import prob
from tworelay.info import term_plan
from tworelay.prob import (
    CANONICAL_ORDER,
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
    deterministic_cond,
    marginalize,
    point_mass,
    random_channel,
    random_joints,
    random_law,
    random_t1_law,
    random_t2_law,
    uniform_cond,
    uniform_pmf,
)
from tworelay.rates import THEOREMS


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
    channel_shape = channel.transition.mass.shape
    shape = (
        channel_shape[:3]
        + (law.pv1_given_x1.target[0].size, law.pv2_given_x2.target[0].size)
        + channel_shape[3:]
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


def cell_loop_deterministic_mass(shape, size, table):
    """One-hot mass set cell by cell, as an explicit loop over the table."""
    mass = np.zeros(shape + (size,))
    for cell in np.ndindex(shape):
        mass[cell + (int(table[cell]),)] = 1.0
    return mass


def test_deterministic_cond_matches_cell_loop_bytes():
    rng = np.random.default_rng(3)
    for shape in [(), (1,), (2,), (2, 3), (3, 1, 2)]:
        given = tuple(Alphabet(v, k) for v, k in zip(("X0", "X1", "X2"), shape))
        for size in (1, 2, 3):
            table = rng.integers(0, size, size=shape)
            got = deterministic_cond(given, Alphabet("Y0", size), table).mass
            want = cell_loop_deterministic_mass(shape, size, table)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "table, match",
    [
        ([-1, 0], r"entries outside \[0, 3\)"),
        ([3, 0], r"entries outside \[0, 3\)"),
        ([0.7, 0], "of float64, expected integers"),
        ([0.0, 1.0], "of float64, expected integers"),
        ([True, False], "of bool, expected integers"),
        ([[0, 1]], r"shape \(1, 2\), expected \(2,\)"),
    ],
)
def test_deterministic_cond_refuses_bad_tables(table, match):
    with pytest.raises(ValidationError, match=match):
        deterministic_cond((Alphabet("X1", 2),), Alphabet("Y1", 3), np.array(table))


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


# ---------------------------------------------------------------------------
# random draws: Dirichlet(1, ..., 1) rows from one exponential stream
# ---------------------------------------------------------------------------


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_sizes(rng):
    """Alphabet sizes 1-3 for every variable."""
    return {v: int(rng.integers(1, 4)) for v in CANONICAL_ORDER}


def dirichlet_twin(rng, given, target):
    """The rows ``Generator.dirichlet`` draws for p(target | given)."""
    k = int(np.prod([a.size for a in target]))
    rows = rng.dirichlet(np.ones(k), size=int(np.prod([a.size for a in given])))
    return rows.reshape(tuple(a.size for a in given + target))


def stacks_checked_by(monkeypatch):
    """Record, per stack of :func:`random_joints`, every array it checks, by
    the name it checks it under."""
    checked_mass = prob._checked_mass
    stacks = []

    def spy(mass, shape, n_given, where):
        out = checked_mass(mass, shape, n_given, where)
        if where.startswith("channel"):
            stacks.append({})
        stacks[-1][where] = out
        return out

    monkeypatch.setattr(prob, "_checked_mass", spy)
    return stacks


class TestExponentialDraws:
    def test_rows_are_dirichlet_rows_bit_for_bit(self):
        for k, n, seed in itertools.product(range(1, 10), range(1, 65), range(50)):
            got = prob._dirichlet_rows(np.random.default_rng([seed, k, n]), n, k)
            want = np.random.default_rng([seed, k, n]).dirichlet(np.ones(k), size=n)
            assert same_bits(got, want), (k, n, seed)

    @pytest.mark.parametrize("family", [T1Law, T2Law], ids=["t1", "t2"])
    def test_channel_and_law_are_sequential_dirichlet_calls(self, family):
        for seed in range(20):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            sizes = random_sizes(np.random.default_rng([seed, 1]))
            channel = random_channel(rng, sizes)
            transition = channel.transition
            assert same_bits(transition.mass, dirichlet_twin(twin, transition.given, transition.target))
            law = random_law(family, rng, channel, sizes)
            for f in family.factors:
                pmf = getattr(law, f.name)
                assert same_bits(pmf.mass, dirichlet_twin(twin, pmf.given, pmf.target)), f.name

    @pytest.mark.parametrize("family", [T1Law, T2Law], ids=["t1", "t2"])
    def test_one_stream_per_generator_is_its_dirichlet_calls(self, family, monkeypatch):
        """Every stacked operand of :func:`random_joints` holds, per pair, the
        rows of one ``dirichlet`` call per tensor on the pair's generator, in
        draw order, and every stacked joint is ``np.einsum``'s product of them."""
        checked = stacks_checked_by(monkeypatch)
        count = 2 * prob.STACK_ENTRIES // 2 ** len(prob._product_plan(family)[2]) + 3
        list(random_joints(family, (np.random.default_rng([11, i]) for i in range(count))))
        names, terms, out_ids = prob._product_plan(family)
        ids = dict(zip(names, terms))
        n_given = {None: 3} | {f.name: len(f.given) for f in family.factors}
        drawn = (None,) + tuple(n_given)[1:]  # the channel, then field order
        twins = [np.random.default_rng([11, i]) for i in range(count)]
        pair = 0
        for stack in checked:
            n = len(stack["JointPmf stack"])
            for m in drawn:
                got = stack[f"{m or 'channel'} stack"]
                k, rows = 2 ** (len(ids[m]) - n_given[m]), 2 ** n_given[m]
                for i in range(n):
                    want = twins[pair + i].dirichlet(np.ones(k), size=rows)
                    assert same_bits(got[i], want.reshape((2,) * len(ids[m]))), (m, pair + i)
            operands = [stack[f"{m or 'channel'} stack"] for m in names]
            want = np.einsum(einsum_spec(terms, out_ids, stacked=True), *operands)
            assert same_bits(stack["JointPmf stack"], want)
            pair += n
        assert pair == count and len(checked) == 3


# ---------------------------------------------------------------------------
# the joint product against np.einsum on the same operands
# ---------------------------------------------------------------------------

LETTER = dict(zip(CANONICAL_ORDER, "abcdefghij"))


def einsum_spec(terms, out_ids, stacked=False):
    """The einsum spec of a product with no summed index."""
    letters = lambda ids: ("..." if stacked else "") + "".join(LETTER[v] for v in ids)
    return ",".join(map(letters, terms)) + "->" + letters(out_ids)


def operands_of(channel, law):
    names = prob._product_plan(type(law))[0]
    return [channel.transition.mass if n is None else getattr(law, n).mass for n in names]


def with_signed_zeros(law, rng):
    """``law`` with about a third of each factor's rows made one-hot, their
    zeros stored as -0.0, which the product must turn into 0.0 as einsum
    does."""
    parts = {}
    for f in law.factors:
        pmf = getattr(law, f.name)
        k = int(np.prod([a.size for a in pmf.target]))
        rows = pmf.mass.reshape(-1, k).copy()
        for r in np.flatnonzero(rng.random(len(rows)) < 0.34):
            rows[r] = -0.0
            rows[r, rng.integers(k)] = 1.0
        mass = rows.reshape(pmf.mass.shape)
        parts[f.name] = (JointPmf(pmf.target, mass) if not f.given
                         else CondPmf(pmf.given, pmf.target, mass))
    return dataclasses.replace(law, **parts)


def random_pair(family, seed):
    rng = np.random.default_rng([seed, 2])
    sizes = random_sizes(rng)
    channel = random_channel(rng, sizes)
    law = random_law(family, rng, channel, sizes)
    return channel, (with_signed_zeros(law, rng) if seed % 2 else law)


def einsum_slab(channel, law, name, cell):
    """One cell's row of :func:`tworelay.prob.factor_slabs`, as an einsum of
    the operands indexed at the cell, with the factor replaced by ones.  In
    C order, as the product allocates it: einsum may lay its output out
    otherwise, and a sum's last bits follow the layout it walks."""
    names, terms, out_ids = prob._product_plan(type(law))
    factor = next(f for f in law.factors if f.name == name)
    at = dict(zip(factor.given, cell))
    operands = []
    for n, ids, mass in zip(names, terms, operands_of(channel, law)):
        mass = mass[tuple(slice(at[v], at[v] + 1) if v in at else slice(None) for v in ids)]
        operands.append(np.ones(mass.shape) if n == name else mass)
    out = factor.target + tuple(v for v in out_ids if v not in factor.target)
    slab = np.einsum(einsum_spec(terms, out), *operands)
    k = int(np.prod([a.size for a in getattr(law, name).target]))
    shape = tuple(1 if v in at or v in factor.target else slab.shape[out.index(v)] for v in out_ids)
    return np.ascontiguousarray(slab.reshape((k,) + shape))


class TestProduct:
    @pytest.mark.parametrize("family", [T1Law, T2Law], ids=["t1", "t2"])
    def test_assembly_is_einsum_bit_for_bit(self, family):
        names, terms, out_ids = prob._product_plan(family)
        for seed in range(300):
            channel, law = random_pair(family, seed)
            want = np.einsum(einsum_spec(terms, out_ids), *operands_of(channel, law))
            assert same_bits(assemble_joint(channel, law).mass, want), seed

    @pytest.mark.parametrize("family", [T1Law, T2Law], ids=["t1", "t2"])
    def test_slabs_are_einsum_bit_for_bit(self, family):
        """Every cell's row of a factor's slab stack is that cell's slab."""
        for seed in range(40):
            channel, law = random_pair(family, seed)
            for f in law.factors:
                slabs = prob.factor_slabs(channel, law, f.name)
                given = tuple(a.size for a in getattr(law, f.name).given)
                assert slabs.shape[:len(given)] == given
                for cell in np.ndindex(given):
                    want = einsum_slab(channel, law, f.name, cell)
                    assert same_bits(slabs[cell], want), (seed, f.name, cell)

    @pytest.mark.parametrize("family", [T1Law, T2Law], ids=["t1", "t2"])
    def test_slab_marginal_rows_are_per_cell_bit_for_bit(self, family):
        """One marginal pass over a factor's slab stack gives, row by row,
        the marginals of each cell's slab alone."""
        for seed in range(40):
            channel, law = random_pair(family, seed)
            joint = assemble_joint(channel, law)
            plan = term_plan(THEOREMS[family.theorem].queries, joint.ids, joint.mass.shape)
            for f in law.factors:
                rows = plan.marginals(prob.factor_slabs(channel, law, f.name))
                for cell in np.ndindex(tuple(a.size for a in getattr(law, f.name).given)):
                    want = plan.marginals(einsum_slab(channel, law, f.name, cell))
                    assert same_bits(rows[cell], want), (seed, f.name, cell)

    @pytest.mark.parametrize("family", [T1Law, T2Law], ids=["t1", "t2"])
    @pytest.mark.parametrize("n", [1, 5])
    def test_stacked_product_is_einsum_bit_for_bit(self, family, n):
        names, terms, out_ids = prob._product_plan(family)
        for seed in range(20):
            rng = np.random.default_rng([seed, n])
            pairs = []
            for _ in range(n):
                channel = random_channel(rng, BINARY_SIZES)
                law = random_law(family, rng, channel, {})
                pairs.append(operands_of(channel, with_signed_zeros(law, rng)))
            operands = [np.stack(stack) for stack in zip(*pairs)]
            shape = (n,) + (2,) * len(out_ids)
            got = prob._product(operands, [("stack",) + ids for ids in terms],
                                ("stack",) + out_ids, shape)
            want = np.einsum(einsum_spec(terms, out_ids, stacked=True), *operands)
            assert same_bits(got, want), seed

    def test_output_is_the_one_allocation(self, monkeypatch):
        """The product's peak is its output plus the operands: it allocates
        the output once, through ``np.empty``, and beyond it only the
        ufunc iterator's bounded buffer (``np.getbufsize()`` elements)."""
        sizes = dict.fromkeys(CANONICAL_ORDER, 3)
        rng = np.random.default_rng(5)
        channel = random_channel(rng, sizes)
        law = random_law(T2Law, rng, channel, sizes)
        names, terms, out_ids = prob._product_plan(T2Law)
        operands, shape = operands_of(channel, law), (3,) * len(out_ids)
        empty, calls = np.empty, []
        spy = lambda shape, *args, **kwargs: calls.append(shape) or empty(shape, *args, **kwargs)
        monkeypatch.setattr(np, "empty", spy)
        tracemalloc.start()
        try:
            out = prob._product(operands, terms, out_ids, shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [shape]
        assert out.nbytes <= peak <= out.nbytes + 8 * np.getbufsize() + 16 * 1024
        assert out.nbytes > 4 * (8 * np.getbufsize() + 16 * 1024)  # a temporary would show

    def test_cap_comes_before_the_allocation(self, monkeypatch):
        channel = random_channel(np.random.default_rng(0), BINARY_SIZES)
        law = random_t1_law(np.random.default_rng(1), channel)
        monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("allocated over the cap"))
        monkeypatch.setattr(prob, "MAX_JOINT_ENTRIES", 255)
        with pytest.raises(ResourceLimitError, match="joint of 256 entries, cap is 255"):
            assemble_joint(channel, law)
