"""Information-measure tests.

Expected values were computed independently with 50-digit decimal
arithmetic (h2 via decimal ln) and frozen here; the implementation path
goes through numpy log2 on marginal tensors.
"""

import tracemalloc

import numpy as np
import pytest

from tworelay import prob
from tworelay.info import InfoQuery, binary_entropy, entropy, mutual_info
from tworelay.prob import (
    Alphabet,
    JointPmf,
    ValidationError,
    assemble_joint_t1,
    assemble_joint_t2,
    marginalize,
    random_channel,
    random_t1_law,
    random_t2_law,
    uniform_pmf,
)

# decimal oracle, 50 digits, rounded here to double precision
H2_005 = 0.28639695711595612876647597772789747430599920184611
H2_011 = 0.49991595816452799564049959413027566263640075554318
H2_025 = 0.81127812445913286390969579203913761843013919423062


def bsc_joint(p):
    """Uniform binary input through a crossover-p symmetric channel."""
    x = Alphabet("X0", 2)
    y = Alphabet("Y0", 2)
    mass = 0.5 * np.array([[1 - p, p], [p, 1 - p]])
    return JointPmf((x, y), mass)


class TestEntropy:
    def test_uniform_over_four(self):
        assert entropy(uniform_pmf((Alphabet("X0", 4),))) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        pmf = JointPmf((Alphabet("X0", 3),), np.array([0.0, 1.0, 0.0]))
        assert entropy(pmf) == 0.0

    def test_binary_entropy_frozen_values(self):
        for p, expect in [(0.05, H2_005), (0.11, H2_011), (0.25, H2_025)]:
            pmf = JointPmf((Alphabet("X0", 2),), np.array([p, 1 - p]))
            assert entropy(pmf) == pytest.approx(expect, abs=1e-12)
            assert binary_entropy(p) == pytest.approx(expect, abs=1e-12)

    def test_segments_match_single_pmfs(self):
        pmfs = [
            uniform_pmf((Alphabet("X0", 4),)),
            JointPmf((Alphabet("X0", 3),), np.array([0.0, 1.0, 0.0])),
            JointPmf((Alphabet("X0", 2),), np.array([0.11, 0.89])),
            JointPmf((Alphabet("X0", 1),), np.array([1.0])),
        ]
        flat = np.concatenate([p.mass for p in pmfs])
        offsets = np.cumsum([0] + [p.mass.size for p in pmfs[:-1]])
        got = entropy(flat, offsets)
        assert got.tolist() == pytest.approx([entropy(p) for p in pmfs], abs=1e-12)
        assert got[1] == got[3] == 0.0


def concatenated_pmfs(rng, rows, cells, count):
    """``rows`` rows of ``count`` pmfs concatenated over ``cells`` cells,
    about a quarter of the cells zero, and the offsets of the pmfs."""
    offsets = np.concatenate([[0], np.sort(rng.choice(np.arange(1, cells), count - 1, replace=False))])
    mass = rng.random((rows, cells)) * (rng.random((rows, cells)) > 0.25)
    sums = np.add.reduceat(mass, offsets, axis=1)
    pmf_of_cell = np.repeat(np.arange(count), np.diff(np.append(offsets, cells)))
    return mass / np.where(sums > 0, sums, 1.0)[:, pmf_of_cell], offsets


class TestBlockBudget:
    """``entropy`` on a stack works in blocks of whole rows under
    ``prob.BLOCK_ENTRIES``; no budget moves a bit."""

    SHAPES = [(17, 1162, 80), (16, 1162, 80), (1, 50, 7), (300, 40, 6), (5, 9, 1)]

    @pytest.mark.parametrize("budget", [1, 40, 2**30])
    def test_entropies_do_not_depend_on_the_budget(self, monkeypatch, budget):
        rng = np.random.default_rng(12)
        cases = [concatenated_pmfs(rng, *shape) for shape in self.SHAPES]
        cases += [(mass[0], offsets) for mass, offsets in cases]  # one pmf row
        cases.append((cases[3][0].reshape(30, 10, 40), cases[3][1]))  # two leading axes
        want = [entropy(mass, offsets) for mass, offsets in cases]
        monkeypatch.setattr(prob, "BLOCK_ENTRIES", budget)
        for (mass, offsets), h in zip(cases, want):
            got = entropy(mass, offsets)
            assert got.shape == h.shape == mass.shape[:-1] + (len(offsets),)
            assert got.tobytes() == h.tobytes()

    def test_peak_is_a_few_blocks(self):
        # the (17, 1162) stacks of the search workload's t2 restart: whole,
        # each temporary would be 158 KB, above glibc's 128 KiB mmap threshold
        mass, offsets = concatenated_pmfs(np.random.default_rng(3), 17, 1162, 80)
        tracemalloc.start()
        try:
            h = entropy(mass, offsets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * prob.BLOCK_ENTRIES + h.nbytes < 3 * mass.nbytes


class TestMutualInfo:
    def test_independent_pair_is_zero(self):
        joint = uniform_pmf((Alphabet("X0", 2), Alphabet("Y0", 2)))
        assert mutual_info(joint, InfoQuery(("X0",), ("Y0",))) == 0.0

    def test_identity_channel_one_bit(self):
        joint = bsc_joint(0.0)
        assert mutual_info(joint, InfoQuery(("X0",), ("Y0",))) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_capacity_frozen_values(self):
        q = InfoQuery(("X0",), ("Y0",))
        for p, h in [(0.05, H2_005), (0.11, H2_011), (0.25, H2_025)]:
            got = mutual_info(bsc_joint(p), q)
            assert got == pytest.approx(1.0 - h, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        axes = (Alphabet("X0", 2), Alphabet("Y0", 3), Alphabet("Y1", 2))
        joint = JointPmf(axes, rng.dirichlet(np.ones(12)).reshape(2, 3, 2))
        a = mutual_info(joint, InfoQuery(("X0",), ("Y0",), ("Y1",)))
        b = mutual_info(joint, InfoQuery(("Y0",), ("X0",), ("Y1",)))
        assert a == pytest.approx(b, abs=1e-12)

    def test_chain_rule_on_random_joints(self):
        rng = np.random.default_rng(31)
        axes = (Alphabet("X0", 2), Alphabet("Y0", 2), Alphabet("Y1", 3), Alphabet("Y2", 2))
        for _ in range(25):
            mass = rng.dirichlet(np.ones(24)).reshape(2, 2, 3, 2)
            joint = JointPmf(axes, mass)
            lhs = mutual_info(joint, InfoQuery(("X0",), ("Y0", "Y1")))
            rhs = mutual_info(joint, InfoQuery(("X0",), ("Y0",))) + mutual_info(
                joint, InfoQuery(("X0",), ("Y1",), ("Y0",))
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_nonnegative_on_random_joints(self):
        rng = np.random.default_rng(77)
        axes = (Alphabet("X0", 3), Alphabet("Y0", 2), Alphabet("Y1", 2))
        for _ in range(50):
            joint = JointPmf(axes, rng.dirichlet(np.ones(12)).reshape(3, 2, 2))
            assert mutual_info(joint, InfoQuery(("X0",), ("Y0",), ("Y1",))) >= 0.0

    def test_data_processing(self):
        # X0 -> Y0 -> Y1 as a two-stage symmetric chain
        p, q = 0.1, 0.2
        flip1 = np.array([[1 - p, p], [p, 1 - p]])
        flip2 = np.array([[1 - q, q], [q, 1 - q]])
        mass = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    mass[a, b, c] = 0.5 * flip1[a, b] * flip2[b, c]
        joint = JointPmf((Alphabet("X0", 2), Alphabet("Y0", 2), Alphabet("Y1", 2)), mass)
        through = mutual_info(joint, InfoQuery(("X0",), ("Y1",)))
        direct = mutual_info(joint, InfoQuery(("X0",), ("Y0",)))
        assert through < direct


class TestInfoQuery:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            InfoQuery(("X0",), ("X0",))

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            InfoQuery((), ("Y0",))

    def test_unknown_id_rejected(self):
        with pytest.raises(ValidationError):
            InfoQuery(("X0",), ("Q1",))

    def test_canonical_string_form(self):
        q = InfoQuery(("Y0", "X0"), ("Y1",), ("X1",))
        assert str(q) == "I(X0,Y0;Y1|X1)"

    @pytest.mark.parametrize("q", [
        InfoQuery(("X0",), ("Y0",)),
        InfoQuery(("Y0", "X0"), ("Y1",), ("X1",)),
        InfoQuery(("Yh2", "V1"), ("Y2", "X0"), ("X2", "V2", "X1")),
    ])
    def test_parse_inverts_text(self, q):
        assert InfoQuery.parse(str(q)) == q

    def test_text_and_hash_ignore_id_order(self):
        a = InfoQuery(("Y0", "X0"), ("Y2", "Y1"), ("X2", "X1"))
        b = InfoQuery(("X0", "Y0"), ("Y1", "Y2"), ("X1", "X2"))
        assert a == b
        assert str(a) == str(b) == "I(X0,Y0;Y1,Y2|X1,X2)"
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_equality_is_by_sets(self):
        a = InfoQuery(("X0",), ("Y0",), ("X1",))
        assert a != InfoQuery(("Y0",), ("X0",), ("X1",))
        assert a != InfoQuery(("X0",), ("Y0",))

    def test_missing_axis_in_joint_rejected(self):
        joint = uniform_pmf((Alphabet("X0", 2), Alphabet("Y0", 2)))
        with pytest.raises(ValidationError):
            mutual_info(joint, InfoQuery(("X0",), ("Y1",)))


class TestStructuralZeros:
    """The relay-input independence terms vanish under both factorizations."""

    def test_t1_relay_inputs_independent(self):
        rng = np.random.default_rng(101)
        sizes = dict(X0=2, X1=2, X2=2, Y0=2, Y1=2, Y2=2)
        for _ in range(20):
            ch = random_channel(rng, sizes)
            law = random_t1_law(rng, ch)
            joint = assemble_joint_t1(ch, law)
            assert mutual_info(joint, InfoQuery(("X1",), ("X2",))) <= 1e-10

    def test_t2_relay_pairs_independent(self):
        rng = np.random.default_rng(202)
        sizes = dict(X0=2, X1=2, X2=2, Y0=2, Y1=2, Y2=2)
        for _ in range(20):
            ch = random_channel(rng, sizes)
            law = random_t2_law(rng, ch)
            joint = assemble_joint_t2(ch, law)
            assert mutual_info(joint, InfoQuery(("X1", "V1"), ("X2", "V2"))) <= 1e-10


def test_entropy_cache_consistency():
    # repeated queries on one joint reuse marginals; values must not drift
    rng = np.random.default_rng(9)
    sizes = dict(X0=2, X1=2, X2=2, Y0=2, Y1=2, Y2=2)
    ch = random_channel(rng, sizes)
    law = random_t1_law(rng, ch)
    joint = assemble_joint_t1(ch, law)
    q = InfoQuery(("X0",), ("Y0",), ("X1", "X2"))
    first = mutual_info(joint, q)
    fresh = mutual_info(assemble_joint_t1(ch, law), q)
    assert first == pytest.approx(fresh, abs=0.0)
