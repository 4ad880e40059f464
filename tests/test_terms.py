"""The compiled term evaluator against the per-query reference.

``info.term_values`` evaluates a whole query table from one plan of subset
entropies, and the law search evaluates it slice-linearly from the marginals
at a slice's simplex vertices; ``info.mutual_info`` evaluates one query
through validated marginals of the materialized joint and stays the
reference.  Random laws of both families, with alphabet sizes 1-3 and
point-mass factors, exercise zero cells and clamps.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworelay.info import InfoQuery, mutual_info, term_plan, term_values
from tworelay.optimize import _get_slice, _grid_vectors, _set_slice, _slice_index, _slice_marginals
from tworelay.prob import (
    Alphabet,
    CondPmf,
    JointPmf,
    NetworkChannel,
    ValidationError,
    assemble_joint,
    point_mass,
    random_channel,
    random_t1_law,
    random_t2_law,
    uniform_pmf,
)
from tworelay.rates import T1_QUERIES, T2_QUERIES

# float64 entropies of these desk-scale joints carry errors near 1e-15; the
# compiled path only reorders the sums, so 1e-12 bits leaves wide margin
TERM_TOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _one_hot(factor):
    """The same factor with all mass on each slice's most likely cell."""
    if isinstance(factor, JointPmf):
        return point_mass(factor.axes[0], int(factor.mass.argmax()))
    width = int(np.prod([a.size for a in factor.target]))
    rows = factor.mass.reshape(-1, width)
    hot = np.zeros_like(rows)
    hot[np.arange(len(rows)), rows.argmax(axis=1)] = 1.0
    return CondPmf(factor.given, factor.target, hot.reshape(factor.mass.shape))


@st.composite
def pairs(draw, family):
    """A channel and a law of one family: alphabet sizes 1-3, some factors point masses."""
    size = lambda: draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channel = random_channel(rng, {v: size() for v in ("X0", "X1", "X2", "Y0", "Y1", "Y2")})
    if draw(st.booleans()):
        channel = NetworkChannel(_one_hot(channel.transition))
    if family == "t1":
        law = random_t1_law(rng, channel, size(), size())
    else:
        law = random_t2_law(rng, channel, size(), size(), size(), size())
    factors = [getattr(law, f.name) for f in dataclasses.fields(law)]
    law = type(law)(*(_one_hot(f) if draw(st.booleans()) else f for f in factors))
    return channel, law


@st.composite
def joints(draw, family):
    """Assembled joints of one family, drawn as in :func:`pairs`."""
    return assemble_joint(*draw(pairs(family)))


class TestCompiledTerms:
    @pytest.mark.parametrize("family, queries", [("t1", T1_QUERIES), ("t2", T2_QUERIES)])
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_matches_reference(self, family, queries, data):
        joint = data.draw(joints(family))
        got = term_values(joint, queries)
        assert list(got) == list(queries)
        for name, q in queries.items():
            assert abs(got[name] - mutual_info(joint, q)) <= TERM_TOL, name

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_symmetric_and_nonnegative(self, data):
        joint = data.draw(st.sampled_from(["t1", "t2"]).flatmap(joints))
        ids = data.draw(st.permutations(joint.ids))
        n_left = data.draw(st.integers(1, len(ids) - 1))
        n_right = data.draw(st.integers(1, len(ids) - n_left))
        n_given = data.draw(st.integers(0, len(ids) - n_left - n_right))
        left, right = ids[:n_left], ids[n_left:n_left + n_right]
        cond = ids[n_left + n_right:n_left + n_right + n_given]
        got = term_values(
            joint, {"lr": InfoQuery(left, right, cond), "rl": InfoQuery(right, left, cond)}
        )
        assert got["lr"] == got["rl"] >= 0.0
        assert abs(got["lr"] - mutual_info(joint, InfoQuery(left, right, cond))) <= TERM_TOL

    def test_negative_term_raises(self):
        # a mass no JointPmf would hold, fed to the plan directly: with the
        # negative cell left out of the entropies, H(X0) = H(Y0) = 0 but
        # H(X0,Y0) = 1.5
        mass = np.array([[0.5, 0.5], [0.5, -0.5]])
        queries = {"pair": InfoQuery(("X0",), ("Y0",)), "same": InfoQuery(("Y0",), ("X0",))}
        plan = term_plan(queries, ("X0", "Y0"), (2, 2))
        with pytest.raises(ValidationError, match=r"-1\.5 below -1e-10 for I\(X0;Y0\)"):
            plan.terms(plan.marginals(mass))

    @pytest.mark.parametrize("delta, clamped", [(1e-6, True), (1e-4, False)])
    def test_zero_clamp(self, delta, clamped):
        # I(X0;Y0) is about 1.15e-11 at delta 1e-6, inside ZERO_CLAMP
        mass = 0.25 + delta * np.array([[1.0, -1.0], [-1.0, 1.0]])
        joint = JointPmf((Alphabet("X0", 2), Alphabet("Y0", 2)), mass)
        q = InfoQuery(("X0",), ("Y0",))
        got = term_values(joint, {"pair": q})["pair"]
        assert (got == 0.0) == clamped
        assert abs(got - mutual_info(joint, q)) <= TERM_TOL

    def test_missing_variable_rejected(self):
        joint = uniform_pmf((Alphabet("X0", 2), Alphabet("Y0", 2)))
        with pytest.raises(ValidationError, match="absent from joint"):
            term_values(joint, {"q": InfoQuery(("X0",), ("Y1",))})


# mixing weights from the line search's first batch, whose first point is
# the slice's current point; each example adds an arbitrary one
SEGMENT_WEIGHTS = (0.0, 1.0 / 16.0, 0.5, 1.0)


def _current_stack(channel, law, queries):
    """The law's term plan and its own marginal stack, as the search keeps them."""
    joint = assemble_joint(channel, law)
    plan = term_plan(queries, joint.ids, joint.mass.shape)
    return plan, plan.marginals(joint.mass)


def _sparse_rows(factor, rng):
    """The same factor with every slice's first letter at zero mass."""
    if isinstance(factor, JointPmf):
        mass = factor.mass.copy()
        mass[0] = 0.0
        return JointPmf(factor.axes, mass / mass.sum())
    width = int(np.prod([a.size for a in factor.target]))
    rows = rng.dirichlet(np.ones(width), size=factor.mass.size // width)
    rows[:, 0] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    return CondPmf(factor.given, factor.target, rows.reshape(factor.mass.shape))


class TestSliceLinearTerms:
    @pytest.mark.parametrize("family, queries", [("t1", T1_QUERIES), ("t2", T2_QUERIES)])
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_every_candidate_matches_materialized_law(self, family, queries, data):
        channel, law = data.draw(pairs(family))
        name, cell, k = data.draw(st.sampled_from(_slice_index(law)))
        plan, current = _current_stack(channel, law, queries)
        vertices = _slice_marginals(channel, law, plan, current, name, cell, k)
        assert list(plan.names) == list(queries)
        base = _get_slice(law, name, cell)
        weights = SEGMENT_WEIGHTS + (data.draw(st.floats(0.0, 1.0)),)
        segments = [(1.0 - t) * base + t * vertex for vertex in np.eye(k) for t in weights]
        grid = _grid_vectors(k, data.draw(st.integers(2, 4)))
        candidates = np.vstack([grid, *segments])
        batch = plan.terms(candidates @ vertices)  # the search's batched path
        for w, row in zip(candidates, batch):
            joint = assemble_joint(channel, _set_slice(law, name, cell, w))
            for q, got in zip(plan.queries, row):
                assert abs(got - mutual_info(joint, q)) <= TERM_TOL, (q, w)

    @pytest.mark.parametrize("family, queries", [("t1", T1_QUERIES), ("t2", T2_QUERIES)])
    def test_vertex_stack_matches_assembled_law_on_every_slice(self, family, queries):
        # seeded: alphabets of 2-3 letters, every slice of every law, random
        # simplex points with and without zero entries; in the last law every
        # slice row puts zero mass on its first letter
        rng = np.random.default_rng(20261019)
        checked = set()
        for trial in range(3):
            size = lambda: int(rng.integers(2, 4))
            channel = random_channel(rng, {v: size() for v in ("X0", "X1", "X2", "Y0", "Y1", "Y2")})
            if family == "t1":
                law = random_t1_law(rng, channel, size(), size())
            else:
                law = random_t2_law(rng, channel, size(), size(), size(), size())
            if trial == 2:
                factors = [getattr(law, f.name) for f in dataclasses.fields(law)]
                law = type(law)(*(_sparse_rows(f, rng) for f in factors))
            plan, current = _current_stack(channel, law, queries)
            for name, cell, k in _slice_index(law):
                vertices = _slice_marginals(channel, law, plan, current, name, cell, k)
                sparse = rng.dirichlet(np.ones(k))
                sparse[rng.integers(k)] = 0.0
                points = [rng.dirichlet(np.ones(k)), sparse / sparse.sum(), np.eye(k)[-1]]
                for w, got in zip(points, plan.terms(np.array(points) @ vertices)):
                    law_w = _set_slice(law, name, cell, w)
                    want = term_values(assemble_joint(channel, law_w), queries)
                    for key, value in zip(plan.names, got):
                        assert abs(value - want[key]) <= TERM_TOL, (name, cell, key, w)
                checked.add((name, 0.0 in _get_slice(law, name, cell)))
        assert {("px1", False), ("px2", False), ("px1", True), ("px2", True)} <= checked
