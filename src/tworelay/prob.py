"""Probability tensors for the two-relay network with relay-to-sender feedback.

Conventions used throughout the package:

* Variables are identified by fixed string ids drawn from the canonical order
  ``X0, X1, X2, V1, V2, Y0, Y1, Y2, Yh1, Yh2``.  ``X0`` is the sender input,
  ``X1``/``X2`` the relay inputs, ``Y0`` the receiver output, ``Y1``/``Y2``
  the relay observations, ``Yh1``/``Yh2`` the relay compression variables and
  ``V1``/``V2`` the relay decode-and-forward auxiliaries.
* Every joint tensor stores its axes sorted by that canonical order, so two
  tensors over the same variable set always agree axis-by-axis.
* Conditional tensors store the conditioning axes first (canonically sorted),
  then the target axes (canonically sorted); each conditional slice is a pmf.
* Every joint and conditional tensor is checked once, where it is built, by
  one routine, stacks of random joints included; there is no unchecked
  constructor.
* Alphabets are small by design: the library targets exhaustive desk-scale
  computation, not large-alphabet numerics.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

CANONICAL_ORDER = ("X0", "X1", "X2", "V1", "V2", "Y0", "Y1", "Y2", "Yh1", "Yh2")
_CANON_INDEX = {vid: k for k, vid in enumerate(CANONICAL_ORDER)}
CHANNEL_INPUTS = ("X0", "X1", "X2")
CHANNEL_OUTPUTS = ("Y0", "Y1", "Y2")

MAX_ALPHABET_SIZE = 8
MAX_JOINT_ENTRIES = 10**8
# entries of one stacked joint that random_joints builds at once: 16 t2 or
# 64 t1 binary joints, so a stack's transient arrays stay near 0.1 MB
STACK_ENTRIES = 1 << 14
# entries of one transient block of a row-wise pass (info.entropy on a
# stack, fm's pruning comparisons and projection reads): 64 KiB of float64,
# under glibc malloc's default 128 KiB mmap threshold, so the blocks reuse
# heap pages instead of mapping fresh ones
BLOCK_ENTRIES = 1 << 13
NEGATIVITY_CLAMP = 1e-12
NORMALIZATION_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when a tensor, alphabet, or law fails its construction contract."""


class ResourceLimitError(RuntimeError):
    """Raised when a requested computation exceeds the desk-scale caps."""


class InvariantError(AssertionError):
    """Raised when an internal consistency check fails; indicates a bug."""


def canonical_index(var_id: str) -> int:
    try:
        return _CANON_INDEX[var_id]
    except KeyError:
        raise ValidationError(f"unknown variable id {var_id!r}") from None


def canonical_sorted(ids: Iterable[str]) -> tuple[str, ...]:
    """Sort variable ids into canonical order, rejecting unknown ids."""
    ids = tuple(ids)
    for vid in ids:
        canonical_index(vid)
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate variable ids in {ids}")
    return tuple(sorted(ids, key=canonical_index))


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet for one network variable."""

    id: str
    size: int

    def __post_init__(self):
        canonical_index(self.id)
        if not (1 <= self.size <= MAX_ALPHABET_SIZE):
            raise ValidationError(
                f"alphabet {self.id}: size {self.size} outside [1, {MAX_ALPHABET_SIZE}]"
            )


def _checked_mass(mass: Any, shape: tuple[int, ...], n_given: int, where: str) -> np.ndarray:
    """``mass`` as a read-only float copy of ``shape``, once each of its
    ``n_given`` leading slices is a pmf; every tensor is checked here.

    The entry cap comes before any pass over the data.  NaN and infinite
    entries error: every comparison with NaN is false, so the sign and
    normalization checks alone would let them through.  Negativity within
    the clamp tolerance is stored as 0.0; larger negativity errors.
    """
    mass = np.asarray(mass, dtype=float)
    if mass.shape != shape:
        raise ValidationError(f"{where}: mass shape {mass.shape}, expected {shape}")
    if mass.size > MAX_JOINT_ENTRIES:
        raise ResourceLimitError(f"{where}: {mass.size} entries, cap is {MAX_JOINT_ENTRIES}")
    if not np.isfinite(mass).all():
        raise ValidationError(f"{where}: non-finite entries (NaN or infinity)")
    worst = float(mass.min())
    if worst < -NEGATIVITY_CLAMP:
        raise ValidationError(f"{where}: entry {worst} below -{NEGATIVITY_CLAMP}")
    if worst < 0.0:
        mass = np.where(mass < 0.0, 0.0, mass)
    totals = np.add.reduce(mass.reshape(n_given, -1), axis=1)
    off = float(np.maximum.reduce(np.abs(totals - 1.0)))
    if off > NORMALIZATION_TOL:
        raise ValidationError(f"{where}: slice mass off by {off}")
    mass = mass.copy()
    mass.setflags(write=False)
    return mass


def _check_axes(axes: Sequence[Alphabet], where: str) -> tuple[Alphabet, ...]:
    axes = tuple(axes)
    ids = [a.id for a in axes]
    if ids != list(canonical_sorted(ids)):
        raise ValidationError(f"{where}: axes {ids} not in canonical order")
    return axes


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A joint pmf over a canonically ordered tuple of variables."""

    axes: tuple[Alphabet, ...]
    mass: np.ndarray

    def __post_init__(self):
        axes = _check_axes(self.axes, "JointPmf")
        object.__setattr__(self, "axes", axes)
        shape = tuple(a.size for a in axes)
        object.__setattr__(self, "mass", _checked_mass(self.mass, shape, 1, "JointPmf"))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.axes)

    # a joint pmf is the conditional pmf of its axes given nothing
    @property
    def given(self) -> tuple[Alphabet, ...]:
        return ()

    @property
    def target(self) -> tuple[Alphabet, ...]:
        return self.axes

    def alphabet(self, var_id: str) -> Alphabet:
        for a in self.axes:
            if a.id == var_id:
                return a
        raise ValidationError(f"variable {var_id!r} not among axes {self.ids}")


@dataclass(frozen=True, eq=False)
class CondPmf:
    """A conditional pmf: a pmf over ``target`` for every setting of ``given``.

    The tensor shape is given-axes then target-axes, both canonically sorted.
    """

    given: tuple[Alphabet, ...]
    target: tuple[Alphabet, ...]
    mass: np.ndarray

    def __post_init__(self):
        given = _check_axes(self.given, "CondPmf given")
        target = _check_axes(self.target, "CondPmf target")
        if not target:
            raise ValidationError("CondPmf: empty target")
        overlap = set(a.id for a in given) & set(a.id for a in target)
        if overlap:
            raise ValidationError(f"CondPmf: axes {sorted(overlap)} both given and target")
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "target", target)
        shape = tuple(a.size for a in given + target)
        n_given = math.prod(a.size for a in given)
        object.__setattr__(self, "mass", _checked_mass(self.mass, shape, n_given, "CondPmf"))

    @property
    def given_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.given)

    @property
    def target_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.target)


def marginalize(joint: JointPmf, keep: Iterable[str]) -> JointPmf:
    """Sum out all axes not named in ``keep``; result axes stay canonical."""
    keep = canonical_sorted(keep)
    have = joint.ids
    missing = [vid for vid in keep if vid not in have]
    if missing:
        raise ValidationError(f"marginalize: {missing} not among axes {have}")
    drop = tuple(k for k, a in enumerate(joint.axes) if a.id not in keep)
    mass = joint.mass.sum(axis=drop) if drop else joint.mass
    axes = tuple(a for a in joint.axes if a.id in keep)
    return JointPmf(axes, mass)


def conditional(joint: JointPmf, target: Iterable[str], given: Iterable[str]) -> CondPmf:
    """Exact conditional of ``joint``: p(target | given).

    Conditioning cells with zero probability get a uniform target slice, which
    never affects any downstream expectation.
    """
    target = canonical_sorted(target)
    given = canonical_sorted(given)
    sub = marginalize(joint, target + given)
    # reorder from canonical interleave to (given..., target...)
    perm = [sub.ids.index(vid) for vid in given + target]
    mass = np.transpose(sub.mass, perm)
    g_axes = tuple(sub.alphabet(vid) for vid in given)
    t_axes = tuple(sub.alphabet(vid) for vid in target)
    n_given = math.prod(a.size for a in g_axes)
    flat = mass.reshape(n_given, -1)
    totals = flat.sum(axis=1, keepdims=True)
    k = flat.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        rows = np.where(totals > 0.0, flat / np.where(totals > 0.0, totals, 1.0), 1.0 / k)
    return CondPmf(g_axes, t_axes, rows.reshape(mass.shape))


# ---------------------------------------------------------------------------
# network channel and the two law families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NetworkChannel:
    """Memoryless network channel p(y0, y1, y2 | x0, x1, x2)."""

    transition: CondPmf

    def __post_init__(self):
        if self.transition.given_ids != CHANNEL_INPUTS:
            raise ValidationError(
                f"channel conditioning axes {self.transition.given_ids}, expected (X0, X1, X2)"
            )
        if self.transition.target_ids != CHANNEL_OUTPUTS:
            raise ValidationError(
                f"channel target axes {self.transition.target_ids}, expected (Y0, Y1, Y2)"
            )

    def alphabet(self, var_id: str) -> Alphabet:
        for a in self.transition.given + self.transition.target:
            if a.id == var_id:
                return a
        raise ValidationError(f"channel has no variable {var_id!r}")


class Factor(NamedTuple):
    """One factor p(target | given) of a law family, by variable ids."""

    name: str
    given: tuple[str, ...]
    target: tuple[str, ...]


def _factor(*target: str, given: tuple[str, ...] = ()) -> Any:
    """Declare a law field as the factor p(target | given); with no given ids
    the field holds a :class:`JointPmf`, otherwise a :class:`CondPmf`."""
    return field(metadata={"factor": (given, target)})


class _Law:
    """A law family: a frozen dataclass whose fields are declared with
    :func:`_factor`, in factorization order, and listed in ``factors``."""

    theorem: ClassVar[str]
    factors: ClassVar[tuple[Factor, ...]]

    def __post_init__(self):
        for f in self.factors:
            pmf = getattr(self, f.name)
            kind = CondPmf if f.given else JointPmf
            if not isinstance(pmf, kind):
                raise ValidationError(f"{f.name}: a {type(pmf).__name__}, expected a {kind.__name__}")
            got = (tuple([a.id for a in pmf.given]), tuple([a.id for a in pmf.target]))
            if got != (f.given, f.target):
                raise ValidationError(
                    f"{f.name}: axes ({got[0]} -> {got[1]}), expected ({f.given} -> {f.target})"
                )


def _law_family(cls: type) -> type:
    """Make ``cls`` a law family: a frozen dataclass with its ``factors`` listed."""
    cls = dataclass(frozen=True, eq=False)(cls)
    cls.factors = tuple(Factor(f.name, *f.metadata["factor"]) for f in fields(cls))
    return cls


@_law_family
class T1Law(_Law):
    """Input law of the compress-and-forward scheme (theorem 1 family).

    Factorization: p(x1) p(x2) p(x0|x1,x2) p(yh1|x1,y1) p(yh2|x2,y2).
    The relay inputs are independent of each other; each compression variable
    depends only on the local observation and the local input.
    """

    theorem: ClassVar[str] = "t1"
    px1: JointPmf = _factor("X1")
    px2: JointPmf = _factor("X2")
    px0_given_x1x2: CondPmf = _factor("X0", given=("X1", "X2"))
    pyh1_given_x1y1: CondPmf = _factor("Yh1", given=("X1", "Y1"))
    pyh2_given_x2y2: CondPmf = _factor("Yh2", given=("X2", "Y2"))


@_law_family
class T2Law(_Law):
    """Input law of the hybrid scheme with decode-and-forward auxiliaries
    (theorem 2 family).

    Factorization: p(x1) p(x2) p(v1|x1) p(v2|x2) p(x0|x1,x2,v1,v2)
    p(yh1|x1,v1,y1) p(yh2|x2,v2,y2).
    """

    theorem: ClassVar[str] = "t2"
    px1: JointPmf = _factor("X1")
    px2: JointPmf = _factor("X2")
    pv1_given_x1: CondPmf = _factor("V1", given=("X1",))
    pv2_given_x2: CondPmf = _factor("V2", given=("X2",))
    px0_given_x1x2v1v2: CondPmf = _factor("X0", given=("X1", "X2", "V1", "V2"))
    pyh1_given_x1v1y1: CondPmf = _factor("Yh1", given=("X1", "V1", "Y1"))
    pyh2_given_x2v2y2: CondPmf = _factor("Yh2", given=("X2", "V2", "Y2"))


LAW_FAMILIES = {family.theorem: family for family in (T1Law, T2Law)}


@functools.cache
def _product_plan(family: type):
    """The joint's product for a law family: its operands as factor names
    (None for the channel transition) and their variable ids, and the
    joint's ids.

    The operands are the factors in field order with the channel transition
    right after p(x0|.); the order fixes the order of multiplication
    (:func:`_product`), and with it the last bits of the joint.
    """
    names = [f.name for f in family.factors]
    terms = [f.given + f.target for f in family.factors]
    channel_at = 1 + next(k for k, f in enumerate(family.factors) if "X0" in f.target)
    names.insert(channel_at, None)
    terms.insert(channel_at, CHANNEL_INPUTS + CHANNEL_OUTPUTS)
    out_ids = canonical_sorted({v for ids in terms for v in ids})
    return tuple(names), tuple(terms), out_ids


def _alphabets(channel: NetworkChannel, law: T1Law | T2Law) -> dict[str, Alphabet]:
    """Every variable's alphabet, checked by variable id against the channel
    and across the law's own factors."""
    transition = channel.transition
    seen = {a.id: (a, "channel") for a in transition.given + transition.target}
    for f in law.factors:
        pmf = getattr(law, f.name)
        for a in pmf.given + pmf.target:
            first, owner = seen.setdefault(a.id, (a, f.name))
            if first.size != a.size:
                raise ValidationError(
                    f"alphabet mismatch on {a.id}: law has {a.size}, {owner} has {first.size}"
                )
    return {v: a for v, (a, _) in seen.items()}


@functools.cache
def _broadcast_plan(terms, out_ids):
    """Per operand over the ids ``terms[m]``, the axis order and the index
    that view it on the axes ``out_ids``, at size 1 on the axes it lacks."""
    return tuple(
        (tuple(ids.index(v) for v in out_ids if v in ids),
         tuple(slice(None) if v in ids else None for v in out_ids))
        for ids in terms
    )


def _product(operands, terms, out_ids, shape) -> np.ndarray:
    """The product of two or more ``operands`` on the axes ``out_ids`` of
    ``shape``, where operand m's axes are the ids ``terms[m]``, no id summed.

    The entry cap is checked before anything is allocated.  The output is
    then allocated once and the operands, as broadcast views, multiplied
    into it in place from left to right; adding 0.0 last turns a -0.0 into
    0.0.  That is ``np.einsum``'s inner loop on the same operands, a
    running product accumulated into a zeroed output, so the result is
    einsum's bit for bit, and the peak is the output plus the operands.
    """
    entries = math.prod(shape)
    if entries > MAX_JOINT_ENTRIES:
        raise ResourceLimitError(f"joint of {entries} entries, cap is {MAX_JOINT_ENTRIES}")
    views = [mass.transpose(order)[index] for mass, (order, index)
             in zip(operands, _broadcast_plan(tuple(terms), tuple(out_ids)))]
    out = np.empty(shape)
    np.multiply(views[0], views[1], out=out)
    for view in views[2:]:
        np.multiply(out, view, out=out)
    return np.add(out, 0.0, out=out)


def assemble_joint(channel: NetworkChannel, law: T1Law | T2Law) -> JointPmf:
    """Joint pmf of the channel and the law over every variable of the law's family.

    Alphabet sizes are checked by variable id, against the channel and across
    the law's own factors, and the entry cap before the product is formed.
    """
    names, terms, out_ids = _product_plan(type(law))
    alphabets = _alphabets(channel, law)
    axes = tuple(alphabets[v] for v in out_ids)
    operands = [channel.transition.mass if n is None else getattr(law, n).mass for n in names]
    return JointPmf(axes, _product(operands, terms, out_ids, tuple(a.size for a in axes)))


def slice_slab(channel: NetworkChannel, law: T1Law | T2Law, name: str, cell) -> np.ndarray:
    """The joint's slab where factor ``name``'s given variables equal ``cell``,
    with that factor's row left out: a ``(k, ...)`` stack, one entry per
    letter of the factor's (flattened) target.

    The joint is linear in the row: with the row at ``w``, the slab's entries
    at target letter v are ``w[v] * out[v]``.  The trailing axes are the
    joint's, with the factor's given and target axes at size 1.  This is the
    product of :func:`assemble_joint` with every operand indexed at ``cell``
    and the factor itself left out, under the same cap: leaving out a
    factor of ones changes no bit.
    """
    names, terms, out_ids = _product_plan(type(law))
    alphabets = _alphabets(channel, law)
    factor = next(f for f in law.factors if f.name == name)
    at = dict(zip(factor.given, cell))
    operands, kept = [], []
    for n, ids in zip(names, terms):
        if n != name:
            mass = channel.transition.mass if n is None else getattr(law, n).mass
            index = tuple(slice(at[v], at[v] + 1) if v in at else slice(None) for v in ids)
            operands.append(mass[index])
            kept.append(ids)
    size = lambda v: 1 if v in at else alphabets[v].size
    out = factor.target + tuple(v for v in out_ids if v not in factor.target)
    slab = _product(operands, kept, out, tuple(map(size, out)))
    k = math.prod(alphabets[v].size for v in factor.target)
    return slab.reshape((k,) + tuple(1 if v in factor.target else size(v) for v in out_ids))


# per-family names, for callers that name the family they assemble
assemble_joint_t1 = assemble_joint
assemble_joint_t2 = assemble_joint


# ---------------------------------------------------------------------------
# constructors and samplers
# ---------------------------------------------------------------------------


def _as_axes(axes: Alphabet | Sequence[Alphabet]) -> tuple[Alphabet, ...]:
    return (axes,) if isinstance(axes, Alphabet) else tuple(axes)


def uniform_pmf(axes: Alphabet | Sequence[Alphabet]) -> JointPmf:
    axes = _as_axes(axes)
    shape = tuple(a.size for a in axes)
    n = math.prod(shape)
    return JointPmf(axes, np.full(shape, 1.0 / n))


def point_mass(alphabet: Alphabet, index: int) -> JointPmf:
    mass = np.zeros(alphabet.size)
    mass[index] = 1.0
    return JointPmf((alphabet,), mass)


def uniform_cond(
    given: Alphabet | Sequence[Alphabet], target: Alphabet | Sequence[Alphabet]
) -> CondPmf:
    g = _as_axes(given)
    t = _as_axes(target)
    shape = tuple(a.size for a in g) + tuple(a.size for a in t)
    k = math.prod(a.size for a in t)
    return CondPmf(g, t, np.full(shape, 1.0 / k))


def deterministic_cond(given: Sequence[Alphabet], target: Alphabet, table: np.ndarray) -> CondPmf:
    """Conditional that maps each conditioning cell to one target letter."""
    g = tuple(given)
    table = np.asarray(table, dtype=int)
    shape = tuple(a.size for a in g)
    if table.shape != shape:
        raise ValidationError(f"deterministic table shape {table.shape}, expected {shape}")
    mass = np.zeros(shape + (target.size,))
    it = np.nditer(table, flags=["multi_index"])
    for val in it:
        mass[it.multi_index + (int(val),)] = 1.0
    return CondPmf(g, (target,), mass)


def _normalize_rows(draws: np.ndarray) -> np.ndarray:
    """Scale each row (along the last axis) of standard exponential
    ``draws`` to a pmf, in place, and return them.

    A row is summed letter by letter from the left and then multiplied by
    the reciprocal of its sum: the steps by which ``Generator.dirichlet``
    turns the same exponentials into a Dirichlet(1, ..., 1) row (a gamma
    variate of shape 1 is a standard exponential), so the rows are its rows
    bit for bit, for a whole stack of tensors at once.
    """
    acc = draws[..., 0].copy()
    for j in range(1, draws.shape[-1]):
        acc += draws[..., j]
    draws *= (1.0 / acc)[..., None]
    return draws


def _dirichlet_rows(rng: np.random.Generator, n_rows: int, k: int) -> np.ndarray:
    """``n_rows`` pmfs over ``k`` letters, each drawn from Dirichlet(1, ..., 1):
    the one draw behind every random tensor, so the draw order is fixed here.
    The rows are ``rng.dirichlet(np.ones(k), size=n_rows)``, bit for bit."""
    return _normalize_rows(rng.standard_exponential(n_rows * k).reshape(n_rows, k))


def random_cond(rng: np.random.Generator, given: Sequence[Alphabet], target: Sequence[Alphabet]) -> CondPmf:
    g = tuple(given)
    t = tuple(target)
    n_rows = math.prod(a.size for a in g)
    k = math.prod(a.size for a in t)
    rows = _dirichlet_rows(rng, n_rows, k)
    shape = tuple(a.size for a in g) + tuple(a.size for a in t)
    return CondPmf(g, t, rows.reshape(shape))


def random_channel(rng: np.random.Generator, sizes: dict[str, int] | None = None) -> NetworkChannel:
    """Fully random memoryless channel; outputs may be arbitrarily correlated."""
    sizes = dict(sizes or {})
    get = lambda vid: Alphabet(vid, sizes.get(vid, 2))
    given = (get("X0"), get("X1"), get("X2"))
    target = (get("Y0"), get("Y1"), get("Y2"))
    return NetworkChannel(random_cond(rng, given, target))


def _law(family: type, channel: NetworkChannel, sizes: Mapping[str, int], make):
    """A law of ``family`` whose factor p(target | given) is ``make(given, target)``.

    Factors are made in field order, which fixes the draw order of a random
    law.  Variables outside the channel take their alphabet size from
    ``sizes``, 2 when absent.
    """

    def alphabet(vid: str) -> Alphabet:
        if vid in CHANNEL_INPUTS + CHANNEL_OUTPUTS:
            return channel.alphabet(vid)
        return Alphabet(vid, sizes.get(vid, 2))

    parts = {}
    for f in family.factors:
        given = tuple(map(alphabet, f.given))
        target = tuple(map(alphabet, f.target))
        pmf = make(given, target)
        parts[f.name] = pmf if given else JointPmf(target, pmf.mass)
    return family(**parts)


def random_law(
    family: type, rng: np.random.Generator, channel: NetworkChannel, sizes: Mapping[str, int]
):
    """Law of ``family`` with every conditional slice drawn from Dirichlet(1, ..., 1)."""
    return _law(family, channel, sizes, lambda given, target: random_cond(rng, given, target))


def random_joints(
    family: type, rngs: Iterable[np.random.Generator]
) -> Iterator[tuple[tuple[str, ...], np.ndarray]]:
    """Joints of random binary channel+law pairs of ``family``, one pair per
    generator, in stacks along a leading axis of at most ``STACK_ENTRIES``
    entries each; yields each stack's variable ids and mass.

    Each generator draws exactly as :func:`random_channel` and then
    :func:`random_law` draw from it: the channel's rows, then each factor's
    rows in field order.  Those are :func:`_dirichlet_rows` draws, so one
    ``standard_exponential`` call per generator draws all of them, and each
    tensor's rows are normalized for the whole stack at once.  Each stacked
    operand is checked once by :func:`_checked_mass`, as many rows at once
    as the pair's tensors hold for the whole stack, and so is each stacked
    joint.  A stack is :func:`assemble_joint`'s product with a leading
    stack axis, under the same entry cap, and every joint in it is the one
    :func:`assemble_joint` builds for its pair, bit for bit.
    """
    names, terms, out_ids = _product_plan(family)
    ids = dict(zip(names, terms))
    n_given = {None: len(CHANNEL_INPUTS)} | {f.name: len(f.given) for f in family.factors}
    drawn = (None,) + tuple(f.name for f in family.factors)  # the channel, then field order
    # every variable is binary, so tensor m is 2**n_given[m] rows of the
    # letters of its other axes, and takes 2**len(ids[m]) draws
    ends = list(itertools.accumulate(2 ** len(ids[m]) for m in drawn))
    per = max(1, STACK_ENTRIES // 2 ** len(out_ids))
    rngs = iter(rngs)
    while chunk := list(itertools.islice(rngs, per)):
        n = len(chunk)
        draws = np.empty((n, ends[-1]))
        for row, rng in zip(draws, chunk):
            rng.standard_exponential(out=row)
        stacks = {}
        for m, start, end in zip(drawn, [0] + ends, ends):
            rows = _normalize_rows(draws[:, start:end].reshape(n, 2 ** n_given[m], -1))
            shape = (n,) + (2,) * len(ids[m])
            stacks[m] = _checked_mass(rows.reshape(shape), shape, n * 2 ** n_given[m],
                                      f"{m or 'channel'} stack")
        shape = (n,) + (2,) * len(out_ids)
        stacked = [("stack",) + ids[m] for m in names]
        joint = _product([stacks[m] for m in names], stacked, ("stack",) + out_ids, shape)
        yield out_ids, _checked_mass(joint, shape, n, "JointPmf stack")


def uniform_law(family: type, channel: NetworkChannel, sizes: Mapping[str, int]):
    """Law of ``family`` with every conditional slice uniform."""
    return _law(family, channel, sizes, uniform_cond)


def random_t1_law(
    rng: np.random.Generator,
    channel: NetworkChannel,
    yh1_size: int = 2,
    yh2_size: int = 2,
) -> T1Law:
    return random_law(T1Law, rng, channel, {"Yh1": yh1_size, "Yh2": yh2_size})


def random_t2_law(
    rng: np.random.Generator,
    channel: NetworkChannel,
    v1_size: int = 2,
    v2_size: int = 2,
    yh1_size: int = 2,
    yh2_size: int = 2,
) -> T2Law:
    sizes = {"V1": v1_size, "V2": v2_size, "Yh1": yh1_size, "Yh2": yh2_size}
    return random_law(T2Law, rng, channel, sizes)


def uniform_t1_law(channel: NetworkChannel, yh1_size: int = 2, yh2_size: int = 2) -> T1Law:
    return uniform_law(T1Law, channel, {"Yh1": yh1_size, "Yh2": yh2_size})
