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
* Alphabets are small by design: the library targets exhaustive desk-scale
  computation, not large-alphabet numerics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

CANONICAL_ORDER = ("X0", "X1", "X2", "V1", "V2", "Y0", "Y1", "Y2", "Yh1", "Yh2")
_CANON_INDEX = {vid: k for k, vid in enumerate(CANONICAL_ORDER)}
CHANNEL_INPUTS = ("X0", "X1", "X2")
CHANNEL_OUTPUTS = ("Y0", "Y1", "Y2")

# einsum letter per canonical variable, fixed once
_EINSUM_LETTER = dict(zip(CANONICAL_ORDER, "abcdefghij"))

MAX_ALPHABET_SIZE = 8
MAX_JOINT_ENTRIES = 10**8
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


def _clamp_tiny_negatives(mass: np.ndarray) -> np.ndarray:
    """Zero out negativity within the clamp tolerance; larger negativity errors.

    NaN and infinite entries error too: every comparison with NaN is false, so
    the sign and normalization checks alone would let them through.
    """
    if not np.isfinite(mass).all():
        raise ValidationError("tensor has non-finite entries (NaN or infinity)")
    worst = float(mass.min()) if mass.size else 0.0
    if worst < -NEGATIVITY_CLAMP:
        raise ValidationError(f"tensor entry {worst} below -{NEGATIVITY_CLAMP}")
    if worst < 0.0:
        mass = np.where(mass < 0.0, 0.0, mass)
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
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != tuple(a.size for a in axes):
            raise ValidationError(
                f"JointPmf: mass shape {mass.shape} does not match axes "
                f"{[(a.id, a.size) for a in axes]}"
            )
        if mass.size > MAX_JOINT_ENTRIES:
            raise ResourceLimitError(
                f"joint tensor has {mass.size} entries, cap is {MAX_JOINT_ENTRIES}"
            )
        mass = _clamp_tiny_negatives(mass)
        total = float(mass.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"JointPmf: total mass {total} not within tolerance of 1")
        mass = mass.copy()
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def raw(cls, axes: Sequence[Alphabet], mass: np.ndarray) -> "JointPmf":
        """Bypass construction checks.  For diagnostics and tests only."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "axes", tuple(axes))
        object.__setattr__(obj, "mass", np.asarray(mass, dtype=float))
        return obj

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
        mass = np.asarray(self.mass, dtype=float)
        shape = tuple(a.size for a in given) + tuple(a.size for a in target)
        if mass.shape != shape:
            raise ValidationError(f"CondPmf: mass shape {mass.shape}, expected {shape}")
        mass = _clamp_tiny_negatives(mass)
        n_given = math.prod(a.size for a in given)
        totals = mass.reshape(n_given, -1).sum(axis=1)
        worst = float(np.abs(totals - 1.0).max())
        if worst > NORMALIZATION_TOL:
            raise ValidationError(f"CondPmf: slice mass off by {worst}")
        mass = mass.copy()
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def raw(cls, given: Sequence[Alphabet], target: Sequence[Alphabet], mass: np.ndarray) -> "CondPmf":
        """Bypass construction checks.  For diagnostics and tests only."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "given", tuple(given))
        object.__setattr__(obj, "target", tuple(target))
        object.__setattr__(obj, "mass", np.asarray(mass, dtype=float))
        return obj

    @property
    def given_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.given)

    @property
    def target_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.target)


@dataclass(frozen=True)
class PmfDiagnostics:
    """Pure report from :func:`validate`; never raises."""

    max_negativity: float
    max_normalization_deviation: float
    passed: bool


def validate(pmf: JointPmf | CondPmf) -> PmfDiagnostics:
    """Report finiteness, negativity and normalization health of a (possibly raw) tensor."""
    mass = np.asarray(pmf.mass, dtype=float)
    max_neg = float(max(0.0, -mass.min())) if mass.size else 0.0
    effective = np.where((mass < 0.0) & (mass >= -NEGATIVITY_CLAMP), 0.0, mass)
    if isinstance(pmf, CondPmf):
        n_given = math.prod(a.size for a in pmf.given)
        totals = effective.reshape(n_given, -1).sum(axis=1)
    else:
        totals = np.array([effective.sum()])
    max_dev = float(np.abs(totals - 1.0).max())
    finite = bool(np.isfinite(mass).all())
    passed = finite and max_neg <= NEGATIVITY_CLAMP and max_dev <= NORMALIZATION_TOL
    return PmfDiagnostics(max_neg, max_dev, passed)


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

    @property
    def input_sizes(self) -> tuple[int, int, int]:
        return tuple(a.size for a in self.transition.given)

    @property
    def output_sizes(self) -> tuple[int, int, int]:
        return tuple(a.size for a in self.transition.target)


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
def _einsum_plan(family: type) -> tuple[str, tuple[str, ...], int]:
    """einsum spec, output ids and channel operand position of a law family.

    The operands are the factors in field order with the channel transition
    right after p(x0|.); the order fixes einsum's multiplication order, and
    with it the last bits of the joint.
    """
    terms = [f.given + f.target for f in family.factors]
    channel_at = 1 + next(k for k, f in enumerate(family.factors) if "X0" in f.target)
    terms.insert(channel_at, CHANNEL_INPUTS + CHANNEL_OUTPUTS)
    out_ids = canonical_sorted({v for ids in terms for v in ids})
    letters = lambda ids: "".join(_EINSUM_LETTER[v] for v in ids)
    return ",".join(map(letters, terms)) + "->" + letters(out_ids), out_ids, channel_at


def assemble_joint(channel: NetworkChannel, law: T1Law | T2Law) -> JointPmf:
    """Joint pmf of the channel and the law over every variable of the law's family.

    Alphabet sizes are checked by variable id, against the channel and across
    the law's own factors.
    """
    spec, out_ids, channel_at = _einsum_plan(type(law))
    transition = channel.transition
    seen = {a.id: (a, "channel") for a in transition.given + transition.target}
    operands = []
    for f in law.factors:
        pmf = getattr(law, f.name)
        for a in pmf.given + pmf.target:
            first, owner = seen.setdefault(a.id, (a, f.name))
            if first.size != a.size:
                raise ValidationError(
                    f"alphabet mismatch on {a.id}: law has {a.size}, {owner} has {first.size}"
                )
        operands.append(pmf.mass)
    operands.insert(channel_at, transition.mass)
    return JointPmf(tuple(seen[v][0] for v in out_ids), np.einsum(spec, *operands))


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


def _random_rows(rng: np.random.Generator, n_rows: int, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k), size=n_rows)


def random_cond(rng: np.random.Generator, given: Sequence[Alphabet], target: Sequence[Alphabet]) -> CondPmf:
    g = tuple(given)
    t = tuple(target)
    n_rows = math.prod(a.size for a in g)
    k = math.prod(a.size for a in t)
    rows = _random_rows(rng, n_rows, k)
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


def uniform_t2_law(
    channel: NetworkChannel,
    v1_size: int = 2,
    v2_size: int = 2,
    yh1_size: int = 2,
    yh2_size: int = 2,
) -> T2Law:
    sizes = {"V1": v1_size, "V2": v2_size, "Yh1": yh1_size, "Yh2": yh2_size}
    return uniform_law(T2Law, channel, sizes)
