"""JSON file formats for channels and input laws, plus named channel presets.

All files carry ``format_version`` and a ``kind`` tag.  Tensor data is stored
as nested arrays in the same canonical axis order the in-memory objects use,
with sizes declared alongside, so a written file reads back to bit-identical
tensors.  Serialization is deterministic: sorted keys, fixed indentation.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any

import numpy as np

from .prob import (
    CHANNEL_INPUTS,
    CHANNEL_OUTPUTS,
    LAW_FAMILIES,
    Alphabet,
    CondPmf,
    JointPmf,
    NetworkChannel,
    T1Law,
    T2Law,
    ValidationError,
)

FORMAT_VERSION = 1


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _axes_meta(axes: tuple[Alphabet, ...]) -> list[list]:
    return [[a.id, a.size] for a in axes]


def _size(value: Any, where: str) -> int:
    """An alphabet size as a file gives it: an integer, not a float that
    ``int`` would truncate or a bool it would read as 0 or 1."""
    if type(value) is not int:
        raise ValidationError(f"{where}: alphabet size {value!r} is not an integer")
    return value


def _axes_from_meta(meta: Any, where: str) -> tuple[Alphabet, ...]:
    try:
        return tuple(Alphabet(str(i), _size(s, where)) for i, s in meta)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: malformed axis list {meta!r}") from None


def _convert(convert, value: Any, where: str) -> Any:
    """``convert(value)``, with a malformed value reported as a ValidationError
    naming ``where`` instead of a TypeError, ValueError or OverflowError (an
    integer beyond float range; a ValidationError is a ValueError, so a
    refusal by the constructed type is named too)."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _floats(value: Any) -> np.ndarray:
    """Tensor entries as floats: a bool or a string entry is refused by type,
    as in _size, where numpy would read ``true`` as 1.0 and ``"0.5"`` as 0.5.
    The entries are read flat by ``reshape``, which, unlike ``flat``, takes
    an array of more than 32 dimensions."""
    for x in np.asarray(value, dtype=object).reshape(-1):
        if name := {bool: "bool", str: "string"}.get(type(x)):
            raise ValueError(f"could not convert {name} to float: {x!r}")
    return np.asarray(value, dtype=float)


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _known(payload: Any, keys: tuple[str, ...], where: str) -> None:
    """Refuse an object with a key outside ``keys``: a misspelled field is
    an error, never a silent default."""
    unknown = sorted(set(_object(payload, where)) - set(keys))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {', '.join(map(repr, unknown))}")


def _require(payload: dict, key: str, where: str) -> Any:
    if key not in _object(payload, where):
        raise ValidationError(f"{where}: missing field {key!r}")
    return payload[key]


def _check_header(payload: dict, kind: str) -> None:
    """Refuse a file of another format version or of another kind."""
    version = _require(payload, "format_version", kind)
    # by type as in _size: True == 1 and 1.0 == 1 would pass a plain !=
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError(f"{kind}: format_version {version!r}, expected {FORMAT_VERSION}")
    if (tag := _require(payload, "kind", kind)) != kind:
        raise ValidationError(f"{kind}: kind {tag!r}, expected {kind!r}")


def cond_to_dict(pmf: CondPmf) -> dict:
    return {
        "given": _axes_meta(pmf.given),
        "target": _axes_meta(pmf.target),
        "data": pmf.mass.tolist(),
    }


def cond_from_dict(payload: dict, where: str) -> CondPmf:
    _known(payload, ("given", "target", "data"), where)
    given = _axes_from_meta(_require(payload, "given", where), where)
    target = _axes_from_meta(_require(payload, "target", where), where)
    data = _convert(_floats, _require(payload, "data", where), f"{where}.data")
    return _convert(partial(CondPmf, given, target), data, where)


def joint_to_dict(pmf: JointPmf) -> dict:
    return {"axes": _axes_meta(pmf.axes), "data": pmf.mass.tolist()}


def joint_from_dict(payload: dict, where: str) -> JointPmf:
    _known(payload, ("axes", "data"), where)
    axes = _axes_from_meta(_require(payload, "axes", where), where)
    data = _convert(_floats, _require(payload, "data", where), f"{where}.data")
    return _convert(partial(JointPmf, axes), data, where)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def channel_to_dict(channel: NetworkChannel) -> dict:
    t = channel.transition
    return {
        "format_version": FORMAT_VERSION,
        "kind": "channel",
        "sizes": {a.id: a.size for a in t.given + t.target},
        "transition": t.mass.tolist(),
    }


def channel_from_dict(payload: dict) -> NetworkChannel:
    _check_header(payload, "channel")
    if "preset" in payload:
        name = payload["preset"]
        options = {k: v for k, v in payload.items()
                   if k not in ("preset", "format_version", "kind")}
        return channel_preset(name, **options)
    _known(payload, ("format_version", "kind", "sizes", "transition"), "channel")
    sizes = _require(payload, "sizes", "channel")
    _known(sizes, CHANNEL_INPUTS + CHANNEL_OUTPUTS, "channel.sizes")
    for var in CHANNEL_INPUTS + CHANNEL_OUTPUTS:
        if var not in sizes:
            raise ValidationError(f"channel: sizes is missing {var!r}")
    alphabet = lambda v: Alphabet(v, _size(sizes[v], f"channel.sizes.{v}"))
    given = tuple(map(alphabet, CHANNEL_INPUTS))
    target = tuple(map(alphabet, CHANNEL_OUTPUTS))
    make = lambda data: NetworkChannel(CondPmf(given, target, _floats(data)))
    return _convert(make, _require(payload, "transition", "channel"), "channel.transition")


# each output's binary-symmetric flip of X0, in CHANNEL_OUTPUTS order; None
# is a one-letter output
_FLIPS = {"identity-direct": (0.0, None, None), "all-noise": (0.5, 0.5, 0.5)}


def _flip_channel(flips) -> NetworkChannel:
    """Binary inputs, each output X0 through its own flip whatever X1 and X2.
    The links multiply in output order, which fixes each entry's last bits."""
    y0, y1, y2 = (np.ones((2, 1)) if p is None else np.array([[1 - p, p], [p, 1 - p]])
                  for p in flips)
    mass = y0[:, :, None, None] * y1[:, None, :, None] * y2[:, None, None, :]
    given = tuple(Alphabet(v, 2) for v in CHANNEL_INPUTS)
    target = tuple(map(Alphabet, CHANNEL_OUTPUTS, mass.shape[1:]))
    mass = np.broadcast_to(mass[:, None, None], (2, 2, 2) + mass.shape[1:])
    return NetworkChannel(CondPmf(given, target, mass))


def channel_preset(name: str, /, **options) -> NetworkChannel:
    """Small family of ready-made channels, each a row of ``_FLIPS`` or, for
    binary-symmetric-links, its ``crossover`` values.

    identity-direct:
        the receiver sees the sender's symbol verbatim; the relays observe
        nothing (their observation alphabets are singletons).
    all-noise:
        every output is uniform regardless of all inputs.
    binary-symmetric-links:
        each output is the sender's bit through an independent symmetric
        flip; ``crossover`` maps output name to its flip probability, a number.
    """
    if name == "binary-symmetric-links":
        crossover = dict(_object(options.pop("crossover", {}), "crossover"))
        if options:
            raise ValidationError(
                f"binary-symmetric-links options: {sorted(options)} not understood"
            )
        flips = []
        for var in CHANNEL_OUTPUTS:
            p = crossover.pop(var, 0.1)
            if isinstance(p, (bool, str)):
                raise ValidationError(f"crossover for {var}: {p!r} is not a number")
            p = _convert(float, p, f"crossover for {var}")
            if not 0.0 <= p <= 0.5:
                raise ValidationError(f"crossover for {var} must be in [0, 1/2], got {p}")
            flips.append(p)
        if crossover:
            raise ValidationError(f"unknown crossover keys {sorted(crossover)}")
        return _flip_channel(flips)
    if not isinstance(name, str) or name not in _FLIPS:  # a file's name may be unhashable
        raise ValidationError(f"unknown channel preset {name!r}")
    if options:
        raise ValidationError(f"{name} takes no options, got {sorted(options)}")
    return _flip_channel(_FLIPS[name])


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


def law_to_dict(law: T1Law | T2Law) -> dict:
    if type(law) not in LAW_FAMILIES.values():
        raise ValidationError(f"not a law: {type(law).__name__}")
    components = {}
    for f in law.factors:
        pmf = getattr(law, f.name)
        components[f.name] = cond_to_dict(pmf) if f.given else joint_to_dict(pmf)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "law",
        "theorem": law.theorem,
        "components": components,
    }


def law_from_dict(payload: dict) -> T1Law | T2Law:
    _check_header(payload, "law")
    _known(payload, ("format_version", "kind", "theorem", "components"), "law")
    theorem = _require(payload, "theorem", "law")
    if not isinstance(theorem, str) or theorem not in LAW_FAMILIES:
        raise ValidationError(f"law: unknown theorem tag {theorem!r}")
    family = LAW_FAMILIES[theorem]
    components = _object(_require(payload, "components", "law"), "law.components")
    unknown = sorted(set(components) - {f.name for f in family.factors})
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ValidationError(f"law: unknown components {names} for theorem {theorem!r}")
    kwargs = {}
    for f in family.factors:
        if f.name not in components:
            raise ValidationError(f"law: components is missing {f.name!r}")
        read = cond_from_dict if f.given else joint_from_dict
        kwargs[f.name] = read(components[f.name], f"law.components.{f.name}")
    return family(**kwargs)


def load_channel(path: str) -> NetworkChannel:
    return channel_from_dict(_load(path, "channel"))


def load_law(path: str) -> T1Law | T2Law:
    return law_from_dict(_load(path, "law"))


def read_text(path: str, kind: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read or is not UTF-8
    is a ValidationError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{kind} file {path}: {exc}") from None


def _load(path: str, kind: str) -> dict:
    text = read_text(path, kind)
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, over 4300 digits, or too deep
        raise ValidationError(f"{kind} file {path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{kind} file {path}: top level must be an object")
    return payload
