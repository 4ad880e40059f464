"""JSON file formats for channels and input laws, plus named channel presets.

All files carry ``format_version`` and a ``kind`` tag.  Tensor data is stored
as nested arrays in the same canonical axis order the in-memory objects use,
with sizes declared alongside, so a written file reads back to bit-identical
tensors.  Serialization is deterministic: sorted keys, fixed indentation.
"""

from __future__ import annotations

import json
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
    naming ``where`` instead of a TypeError or ValueError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _floats(value: Any) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _require(payload: dict, key: str, where: str) -> Any:
    if key not in _object(payload, where):
        raise ValidationError(f"{where}: missing field {key!r}")
    return payload[key]


def _check_version(payload: dict, where: str) -> None:
    version = _require(payload, "format_version", where)
    # by type as in _size: True == 1 and 1.0 == 1 would pass a plain !=
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError(f"{where}: format_version {version!r}, expected {FORMAT_VERSION}")


def cond_to_dict(pmf: CondPmf) -> dict:
    return {
        "given": _axes_meta(pmf.given),
        "target": _axes_meta(pmf.target),
        "data": pmf.mass.tolist(),
    }


def cond_from_dict(payload: dict, where: str) -> CondPmf:
    given = _axes_from_meta(_require(payload, "given", where), where)
    target = _axes_from_meta(_require(payload, "target", where), where)
    data = _convert(_floats, _require(payload, "data", where), f"{where}.data")
    try:
        return CondPmf(given, target, data)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def joint_to_dict(pmf: JointPmf) -> dict:
    return {"axes": _axes_meta(pmf.axes), "data": pmf.mass.tolist()}


def joint_from_dict(payload: dict, where: str) -> JointPmf:
    axes = _axes_from_meta(_require(payload, "axes", where), where)
    data = _convert(_floats, _require(payload, "data", where), f"{where}.data")
    try:
        return JointPmf(axes, data)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


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
    _check_version(payload, "channel")
    if "preset" in payload:
        name = payload["preset"]
        options = {k: v for k, v in payload.items()
                   if k not in ("preset", "format_version", "kind")}
        return channel_preset(name, **options)
    sizes = _object(_require(payload, "sizes", "channel"), "channel.sizes")
    for var in CHANNEL_INPUTS + CHANNEL_OUTPUTS:
        if var not in sizes:
            raise ValidationError(f"channel: sizes is missing {var!r}")
    alphabet = lambda v: Alphabet(v, _size(sizes[v], f"channel.sizes.{v}"))
    given = tuple(map(alphabet, CHANNEL_INPUTS))
    target = tuple(map(alphabet, CHANNEL_OUTPUTS))
    data = _convert(_floats, _require(payload, "transition", "channel"), "channel.transition")
    try:
        return NetworkChannel(CondPmf(given, target, data))
    except ValidationError as exc:
        raise ValidationError(f"channel.transition: {exc}") from None


def channel_preset(name: str, **options) -> NetworkChannel:
    """Small family of ready-made channels.

    identity-direct:
        the receiver sees the sender's symbol verbatim; the relays observe
        nothing (their observation alphabets are singletons).
    all-noise:
        every output is uniform regardless of all inputs.
    binary-symmetric-links:
        each output is the sender's bit through an independent symmetric
        flip; ``crossover`` maps output name to its flip probability.
    """
    if name == "identity-direct":
        if options:
            raise ValidationError(f"identity-direct takes no options, got {sorted(options)}")
        x0, x1, x2 = Alphabet("X0", 2), Alphabet("X1", 2), Alphabet("X2", 2)
        y0, y1, y2 = Alphabet("Y0", 2), Alphabet("Y1", 1), Alphabet("Y2", 1)
        mass = np.zeros((2, 2, 2, 2, 1, 1))
        for a in range(2):
            mass[a, :, :, a, 0, 0] = 1.0
        return NetworkChannel(CondPmf((x0, x1, x2), (y0, y1, y2), mass))
    if name == "all-noise":
        if options:
            raise ValidationError(f"all-noise takes no options, got {sorted(options)}")
        given = tuple(Alphabet(v, 2) for v in ("X0", "X1", "X2"))
        target = tuple(Alphabet(v, 2) for v in ("Y0", "Y1", "Y2"))
        mass = np.full((2, 2, 2, 2, 2, 2), 1.0 / 8.0)
        return NetworkChannel(CondPmf(given, target, mass))
    if name == "binary-symmetric-links":
        crossover = _convert(dict, options.pop("crossover", {}), "crossover")
        if options:
            raise ValidationError(
                f"binary-symmetric-links options: {sorted(options)} not understood"
            )
        flips = {}
        for var in ("Y0", "Y1", "Y2"):
            p = _convert(float, crossover.pop(var, 0.1), f"crossover for {var}")
            if not 0.0 <= p <= 0.5:
                raise ValidationError(f"crossover for {var} must be in [0, 1/2], got {p}")
            flips[var] = p
        if crossover:
            raise ValidationError(f"unknown crossover keys {sorted(crossover)}")
        given = tuple(Alphabet(v, 2) for v in ("X0", "X1", "X2"))
        target = tuple(Alphabet(v, 2) for v in ("Y0", "Y1", "Y2"))
        mass = np.zeros((2, 2, 2, 2, 2, 2))
        for x0v in range(2):
            for outs in np.ndindex(2, 2, 2):
                prob = 1.0
                for var, out in zip(("Y0", "Y1", "Y2"), outs):
                    prob *= (1 - flips[var]) if out == x0v else flips[var]
                mass[(x0v, slice(None), slice(None)) + outs] = prob
        return NetworkChannel(CondPmf(given, target, mass))
    raise ValidationError(f"unknown channel preset {name!r}")


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
    _check_version(payload, "law")
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


def _load(path: str, kind: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{kind} file {path}: invalid JSON ({exc})") from None
    except OSError as exc:
        raise ValidationError(f"{kind} file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{kind} file {path}: top level must be an object")
    return payload
