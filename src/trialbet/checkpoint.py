"""Resumable monitoring state, serialized with bit-exact floats.

A checkpoint captures a monitor mid-stream so that resuming and feeding the
remaining events reproduces exactly the run that would have processed the
whole stream at once.  The monitor configuration is hashed so a checkpoint
cannot be resumed under different parameters, and a resume is refused when the
saved state disagrees with that configuration or with its own position.

This module alone knows the format.  A state's saved form is exactly its
dataclass fields (inputs that are not state are init-only), and a resume
rebuilds it through its constructor, so its validation runs.  Running floats
are IEEE-754 hex strings: every reader parses them to the same bits, and they
hold ``-inf``, which JSON numbers cannot.  ``alpha`` and the monitor options
are written as given: they are the user's settings, which the configuration
hash pins.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from functools import cache
from typing import Any

from .continuous import _ArmMoments
from .core import RampSchedule, finite
from .multistate import DEFAULT_MODEL
from .variants import MONITORS

SCHEMA_VERSION = 2

# Schema 1 also saved the multistate state model, which is now fixed: a schema-1
# checkpoint resumes only if it holds this model, as schema 1 wrote it.
_SCHEMA_1_MODEL = {"states": list(DEFAULT_MODEL.states),
                   "absorbing": sorted(DEFAULT_MODEL.absorbing),
                   "good": sorted(map(list, DEFAULT_MODEL.good))}


class CheckpointError(ValueError):
    pass


_AS_GIVEN = frozenset({"alpha"}).union(*(m.options for m in MONITORS.values()))


def _field_type(cls, f):
    """The type of ``cls``'s field ``f``: its annotation, evaluated in the
    module of the class that declares it.  Only fields are resolved, as
    ``typing.get_type_hints`` before Python 3.11 refuses a ``KW_ONLY`` marker."""
    owner = next(base for base in cls.__mro__ if f.name in vars(base).get("__annotations__", {}))
    return eval(f.type, vars(sys.modules[owner.__module__]))


@cache
def _layout(cls) -> tuple[tuple[str, str, Any], ...]:
    """(name, how it is written, type) of each field of ``cls``, in declaration
    order."""
    layout = []
    for f in fields(cls):
        name, hint = f.name, _field_type(cls, f)
        how = ("flat" if hint is RampSchedule  # beside the owner's fields
               else "row" if hint is _ArmMoments  # a list of its field values
               else "object" if is_dataclass(hint)
               else "hex" if hint is float and name not in _AS_GIVEN
               else "hexes" if hint == list[float]
               else "given")
        layout.append((name, how, hint))
    return tuple(layout)


def encode_state(obj) -> dict[str, Any]:
    """The JSON object of a monitor state or of a ledger."""
    out: dict[str, Any] = {}
    for name, how, hint in _layout(type(obj)):
        value = getattr(obj, name)
        if how == "flat":
            out.update(encode_state(value))
        elif how == "row":
            out[name] = list(encode_state(value).values())
        elif how == "object":
            out[name] = encode_state(value)
        elif how == "hex":
            out[name] = value.hex()
        elif how == "hexes":
            out[name] = list(map(float.hex, value))
        else:
            out[name] = value
    return out


def _field(doc: dict, name: str, json_type):
    """``doc[name]``, which must be a ``json_type`` (a bool counts as no number)
    and, if an int, within the float range."""
    if name not in doc:
        raise ValueError(f"no field {name!r}")
    value = doc[name]
    if not isinstance(value, json_type) or (isinstance(value, bool) and json_type is not bool):
        raise TypeError(f"field {name!r} has the wrong type: {value!r}")
    if isinstance(value, int) and not finite(value):
        raise ValueError(f"field {name!r} is past the float range: {value!r}")
    return value


def _from_hex(name: str, texts: list) -> list[float]:
    """The floats that hex strings written by ``float.hex`` spell; one past the
    float range is refused."""
    try:
        return list(map(float.fromhex, texts))
    except OverflowError:
        raise ValueError(f"field {name!r} holds a hex float past the float range") from None


def decode_state(cls, doc: dict):
    """Rebuild a ``cls`` from :func:`encode_state`'s object through its
    constructor.  A missing, mistyped or invalid field raises TypeError or
    ValueError."""
    kwargs: dict[str, Any] = {}
    for name, how, hint in _layout(cls):
        if how == "flat":
            kwargs[name] = decode_state(hint, doc)
        elif how == "row":
            row = zip([key for key, _, _ in _layout(hint)], _field(doc, name, list), strict=True)
            kwargs[name] = decode_state(hint, dict(row))
        elif how == "object":
            kwargs[name] = decode_state(hint, _field(doc, name, dict))
        elif how == "hex":
            (kwargs[name],) = _from_hex(name, [_field(doc, name, str)])
        elif how == "hexes":
            kwargs[name] = _from_hex(name, _field(doc, name, list))
        else:
            kwargs[name] = _field(doc, name, (int, float) if hint is float else hint)
    return cls(**kwargs)


def config_hash(config: dict[str, Any]) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def dump_checkpoint(variant: str, state, config: dict[str, Any],
                    position: int) -> dict[str, Any]:
    """``position`` is the input line number of the last processed event."""
    if variant not in MONITORS:
        raise CheckpointError(f"unknown variant {variant!r}")
    return {
        "schema": SCHEMA_VERSION,
        "variant": variant,
        "config_sha256": config_hash(config),
        "position": position,
        "state": encode_state(state),
        "written_at": datetime.now(timezone.utc).isoformat(),
    }


def load_checkpoint(doc: dict[str, Any], variant: str, config: dict[str, Any]):
    """Rebuild (state, position) from a checkpoint document of schema 1 or 2.

    Raises CheckpointError on a malformed document, on a schema, variant or
    configuration mismatch, on a setting the state holds that differs from the
    one a fresh run takes from the configuration (its schedule or options), on
    a schema-1 multistate model other than the one model, or on a position
    before the state's last event.
    """
    if not isinstance(doc, dict):
        raise CheckpointError("corrupt checkpoint: not a JSON object")
    schema = doc.get("schema")
    if type(schema) is not int or schema not in (1, SCHEMA_VERSION):  # True == 1: no bool
        raise CheckpointError(f"unsupported checkpoint schema: {schema!r}")
    if doc.get("variant") != variant:
        raise CheckpointError(
            f"checkpoint is for variant {doc.get('variant')!r}, not {variant!r}")
    expected = config_hash(config)
    if doc.get("config_sha256") != expected:
        raise CheckpointError("checkpoint configuration does not match; refusing to resume")
    monitor = MONITORS[variant]
    try:
        saved_state = _field(doc, "state", dict)
        state = decode_state(monitor.state, saved_state)
        position = _field(doc, "position", int)
        # the saved model, its sets sorted as schema 1 wrote them (their order is free)
        model = ({key: (list if key == "states" else sorted)(_field(saved_state, key, list))
                  for key in _SCHEMA_1_MODEL} if schema == 1 and variant == "multistate" else {})
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    events = monitor.events(state)
    if position < events:
        raise CheckpointError(f"corrupt checkpoint: position {position} is before "
                              f"its {events} events")
    # each setting no event changes (alpha, the schedule, the options the state does
    # not update) against the configuration's; one it lacks is the checkpoint's own
    saved = {"alpha": state.ledger.alpha, **encode_state(state.sched),
             **{key: getattr(state, key) for key in monitor.options
                if key not in monitor.running}, **model}
    for key, value in saved.items():
        want = _SCHEMA_1_MODEL[key] if key in model else config.get(key, value)
        if value != want:
            raise CheckpointError(f"checkpoint {key} {value!r} does not match the "
                                  f"configuration's {want!r}; refusing to resume")
    return state, position


def write_checkpoint_file(path: str, variant: str, state, config: dict[str, Any],
                          position: int) -> None:
    """Replace the checkpoint at ``path`` atomically.

    The document goes to a temporary file in the same directory, is synced to
    disk, and only then renamed over ``path``: a crash mid-write leaves the
    previous checkpoint, the only resume point, intact.
    """
    text = json.dumps(dump_checkpoint(variant, state, config, position)) + "\n"
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)  # one write of what json.dump writes in chunks
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_json(path: str, what: str):
    """The JSON document in the file at ``path``.  A file that is no JSON,
    nests too deeply or holds an int past Python's digit limit raises one
    ValueError that begins with ``what``."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what}: invalid JSON (nested too deeply)") from None
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise ValueError(f"{what}: invalid JSON ({exc})") from None


def read_checkpoint_file(path: str, variant: str, config: dict[str, Any]):
    return load_checkpoint(read_json(path, "corrupt checkpoint"), variant, config)
