"""Resumable monitoring state, serialized with bit-exact floats.

A checkpoint captures a monitor mid-stream so that resuming and feeding the
remaining events reproduces exactly the run that would have processed the
whole stream at once.  Floats are stored as hex strings (IEEE-754 round
trip), and the monitor configuration is hashed so a checkpoint cannot be
resumed under different parameters.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from datetime import datetime, timezone
from typing import Any

from .variants import MONITORS

SCHEMA_VERSION = 1


class CheckpointError(ValueError):
    pass


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
        "state": state.state_dict(),
        "written_at": datetime.now(timezone.utc).isoformat(),
    }


def load_checkpoint(doc: dict[str, Any], variant: str, config: dict[str, Any]):
    """Rebuild (state, position) from a checkpoint document.

    Raises CheckpointError on schema, variant, or configuration mismatch.
    """
    if doc.get("schema") != SCHEMA_VERSION:
        raise CheckpointError(f"unsupported checkpoint schema: {doc.get('schema')!r}")
    if doc.get("variant") != variant:
        raise CheckpointError(
            f"checkpoint is for variant {doc.get('variant')!r}, not {variant!r}")
    expected = config_hash(config)
    if doc.get("config_sha256") != expected:
        raise CheckpointError("checkpoint configuration does not match; refusing to resume")
    state = MONITORS[variant].state.from_state_dict(doc["state"])
    return state, int(doc["position"])


def write_checkpoint_file(path: str, variant: str, state, config: dict[str, Any],
                          position: int) -> None:
    """Replace the checkpoint at ``path`` atomically.

    The document goes to a temporary file in the same directory, is synced to
    disk, and only then renamed over ``path``: a crash mid-write leaves the
    previous checkpoint, the only resume point, intact.
    """
    doc = dump_checkpoint(variant, state, config, position)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_checkpoint_file(path: str, variant: str, config: dict[str, Any]):
    with open(path, encoding="utf-8") as fh:
        return load_checkpoint(json.load(fh), variant, config)
