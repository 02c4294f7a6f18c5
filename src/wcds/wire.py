"""Message vocabulary and body codecs shared by the keying and protocol layers."""

from __future__ import annotations

import struct
from enum import IntEnum


class MessageKind(IntEnum):
    """Protocol message kinds.

    Enum values double as inbox processing priority within a round: key
    installs land before the approvals that depend on them.
    """

    ADOPT_CMD = 0
    PROMOTE_CMD = 1
    REKEY = 2
    JOIN_REQ = 3
    JOIN_APRV = 4
    GD_ERR = 5
    ORP_ERR = 6
    LEAVE = 7


#: Kinds every legitimate node re-broadcasts once per (origin, seq), readable
#: or not, so they can cross the whole field.
FLOOD_KINDS = frozenset(
    {MessageKind.GD_ERR, MessageKind.ORP_ERR, MessageKind.ADOPT_CMD, MessageKind.PROMOTE_CMD}
)

_ID = struct.Struct(">q")
_COUNT = struct.Struct(">I")


def pack_id(node: int) -> bytes:
    return _ID.pack(node)


def unpack_id(body: bytes) -> int:
    if len(body) != _ID.size:
        raise ValueError("expected a single packed id")
    return _ID.unpack(body)[0]


def pack_ids(nodes) -> bytes:
    nodes = list(nodes)
    return _COUNT.pack(len(nodes)) + b"".join(_ID.pack(v) for v in nodes)


def unpack_ids(body: bytes) -> tuple[int, ...]:
    if len(body) < _COUNT.size:
        raise ValueError("truncated id list")
    (count,) = _COUNT.unpack_from(body, 0)
    if len(body) != _COUNT.size + count * _ID.size:
        raise ValueError("id list length mismatch")
    return tuple(
        _ID.unpack_from(body, _COUNT.size + k * _ID.size)[0] for k in range(count)
    )


def pack_id_key(node: int, key_id: int, key_bytes: bytes) -> bytes:
    """A node id plus one key, the shape of adoption and rekey bodies."""
    return _ID.pack(node) + _ID.pack(key_id) + bytes(key_bytes)


def unpack_id_key(body: bytes) -> tuple[int, int, bytes]:
    if len(body) < 2 * _ID.size:
        raise ValueError("truncated id+key body")
    node = _ID.unpack_from(body, 0)[0]
    key_id = _ID.unpack_from(body, _ID.size)[0]
    return node, key_id, body[2 * _ID.size :]
