"""Group-wise key pre-distribution and a modeled symmetric cipher.

Every sensor is provisioned offline before deployment: each group gets one
shared group key, each ordinary sensor an individual key, and the group
dominator carries the individual keys of its whole group. Each key is kept
once, in the ring of the node that stores it; the base station reads every
ring.

Encryption is modeled, not real cryptography: a keyed blake2b stream hides the
body and an 8-byte keyed tag over (key id, payload) gates decryption. That
gives the access-control semantics that matter here (right key or nothing,
tampering detected) with deterministic bytes.

Keys are assigned offline and reused for the whole run, so the keystream's
first 64-byte block, which depends on the key alone and covers every message
the protocol seals, is computed once per key object and kept on it. Each
ciphertext object remembers what each key made of it (``open_as``), so every
receiver of one broadcast shares one tag check.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .wire import MessageKind, pack_id_key

ALLOWED_KEY_BITS = (64, 128, 256)
TAG_BYTES = 8


class AuthenticationFailure(Exception):
    """Wrong key for this ciphertext, or the ciphertext was altered."""


class MalformedCiphertext(Exception):
    """Structurally invalid ciphertext, independent of any key."""


class Rank(str, Enum):
    GD = "GD"
    OS = "Os"
    GD_OS = "GD_os"


@dataclass(frozen=True)
class Key:
    id: int
    bits: bytes
    #: The first block of this key's keystream, computed on first use. It
    #: depends on the key alone and holds every message the protocol seals,
    #: so each key object runs the keystream hash once. Plain bytes, so a key
    #: still pickles and deep-copies; not compared, hashed or shown.
    _first_block: bytes | None = field(
        default=None, init=False, compare=False, hash=False, repr=False
    )


@dataclass(frozen=True)
class Ciphertext:
    key_id: int
    payload: bytes
    auth_tag: bytes
    #: ``open_as``'s results on this copy, by key bits: the decrypted
    #: (kind, body), or None when the key failed. Every receiver of a
    #: broadcast holds the same object, so each key opens it once.
    _opened: dict[bytes, tuple[MessageKind, bytes] | None] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )


#: Bytes per keystream block: one blake2b digest.
_BLOCK_BYTES = 64


def _keystream_block(key: Key, counter: int) -> bytes:
    return hashlib.blake2b(
        counter.to_bytes(8, "big"), key=key.bits[:64], digest_size=_BLOCK_BYTES
    ).digest()


def _keystream(key: Key, length: int) -> bytes:
    first = key._first_block
    if first is None:
        first = _keystream_block(key, 0)
        object.__setattr__(key, "_first_block", first)
    if length <= _BLOCK_BYTES:
        return first[:length]
    out = bytearray(first)
    counter = 1
    while len(out) < length:
        out.extend(_keystream_block(key, counter))
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR ``stream``, byte for byte; both have the same length."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


def _tag(key: Key, payload: bytes) -> bytes:
    mac = hashlib.blake2b(key=key.bits[:64], digest_size=TAG_BYTES)
    mac.update(key.id.to_bytes(8, "big", signed=True))
    mac.update(payload)
    return mac.digest()


def encrypt(key: Key, kind: MessageKind | int, body: bytes) -> Ciphertext:
    """Seal (kind, body) under ``key``; the kind byte travels inside the payload."""
    plain = bytes([int(kind)]) + bytes(body)
    stream = _keystream(key, len(plain))
    payload = _xor(plain, stream)
    return Ciphertext(key.id, payload, _tag(key, payload))


#: The kind each kind byte names. ``MessageKind(byte)`` takes ``EnumType``'s
#: slow path on Python 3.11 (930 ns on 3.11.7), and every decrypt reads one.
_KIND_OF_BYTE = {kind.value: kind for kind in MessageKind}
#: Members read per sensor and per rekey, bound once for the same reason:
#: each ``Rank.OS``-style read costs 180-200 ns on 3.11.7.
_GD, _OS, _REKEY = Rank.GD, Rank.OS, MessageKind.REKEY


def decrypt(key: Key, ct: Ciphertext) -> tuple[MessageKind, bytes]:
    """Open a ciphertext; raises AuthenticationFailure unless ``key`` sealed it."""
    if not isinstance(ct, Ciphertext):
        raise MalformedCiphertext("not a ciphertext")
    if not isinstance(ct.payload, bytes) or not isinstance(ct.auth_tag, bytes):
        raise MalformedCiphertext("payload and tag must be bytes")
    if len(ct.payload) < 1:
        raise MalformedCiphertext("payload too short for a kind byte")
    if ct.key_id != key.id:
        raise AuthenticationFailure(f"ciphertext is under key {ct.key_id}, not {key.id}")
    if _tag(key, ct.payload) != ct.auth_tag:
        raise AuthenticationFailure("tag check failed")
    stream = _keystream(key, len(ct.payload))
    plain = _xor(ct.payload, stream)
    kind = _KIND_OF_BYTE.get(plain[0])
    if kind is None:
        raise MalformedCiphertext(f"unknown kind byte {plain[0]}")
    return kind, plain[1:]


def open_as(key: Key | None, ct: Ciphertext, kind: MessageKind) -> bytes | None:
    """The body of ``ct`` if ``key`` sealed it as ``kind``, else None. No key, or
    a clear key id naming another key, returns None without running the cipher.
    The cipher runs once per key bits on each ciphertext object; a forged or
    altered copy is a new object and gets its own tag check."""
    if key is None or ct.key_id != key.id:
        return None
    try:
        opened = ct._opened[key.bits]
    except KeyError:
        try:
            opened = decrypt(key, ct)
        except (AuthenticationFailure, MalformedCiphertext):
            opened = None
        ct._opened[key.bits] = opened
    return opened[1] if opened is not None and opened[0] is kind else None


class KeyFountain:
    """Deterministic stream of fresh keys with unique ascending ids.

    Ascending ids order keys by creation time, which lets receivers refuse a
    replayed older group key.
    """

    def __init__(self, seed: int, key_bits: int):
        self._rng = random.Random(seed)
        self._next = 0
        self._bytes = key_bits // 8

    def next_key(self) -> Key:
        key = Key(self._next, self._rng.randbytes(self._bytes))
        self._next += 1
        return key


@dataclass
class KeyRing:
    """What one node actually stores.

    Ordinary sensors hold their individual key plus their group key.
    Dominators hold the group key plus one individual key per authorized
    group member; they have no individual key of their own.
    """

    individual: Key | None
    group: Key
    subordinate_keys: dict[int, Key] = field(default_factory=dict)

    def keys(self) -> list[Key]:
        out = []
        if self.individual is not None:
            out.append(self.individual)
        out.append(self.group)
        out.extend(self.subordinate_keys[n] for n in sorted(self.subordinate_keys))
        return out


@dataclass
class KeyMaterial:
    """Full provisioning output; the base station's view of the world.

    ``rings`` holds each node's keys, and the sensors' states share these
    ring objects: a dominator's ring takes each new group key as it rekeys,
    and an ordinary sensor's only when it processes the rekey message. The
    provisioned dominators' rings are the ones with no individual key.
    ``group_key_history`` keeps every group key each dominator has held.
    ``owners`` maps every key id to the node the key belongs to: a sensor
    for its individual key, a dominator for each group key it has held. Key
    ids travel in the clear, so a copy sealed under one of these keys names
    the one node that can open it.
    """

    key_bits: int
    rings: dict[int, KeyRing]
    ranks: dict[int, Rank]
    groups: tuple[tuple[int, tuple[int, ...]], ...]
    reserve: frozenset[int]
    fountain: KeyFountain
    group_key_history: dict[int, dict[int, Key]] = field(default_factory=dict)
    owners: dict[int, int] = field(default_factory=dict)

    def group_key_for(self, gd: int, key_id: int) -> Key | None:
        """Look up a current or superseded group key of ``gd`` by id.

        Rotations can race messages already in flight, so both the dominator
        and the base station keep every key the group has ever used.
        """
        return self.group_key_history.get(gd, {}).get(key_id)

    def all_nodes(self) -> tuple[int, ...]:
        out = []
        for gd, members in self.groups:
            out.append(gd)
            out.extend(members)
        return tuple(out)

    def deployed_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in self.all_nodes() if v not in self.reserve)


def group_sizes_for(n: int, eta: int) -> list[int]:
    """Split n sensors into groups of one dominator plus up to ``eta`` members.

    Fills whole groups of eta + 1 nodes first; a nonzero remainder becomes one
    final short group (possibly a lone dominator).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if eta < 0:
        raise ValueError("eta must be non-negative")
    full, rem = divmod(n, eta + 1)
    sizes = [eta] * full
    if rem:
        sizes.append(rem - 1)
    return sizes


def provision(
    group_sizes: Sequence[int],
    key_bits: int = 128,
    reserve_fraction: float = 0.0,
    seed: int = 0,
) -> KeyMaterial:
    """Assign node ids, ranks, and keys for one deployment, entirely offline.

    Group i gets one dominator followed by group_sizes[i] ordinary sensors,
    ids running sequentially from zero. The last floor(size * reserve_fraction)
    members of each group are flagged as held back from initial deployment;
    they are keyed like everyone else.
    """
    if key_bits not in ALLOWED_KEY_BITS:
        raise ValueError(f"key_bits must be one of {ALLOWED_KEY_BITS}")
    if not 0.0 <= reserve_fraction < 1.0:
        raise ValueError("reserve_fraction must be in [0, 1)")
    sizes = [int(s) for s in group_sizes]
    if any(s < 0 for s in sizes):
        raise ValueError("group sizes must be non-negative")

    fountain = KeyFountain(seed, key_bits)
    rings: dict[int, KeyRing] = {}
    ranks: dict[int, Rank] = {}
    groups: list[tuple[int, tuple[int, ...]]] = []
    history: dict[int, dict[int, Key]] = {}
    owners: dict[int, int] = {}
    reserve: set[int] = set()

    node = 0
    for size in sizes:
        gd = node
        node += 1
        members = tuple(range(node, node + size))
        node += size
        gkey = fountain.next_key()
        history[gd] = {gkey.id: gkey}
        owners[gkey.id] = gd
        ranks[gd] = _GD
        sub_keys: dict[int, Key] = {}
        for m in members:
            ikey = fountain.next_key()
            owners[ikey.id] = m
            sub_keys[m] = ikey
            ranks[m] = _OS
            rings[m] = KeyRing(individual=ikey, group=gkey)
        rings[gd] = KeyRing(
            individual=None,
            group=gkey,
            subordinate_keys=sub_keys,
        )
        groups.append((gd, members))
        held = math.floor(size * reserve_fraction)
        reserve.update(members[size - held :] if held else ())

    return KeyMaterial(
        key_bits=key_bits,
        rings=rings,
        ranks=ranks,
        groups=tuple(groups),
        reserve=frozenset(reserve),
        fountain=fountain,
        group_key_history=history,
        owners=owners,
    )


@dataclass(frozen=True)
class StorageReport:
    per_gd: tuple[int, ...]
    per_os: int
    total: int


def uniform_storage_bits(alpha: int, beta: int, eta: int, key_bits: int) -> StorageReport:
    """Closed-form storage for ``alpha`` uniform groups of ``eta`` members.

    beta is the ordinary-sensor count and must equal alpha * eta.
    """
    if alpha < 0 or beta < 0 or eta < 0 or key_bits <= 0:
        raise ValueError("counts must be non-negative and key_bits positive")
    if beta != alpha * eta:
        raise ValueError("beta must equal alpha * eta for uniform groups")
    per_gd = (eta + 1) * key_bits
    per_os = 2 * key_bits
    total = key_bits * (alpha * (eta + 1) + 2 * beta)
    return StorageReport(per_gd=(per_gd,) * alpha, per_os=per_os, total=total)


def rekey_group(
    material: KeyMaterial, gd: int, recipients: Iterable[Key]
) -> tuple[Key, list[Ciphertext]]:
    """Rotate a group key and seal the new key under each of ``recipients``,
    in the order given.

    A node being added gets it under its individual key, and the old group
    key carries it to the existing members. After a departure it goes once
    to each surviving member, in id order, under that member's individual
    key; the old group key is never used, so the departed node learns
    nothing.
    """
    if material.ranks.get(gd) is not _GD:
        raise ValueError(f"{gd} is not a dominator")
    new = material.fountain.next_key()
    body = pack_id_key(gd, new.id, new.bits)
    sealed = [encrypt(key, _REKEY, body) for key in recipients]
    material.rings[gd].group = new
    material.group_key_history.setdefault(gd, {})[new.id] = new
    material.owners[new.id] = gd
    return new, sealed
