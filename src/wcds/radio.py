"""The radio layer: who is in range of whom, and who receives what.

Every set of protocol radios (the sensors and the base station) is one
``int`` bitmask: radio ``v`` is bit ``v + 1``, so the base station (-1) is
bit 0 and id order is bit order. Adversaries stay outside the masks, in
ascending tuples.

The radio index keeps, per radio, the mask of protocol radios and the
adversaries in its range, and the coordinates it was built from. It is built
once from the unit-disk pairs, and a radio that comes onto the field or
moves is spliced in: one distance pass over the kept coordinates finds its
neighbours, by the same rule, and only their entries change. ``reach``, the
union of a mask's neighbourhoods, is kept per whole mask and per mask byte
on the index. A splice of a protocol radio starts an empty whole-mask memo
and drops the per-byte unions at the byte positions whose radios' masks it
changed; an adversary's changes no mask and keeps both.

The air holds a round's transmissions in two parts: ``sends``, the copies
originated or replayed, in the order sent, and ``relayed``, one record per
flood in flood-key order, holding one copy of the flood and the mask of the
sensors relaying it. The transmission order is the base station's sends;
then, sensor by sensor in id order, its relays in flood-key order and then
its own sends; then the adversaries' sends. ``message_count`` counts each
relayer bit as one transmission. The envelope's ``transmitter`` is the radio
that emitted the copy: delivery reaches only the radios in its range, so an
adversary can forge every claimed field but not where a copy came from.

``deliver`` empties the air into inboxes by these rules, each stated once:

- *Floods.* Every sensor relays each flood (GD_ERR, ORP_ERR, ADOPT_CMD,
  PROMOTE_CMD; one kind, origin and sequence number) once. Each flood keeps
  the mask of the radios it has reached, starting with its origin. A round's
  copies of a flood are walked by transmitter id, ties in transmission
  order, and each reaches the radios in its range the flood has not reached.
  So the smallest transmitter wins: the copy a step working through its
  sorted inbox would act on. The next layer, ``reach(relayers)`` less what
  the flood has reached and the departed, relays next round. A relay
  becomes an envelope only for a radio whose step reads it, sent by the
  lowest relayer in that radio's range.
- *Departed sensors* receive nothing and are never marked reached, so a
  sensor that comes back while a flood passes still gets it.
- *Readers* (``protocol.DELIVERY``). A copy goes only to the parts whose
  step reads its kind, and for a ``hop1`` kind only when heard at one hop
  (its transmitter is its sender).
- *Audience.* A kind addressed to the key's ``OWNER`` goes only to the
  node owning the key it is sealed under (``KeyMaterial.owners``; the key
  id rides in the clear), and to no one when no node owns it. An
  ``INDIVIDUAL_OWNER`` kind is addressed so only under an individual key;
  under a group key it goes to every reader in range.
- *First per sender.* Of a ``first`` kind, each reader gets only the
  lowest-seq copy each sensor sends at one hop in a round. Copies claimed
  by adversaries (ids below ``BS_ID``), relays and replays are not cut.
- *Adversaries.* A ``replay`` adversary gets every copy in its range, floods
  included, in transmission order; the others get nothing.

The handlers keep every check: these rules only spare building and stepping
copies a handler would drop, or would find it has already acted on.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from numbers import Real
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

from .graph import unit_disk_graph
from .keys import KeyMaterial
from .protocol import BS_ID, DELIVERY, Audience, Envelope, flood_key
from .wire import FLOOD_KINDS, MessageKind

_TRANSMITTER = attrgetter("transmitter")

#: The bit positions set in each byte value, ascending.
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def mask_of(ids: Iterable[int]) -> int:
    """The radio mask of the protocol radios ``ids``: bit ``v + 1`` per id."""
    mask = 0
    for v in ids:
        mask |= 1 << (v + 1)
    return mask


def ids_of(mask: int) -> list[int]:
    """The protocol radios of a radio mask, in ascending id order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 2)
        mask ^= low
    return out


def kth_id(mask: int, k: int) -> int:
    """``ids_of(mask)[k]`` for ``0 <= k < mask.bit_count()``: the lowest bit
    with ``k`` set bits below it, found by bisecting on bit counts."""
    lo, hi = 0, mask.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((2 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


class RadioIndex(NamedTuple):
    """The unit-disk graph over every radio on the field: per radio, the
    mask of protocol radios and the ascending adversary ids in its range.
    ``ids`` and ``xy`` are the radios in row order and their coordinates,
    one float64 row each. ``reaches`` keeps ``reach``'s answers by whole
    mask, and ``unions``, per mask byte position, its per-byte unions by
    byte value."""

    neighbors: dict[int, tuple[int, tuple[int, ...]]]
    ids: list[int]
    xy: np.ndarray
    reaches: dict[int, int]
    unions: list[dict[int, int]]

    def reach(self, mask: int) -> int:
        """The protocol radios in range of any radio of ``mask``, kept under
        the mask: the floods from one origin cross the field in the same
        layers. A new mask is built from its non-zero bytes: byte ``b`` at
        byte ``i`` adds the union of its radios' neighbourhoods, built on
        first use and kept under ``b`` in ``unions[i]``."""
        out = self.reaches.get(mask)
        if out is not None:
            return out
        neighbors, unions = self.neighbors, self.unions
        out = 0
        for i, b in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
            if b:
                kept = unions[i]
                union = kept.get(b)
                if union is None:
                    union = 0
                    for j in _BYTE_BITS[b]:
                        union |= neighbors[8 * i + j - 1][0]
                    kept[b] = union
                out |= union
        self.reaches[mask] = out
        return out


def build_index(positions: dict[int, tuple[float, float]], radius: float) -> RadioIndex:
    """The radio index of the radios at ``positions``."""
    ids = sorted(positions)
    spots = [positions[v] for v in ids]
    src, dst = unit_disk_graph(spots, radius).pairs
    # Adversary ids sort first: pairs whose dst is past them go into the
    # masks, one little-endian row of bytes per radio, and the rest into the
    # adversary tuples, in id order.
    split = bisect_left(ids, BS_ID)
    width = (ids[-1] + 9) // 8  # bytes up to the highest id's bit, v + 1
    listens = dst >= split
    bits = np.asarray(ids)[dst[listens]] + 1
    rows = np.zeros((len(ids), width), np.uint8)
    np.bitwise_or.at(rows, (src[listens], bits >> 3), np.left_shift(1, bits & 7).astype(np.uint8))
    raw = memoryview(rows).cast("B")  # rows in place, a row copied at a time
    advs: dict[int, list[int]] = {}
    for i, a in zip(src[~listens].tolist(), dst[~listens].tolist()):
        advs.setdefault(i, []).append(ids[a])
    neighbors = {
        v: (int.from_bytes(raw[i * width : (i + 1) * width], "little"), tuple(advs.get(i, ())))
        for i, v in enumerate(ids)
    }
    xy = np.array(spots, np.float64).reshape(-1, 2)
    return RadioIndex(neighbors, ids, xy, {}, [{} for _ in range(width)])


def spot(position) -> tuple[float, float]:
    """``position`` as two floats; ValueError unless it is exactly two finite
    numbers, booleans not counting as numbers."""
    try:
        x, y = position
    except (TypeError, ValueError):
        x = y = None
    if not all(isinstance(c, Real) and not isinstance(c, bool) for c in (x, y)):
        raise ValueError(f"a position is two numbers, got {position!r}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("positions must be finite")
    return float(x), float(y)


def splice(index: RadioIndex, radius: float, radio: int, position: tuple[float, float]) -> RadioIndex:
    """``index`` with ``radio`` taken off the field, if it is on it, and put
    at ``position``. Only the radio's row and its neighbours' entries
    change, in place. The neighbours are found in one distance pass over the
    kept coordinates under ``graph._disk_graph``'s rule,
    ``dx*dx + dy*dy <= r*r`` in float64, so the result equals a rebuild. A
    protocol radio's splice starts an empty whole-mask memo and drops the
    per-byte unions at the byte positions of the radio and of its old and
    new neighbours, the radios whose masks change; an adversary's keeps
    both caches."""
    x, y = position
    neighbors, ids, xy, unions = index.neighbors, index.ids, index.xy, index.unions
    bit = 0 if radio < BS_ID else mask_of((radio,))
    changed = bit  # the protocol radios whose masks change
    if radio in neighbors:  # a move: off the field first
        listeners, adversaries = neighbors.pop(radio)
        changed |= listeners
        for u in (*adversaries, *ids_of(listeners)):
            near, advs = neighbors[u]
            if radio < BS_ID:
                neighbors[u] = (near, tuple(a for a in advs if a != radio))
            else:
                neighbors[u] = (near & ~bit, advs)
        row = ids.index(radio)
        xy[row] = x, y
    else:
        row = len(ids)
        ids.append(radio)
        xy = np.append(xy, [[x, y]], axis=0)
    r = float(radius)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = xy[:, 0] - x
        dy = xy[:, 1] - y
        hit = np.flatnonzero(dx * dx + dy * dy <= r * r)
    near = sorted(ids[j] for j in hit.tolist() if j != row)
    split = bisect_left(near, BS_ID)
    for u in near:
        listeners, adversaries = neighbors[u]
        if radio < BS_ID:
            neighbors[u] = (listeners, tuple(sorted((*adversaries, radio))))
        else:
            neighbors[u] = (listeners | bit, adversaries)
    neighbors[radio] = (mask_of(near[split:]), tuple(near[:split]))
    if not bit:
        return index._replace(xy=xy)
    changed |= neighbors[radio][0]
    unions += [{} for _ in range(len(unions), (changed.bit_length() + 7) // 8)]  # a new top byte
    for v in ids_of(changed):
        unions[(v + 1) >> 3].clear()
    return index._replace(xy=xy, reaches={})


#: Per (kind, heard at one hop), the parts whose steps read it.
READERS = {
    (kind, hop1): tuple(part for part, kinds in DELIVERY.items() if kind in kinds and (hop1 or not kinds[kind].hop1))
    for kind in MessageKind
    for hop1 in (True, False)
}

#: Per kind, its audience, and the kinds of which a reader gets each
#: sensor's first hop-1 copy alone.
_AUDIENCES = {kind: reading.audience for readings in DELIVERY.values() for kind, reading in readings.items()}
_FIRSTS = frozenset(kind for readings in DELIVERY.values() for kind, reading in readings.items() if reading.first)
_EVERYONE, _INDIVIDUAL_OWNER = Audience.EVERYONE, Audience.INDIVIDUAL_OWNER


def audience(env: Envelope, keys: KeyMaterial) -> int:
    """The mask of the radios ``env`` is addressed to: every radio (-1, all
    bits set) unless its kind and key name one reader, that reader, or none
    when no node owns the key."""
    kind_audience = _AUDIENCES.get(env.kind, _EVERYONE)
    if kind_audience is _EVERYONE:
        return -1
    owner = keys.owners.get(env.ciphertext.key_id)
    if owner is None:
        return 0
    if kind_audience is _INDIVIDUAL_OWNER and keys.rings[owner].individual is None:
        return -1  # a dominator's group key, held by members no index keeps
    return 1 << (owner + 1)


def transmissions(
    sends: list[Envelope],
    relayed: dict[tuple, tuple[Envelope, int]],
    near: tuple[int, tuple[int, ...]] | None = None,
) -> list[Envelope]:
    """The air as one list in transmission order, or only the copies whose
    transmitter is in ``near``, one radio's entry of
    ``RadioIndex.neighbors``."""
    owed: dict[int, list[Envelope]] = {}
    for (sender, kind, ct, seq, _), relayers in relayed.values():
        for r in ids_of(relayers if near is None else relayers & near[0]):
            owed.setdefault(r, []).append(Envelope(sender, kind, ct, seq, r))
    queue = sorted(owed, reverse=True)
    out: list[Envelope] = []
    for env in sends:
        t = env.transmitter
        if near is not None and not (t in near[1] if t < BS_ID else near[0] >> (t + 1) & 1):
            continue
        # A sensor's relays go ahead of its own sends and of every later
        # sender's; adversaries (ids below the base station's) send last.
        while queue and (t < BS_ID or t >= queue[-1]):
            out += owed[queue.pop()]
        out.append(env)
    for r in reversed(queue):
        out += owed[r]
    return out


def deliver(
    sends: list[Envelope],
    relayed: dict[tuple, tuple[Envelope, int]],
    reached: dict[tuple, int],
    index: RadioIndex,
    roles: dict,
    keys: KeyMaterial,
    replayers: Iterable[int],
) -> tuple[dict[int, list[Envelope]], dict[tuple, tuple[Envelope, int]]]:
    """Empty the air (``sends`` and ``relayed``) by the rules in the module
    docstring: the inboxes of the radios whose steps read each copy and of
    the ``replayers``, and the next round's relay records. ``reached`` maps
    each flood key to the mask of radios the flood has reached and is
    updated in place. ``roles`` maps each part a radio plays (a rank,
    ``BS_ID``, or None for departed sensors) to the mask of the radios
    playing it, and ``keys`` names the owner of every key."""
    neighbors = index.neighbors
    left = roles[None]
    reads = {}
    for key, parts in READERS.items():
        mask = 0
        for part in parts:
            mask |= roles[part]
        reads[key] = mask
    inboxes = {adv: transmissions(sends, relayed, neighbors[adv]) for adv in replayers}
    floods: dict[tuple, list[Envelope]] = {}
    firsts: set[tuple[MessageKind, int]] = set()  # first-per-sender copies delivered
    for env in sends:
        kind = env.kind
        if kind in FLOOD_KINDS:
            floods.setdefault(flood_key(env), []).append(env)
            continue
        hop1 = env.transmitter == env.sender
        if hop1 and kind in _FIRSTS and env.sender >= 0:
            # A sensor's sends are in seq order, so its first copy is its lowest.
            if (kind, env.sender) in firsts:
                continue
            firsts.add((kind, env.sender))
        readers = reads[kind, hop1] & audience(env, keys)
        for rcv in ids_of(neighbors[env.transmitter][0] & readers):
            inboxes.setdefault(rcv, []).append(env)
    relays: dict[tuple, tuple[Envelope, int]] = {}
    # With no copy sent as such, the relayed floods are all, in key order.
    for key in sorted(floods.keys() | relayed.keys()) if floods else relayed:
        copies = floods.get(key, [])
        flood_reached = reached.get(key)
        if flood_reached is None:  # the flood's first round in the air: only its origin sent it
            # (an adversary sending under its own id has no bit to set)
            flood_reached = mask_of(e.sender for e in copies if e.transmitter == e.sender >= BS_ID)
        start = flood_reached
        kind = key[0]
        # Copies sent as such (the origin's, replays) come from the origin or
        # an adversary, whose ids sort ahead of every sensor relaying the flood.
        copies.sort(key=_TRANSMITTER)
        for env in copies:
            fresh = neighbors[env.transmitter][0] & ~(flood_reached | left)
            flood_reached |= fresh
            readers = reads[kind, env.transmitter == env.sender] & audience(env, keys)
            for rcv in ids_of(fresh & readers):
                inboxes.setdefault(rcv, []).append(env)
        if key in relayed:
            copy, relayers = relayed[key]
            fresh = index.reach(relayers) & ~(flood_reached | left)
            flood_reached |= fresh
            sender, kind, ct, seq, _ = copy
            # A relayed copy is never heard at one hop: the flood reached its
            # origin first, so the origin relays nothing.
            readers = fresh & reads[kind, False]
            if readers:
                readers &= audience(copy, keys)
            # Of the copies a reader hears, the smallest relayer's wins: the
            # lowest bit of the relayers in its range.
            for rcv in ids_of(readers):
                heard = relayers & neighbors[rcv][0]
                winner = (heard & -heard).bit_length() - 2
                inboxes.setdefault(rcv, []).append(Envelope(sender, kind, ct, seq, winner))
        else:
            copy = copies[0]
        reached[key] = flood_reached
        relaying = (flood_reached ^ start) & ~1  # newly reached, less the base station's bit 0
        if relaying:
            relays[key] = (copy, relaying)
    return inboxes, relays
