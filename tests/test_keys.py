import copy
import dataclasses
import hashlib
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wcds.keys
from conftest import can_decrypt
from wcds.keys import (
    ALLOWED_KEY_BITS,
    AuthenticationFailure,
    Ciphertext,
    Key,
    KeyFountain,
    MalformedCiphertext,
    Rank,
    decrypt,
    encrypt,
    group_sizes_for,
    open_as,
    provision,
    rekey_group,
    storage_bits,
    uniform_storage_bits,
)
from wcds.sim import PlacementModel, assemble_outcome, deploy, late_join, leave, run, step
from wcds.wire import (
    FLOOD_KINDS,
    MessageKind,
    pack_id,
    pack_id_key,
    pack_ids,
    unpack_id,
    unpack_id_key,
    unpack_ids,
)


class TestWire:
    def test_id_round_trip(self):
        for v in (0, 1, -1, -2, 10**12, -(10**12)):
            assert unpack_id(pack_id(v)) == v

    def test_id_list_round_trip(self):
        for ids in ((), (5,), (3, -1, 7, 7)):
            assert unpack_ids(pack_ids(ids)) == ids

    def test_id_key_round_trip(self):
        node, key_id, bits = -1, 42, b"\x00\xffkey"
        assert unpack_id_key(pack_id_key(node, key_id, bits)) == (node, key_id, bits)

    def test_truncation_rejected(self):
        with pytest.raises(ValueError):
            unpack_id(b"\x00" * 7)
        with pytest.raises(ValueError):
            unpack_ids(pack_ids([1, 2])[:-3])
        with pytest.raises(ValueError, match="truncated id list"):
            unpack_ids(b"\x00" * 3)
        with pytest.raises(ValueError):
            unpack_id_key(b"\x00" * 9)

    def test_kind_priorities(self):
        # key installs must sort before the approvals that depend on them
        assert MessageKind.ADOPT_CMD < MessageKind.REKEY < MessageKind.JOIN_APRV
        assert FLOOD_KINDS == {
            MessageKind.GD_ERR,
            MessageKind.ORP_ERR,
            MessageKind.ADOPT_CMD,
            MessageKind.PROMOTE_CMD,
        }


def keystream_by_blocks(key, length):
    """The keystream as it is defined: keyed blake2b blocks of counters 0,
    1, ... concatenated and cut to ``length``, computed afresh."""
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.blake2b(counter.to_bytes(8, "big"), key=key.bits[:64], digest_size=64).digest()
        counter += 1
    return out[:length]


#: sha256 over (key id, payload, tag) of the ciphertexts that
#: ``TestCipher.test_fixed_seals_match_the_recorded_digest`` seals, taken
#: before keys kept their first keystream block.
SEALED_DIGEST = "ac2552c11b9620bfa21307a0f1ea6492fa1cdf5c8ec8209396908567d91298d1"


class TestCipher:
    def key(self, ident=0, seed=0):
        fountain = KeyFountain(seed, 128)
        k = fountain.next_key()
        for _ in range(ident):
            k = fountain.next_key()
        return k

    def test_round_trip(self):
        k = self.key()
        ct = encrypt(k, MessageKind.JOIN_REQ, b"hello")
        assert decrypt(k, ct) == (MessageKind.JOIN_REQ, b"hello")

    def test_deterministic_bytes(self):
        a = encrypt(self.key(), MessageKind.LEAVE, b"x")
        b = encrypt(self.key(), MessageKind.LEAVE, b"x")
        assert a == b

    def test_wrong_key_fails(self):
        ct = encrypt(self.key(0), MessageKind.JOIN_REQ, b"body")
        with pytest.raises(AuthenticationFailure):
            decrypt(self.key(1), ct)

    def test_same_id_different_bits_fails(self):
        # a forged key with a guessed id still fails the tag check
        ct = encrypt(self.key(0, seed=1), MessageKind.JOIN_REQ, b"body")
        with pytest.raises(AuthenticationFailure):
            decrypt(self.key(0, seed=2), ct)

    def test_tampered_payload_fails(self):
        k = self.key()
        ct = encrypt(k, MessageKind.JOIN_REQ, b"body")
        bent = type(ct)(ct.key_id, ct.payload[:-1] + b"\x00", ct.auth_tag)
        if bent.payload == ct.payload:
            bent = type(ct)(ct.key_id, ct.payload[:-1] + b"\x01", ct.auth_tag)
        with pytest.raises(AuthenticationFailure):
            decrypt(k, bent)

    def test_malformed_inputs(self):
        k = self.key()
        with pytest.raises(MalformedCiphertext):
            decrypt(k, b"junk")
        ct = encrypt(k, MessageKind.JOIN_REQ, b"")
        with pytest.raises(MalformedCiphertext):
            decrypt(k, type(ct)(ct.key_id, b"", b""))
        with pytest.raises(MalformedCiphertext, match="must be bytes"):
            decrypt(k, type(ct)(ct.key_id, "text", ct.auth_tag))

    def test_unknown_kind_byte(self):
        k = self.key()
        ct = encrypt(k, 200, b"")
        with pytest.raises(MalformedCiphertext):
            decrypt(k, ct)

    def test_every_kind_byte_reads_as_the_enum_does(self):
        # decrypt reads the kind byte off a table; every byte must give the
        # member MessageKind(byte) gives, or the same error for no member.
        k = self.key()
        for b in range(256):
            ct = encrypt(k, b, b"body")
            try:
                expected = MessageKind(b)
            except ValueError:
                with pytest.raises(MalformedCiphertext, match=rf"^unknown kind byte {b}$"):
                    decrypt(k, ct)
                continue
            kind, body = decrypt(k, ct)
            assert kind is expected and body == b"body"

    def test_can_decrypt(self):
        k = self.key()
        ct = encrypt(k, MessageKind.LEAVE, b"")
        assert can_decrypt(k, ct)
        assert not can_decrypt(self.key(1), ct)

    @given(
        kind=st.sampled_from(list(MessageKind)),
        body=st.binary(max_size=200),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, kind, body, seed):
        k = KeyFountain(seed, 128).next_key()
        assert decrypt(k, encrypt(k, kind, body)) == (kind, body)

    # Each key object keeps its keystream's first block; the bytes it seals
    # and opens are those of the keystream computed afresh.
    @pytest.mark.parametrize("bits", ALLOWED_KEY_BITS)
    def test_kept_block_gives_the_same_keystream(self, bits):
        fountain = KeyFountain(bits, bits)
        fresh, kept = fountain.next_key(), fountain.next_key()
        assert fresh._first_block is None
        wcds.keys._keystream(kept, 1)
        assert kept._first_block == keystream_by_blocks(kept, 64)
        for length in range(201):  # one block up to 64, more past it
            assert wcds.keys._keystream(kept, length) == keystream_by_blocks(kept, length), length
            first_use = Key(fresh.id, fresh.bits)  # computes its block at this length
            assert wcds.keys._keystream(first_use, length) == keystream_by_blocks(fresh, length), length

    def test_fixed_seals_match_the_recorded_digest(self):
        out = hashlib.sha256()
        kinds = list(MessageKind)
        for bits in ALLOWED_KEY_BITS:
            fountain = KeyFountain(bits, bits)
            for _ in range(3):
                key = fountain.next_key()
                for n in range(201):
                    body = bytes((n * 31 + j) % 256 for j in range(n))
                    for _ in range(2):  # the second seal reads the kept block
                        ct = encrypt(key, kinds[n % len(kinds)], body)
                        out.update(ct.key_id.to_bytes(8, "big") + ct.payload + ct.auth_tag)
        assert out.hexdigest() == SEALED_DIGEST

    def test_kept_block_is_invisible(self):
        key = KeyFountain(3, 128).next_key()
        plain = Key(key.id, key.bits)
        ct = encrypt(key, MessageKind.LEAVE, b"body")
        assert key._first_block is not None and plain._first_block is None
        assert key == plain and hash(key) == hash(plain) and repr(key) == repr(plain)
        assert len({key, plain}) == 1
        assert dataclasses.replace(key)._first_block is None
        for twin in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key)):
            assert twin == key and hash(twin) == hash(key)
            assert twin._first_block == key._first_block
            assert decrypt(twin, ct) == (MessageKind.LEAVE, b"body")
            assert encrypt(twin, MessageKind.LEAVE, b"body") == ct


class TestOpenAs:
    def key(self, ident=0):
        return TestCipher().key(ident)

    def test_right_key_and_kind_returns_body(self):
        k = self.key()
        assert open_as(k, encrypt(k, MessageKind.LEAVE, b"body"), MessageKind.LEAVE) == b"body"
        assert open_as(k, encrypt(k, MessageKind.LEAVE, b""), MessageKind.LEAVE) == b""

    def test_no_key(self):
        ct = encrypt(self.key(), MessageKind.LEAVE, b"body")
        assert open_as(None, ct, MessageKind.LEAVE) is None

    def test_foreign_key_id_skips_the_cipher(self, monkeypatch):
        ct = encrypt(self.key(0), MessageKind.LEAVE, b"body")

        def cipher_ran(*args):
            raise AssertionError("cipher ran")

        # decrypt itself refuses a foreign id before the tag check, so both
        # the entry point and the tag are stubbed.
        monkeypatch.setattr(wcds.keys, "decrypt", cipher_ran)
        monkeypatch.setattr(wcds.keys, "_tag", cipher_ran)
        assert open_as(self.key(1), ct, MessageKind.LEAVE) is None

    def test_bad_tag(self):
        k = self.key()
        ct = encrypt(k, MessageKind.LEAVE, b"body")
        bent = type(ct)(ct.key_id, ct.payload, bytes(b ^ 1 for b in ct.auth_tag))
        assert open_as(k, bent, MessageKind.LEAVE) is None

    def test_malformed_or_other_kind(self):
        k = self.key()
        assert open_as(k, Ciphertext(k.id, b"", b""), MessageKind.LEAVE) is None
        assert open_as(k, encrypt(k, MessageKind.JOIN_REQ, b"body"), MessageKind.LEAVE) is None


class TestOpenMemo:
    """``open_as`` runs the cipher once per key bits on one ciphertext
    object; what it remembers never opens anything else."""

    def key(self, ident=0, seed=0):
        return TestCipher().key(ident, seed)

    def opened(self, k, kind=MessageKind.LEAVE, body=b"body"):
        ct = encrypt(k, kind, body)
        assert open_as(k, ct, kind) == body
        return ct

    def test_each_key_runs_the_cipher_once_per_copy(self, monkeypatch):
        k, other = self.key(0, seed=1), self.key(0, seed=2)
        ct = encrypt(k, MessageKind.LEAVE, b"body")
        calls = []
        real = wcds.keys.decrypt

        def counted(key, c):
            calls.append(key)
            return real(key, c)

        monkeypatch.setattr(wcds.keys, "decrypt", counted)
        for _ in range(3):
            assert open_as(k, ct, MessageKind.LEAVE) == b"body"
            assert open_as(k, ct, MessageKind.JOIN_REQ) is None
            assert open_as(other, ct, MessageKind.LEAVE) is None
        assert calls == [k, other]
        # An equal copy that is another object runs the cipher again.
        assert open_as(k, encrypt(k, MessageKind.LEAVE, b"body"), MessageKind.LEAVE) == b"body"
        assert calls == [k, other, k]

    def test_flipped_bit_after_an_open_still_fails(self):
        k = self.key()
        ct = self.opened(k)
        for field_name in ("payload", "auth_tag"):
            data = getattr(ct, field_name)
            for bit in range(8 * len(data)):
                bent = bytearray(data)
                bent[bit // 8] ^= 1 << (bit % 8)
                parts = {"payload": ct.payload, "auth_tag": ct.auth_tag, field_name: bytes(bent)}
                copy = Ciphertext(ct.key_id, **parts)
                assert open_as(k, copy, MessageKind.LEAVE) is None, (field_name, bit)
        assert open_as(k, ct, MessageKind.LEAVE) == b"body"

    def test_same_id_other_bits_after_an_open_still_fails(self):
        k, forged = self.key(0, seed=1), self.key(0, seed=2)
        assert forged.id == k.id and forged.bits != k.bits
        ct = self.opened(k)
        assert open_as(forged, ct, MessageKind.LEAVE) is None
        # A failure remembered for the forged key does not shadow the real one.
        assert open_as(k, ct, MessageKind.LEAVE) == b"body"
        assert open_as(forged, ct, MessageKind.LEAVE) is None

    def test_wrong_kind_after_an_open_still_fails(self):
        k = self.key()
        ct = self.opened(k)
        for kind in MessageKind:
            if kind is not MessageKind.LEAVE:
                assert open_as(k, ct, kind) is None
        assert open_as(k, ct, MessageKind.LEAVE) == b"body"

    def test_memo_is_invisible_to_equality_and_hash(self):
        k, forged = self.key(0, seed=1), self.key(0, seed=2)
        opened = self.opened(k)
        failed, fresh = (encrypt(k, MessageKind.LEAVE, b"body") for _ in range(2))
        assert open_as(forged, failed, MessageKind.LEAVE) is None
        assert opened == failed == fresh
        assert hash(opened) == hash(failed) == hash(fresh)
        assert len({opened, failed, fresh}) == 1
        assert "_opened" not in repr(opened)
        # The memo is no constructor argument, and a replaced copy starts empty.
        assert dataclasses.replace(opened, auth_tag=bytes(8))._opened == {}

    def test_pickled_world_runs_to_the_same_outcome(self):
        material = provision([9] * 4, reserve_fraction=0.2, seed=5)
        world = deploy(material, PlacementModel("group_clustered", 70.0, 70.0, 25.0), seed=6)
        for _ in range(5):
            step(world)
        in_air = [env.ciphertext for env in world.inflight if isinstance(env.ciphertext, Ciphertext)]
        assert any(ct._opened for ct in in_air)
        twin = pickle.loads(pickle.dumps(world))
        for w in (world, twin):
            run(w)
            for v in sorted(v for v, st in w.states.items() if st.rank is Rank.OS)[:2]:
                leave(w, v)
            for v in sorted(material.reserve)[:3]:
                late_join(w, v)
            run(w)
        assert twin.events == world.events
        assert assemble_outcome(twin) == assemble_outcome(world)


class TestFountain:
    def test_ascending_ids(self):
        f = KeyFountain(3, 128)
        keys = [f.next_key() for _ in range(5)]
        assert [k.id for k in keys] == [0, 1, 2, 3, 4]
        assert all(len(k.bits) == 16 for k in keys)

    def test_deterministic_across_instances(self):
        a = [KeyFountain(9, 64).next_key() for _ in range(1)]
        b = [KeyFountain(9, 64).next_key() for _ in range(1)]
        assert a == b

    def test_distinct_bits(self):
        f = KeyFountain(0, 128)
        seen = {f.next_key().bits for _ in range(1000)}
        assert len(seen) == 1000


class TestGroupSizes:
    def test_exact_splits(self):
        assert group_sizes_for(100, 9) == [9] * 10
        assert group_sizes_for(101, 9) == [9] * 10 + [0]
        assert group_sizes_for(60, 5) == [5] * 10
        assert group_sizes_for(7, 3) == [3, 2]
        assert group_sizes_for(0, 9) == []
        assert group_sizes_for(5, 0) == [0] * 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            group_sizes_for(-1, 9)
        with pytest.raises(ValueError):
            group_sizes_for(5, -1)

    @given(
        n=st.integers(min_value=0, max_value=500),
        eta=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_partition_identities(self, n, eta):
        sizes = group_sizes_for(n, eta)
        assert sum(sizes) + len(sizes) == n
        assert all(0 <= s <= eta for s in sizes)
        assert len(sizes) == math.ceil(n / (eta + 1))


class TestProvision:
    def test_sequential_layout(self):
        m = provision([2, 2])
        assert m.groups == ((0, (1, 2)), (3, (4, 5)))
        assert m.ranks[0] is Rank.GD
        assert m.ranks[1] is Rank.OS

    def test_ring_contents(self):
        m = provision([2, 2])
        gd = m.rings[0]
        assert gd.individual is None
        assert sorted(gd.subordinate_keys) == [1, 2]
        assert len(gd.keys()) == 3
        os_ring = m.rings[1]
        assert len(os_ring.keys()) == 2
        assert os_ring.group == gd.group

    def test_groups_do_not_share_keys(self):
        m = provision([2, 2])
        assert m.group_keys[0] != m.group_keys[3]
        ct = encrypt(m.group_keys[0], MessageKind.JOIN_APRV, b"in group 0")
        assert not can_decrypt(m.rings[4].group, ct)
        assert can_decrypt(m.rings[1].group, ct)

    def test_every_key_unique_at_scale(self):
        m = provision(group_sizes_for(1000, 9))
        seen_bits = set()
        seen_ids = set()
        for ring in m.rings.values():
            for k in ring.keys():
                seen_bits.add(k.bits)
                seen_ids.add(k.id)
        assert len(seen_ids) == 1000
        assert len(seen_bits) == 1000

    def test_reserve_marks_group_tails(self):
        m = provision([4, 4], reserve_fraction=0.5)
        assert m.reserve == {3, 4, 8, 9}
        assert set(m.deployed_nodes()) == {0, 1, 2, 5, 6, 7}
        # reserves are keyed like everyone else
        assert len(m.rings[3].keys()) == 2

    def test_determinism(self):
        a = provision([3, 3], seed=5)
        b = provision([3, 3], seed=5)
        assert a.individual_keys == b.individual_keys
        assert a.group_keys == b.group_keys
        c = provision([3, 3], seed=6)
        assert a.group_keys[0] != c.group_keys[0]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            provision([2], key_bits=100)
        with pytest.raises(ValueError):
            provision([2], reserve_fraction=1.0)
        with pytest.raises(ValueError):
            provision([-1])


class TestStorage:
    def test_uniform_closed_form(self):
        report = uniform_storage_bits(5, 50, 10, 128)
        assert report.per_gd == (1408,) * 5
        assert report.per_os == 256
        assert report.total == 19840

    def test_closed_form_matches_provisioned_rings(self):
        m = provision([10] * 5)
        assert storage_bits(m) == uniform_storage_bits(5, 50, 10, 128)

    def test_ragged_groups(self):
        m = provision([3, 1])
        report = storage_bits(m)
        assert report.per_gd == (4 * 128, 2 * 128)
        assert report.per_os == 256
        assert report.total == 4 * 128 + 2 * 128 + 4 * 2 * 128

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            uniform_storage_bits(5, 49, 10, 128)
        with pytest.raises(ValueError):
            uniform_storage_bits(-1, 0, 0, 128)


class TestRekey:
    def test_join_mode_reaches_old_holders_and_joiner(self):
        m = provision([2])
        old = m.group_keys[0]
        new, sealed = rekey_group(m, 0, [m.individual_keys[1], old])
        assert new.id == 3
        assert [ct.key_id for ct in sealed] == [m.individual_keys[1].id, old.id]

        kind, body = decrypt(m.individual_keys[1], sealed[0])
        assert kind is MessageKind.REKEY
        assert unpack_id_key(body) == (0, new.id, new.bits)
        kind, body = decrypt(old, sealed[1])
        assert unpack_id_key(body) == (0, new.id, new.bits)

        assert m.group_keys[0] == new
        assert m.rings[0].group == new

    def test_leave_mode_excludes_departed(self):
        m = provision([3])
        old = m.group_keys[0]
        new, sealed = rekey_group(m, 0, [m.individual_keys[1], m.individual_keys[3]])
        assert [ct.key_id for ct in sealed] == [m.individual_keys[1].id, m.individual_keys[3].id]
        for ct in sealed:
            assert not can_decrypt(old, ct)
            assert not can_decrypt(m.individual_keys[2], ct)
        kind, body = decrypt(m.individual_keys[3], sealed[1])
        assert unpack_id_key(body)[1] == new.id

    def test_history_keeps_superseded_keys(self):
        m = provision([2])
        old = m.group_keys[0]
        new, _ = rekey_group(m, 0, [m.individual_keys[1], old])
        assert m.group_key_for(0, old.id) == old
        assert m.group_key_for(0, new.id) == new
        assert m.group_key_for(0, 999) is None
        assert m.group_key_for(7, old.id) is None

    def test_ids_keep_ascending_across_rotations(self):
        m = provision([2])
        first, _ = rekey_group(m, 0, [m.individual_keys[1]])
        second, _ = rekey_group(m, 0, [m.individual_keys[2]])
        assert first.id < second.id

    def test_invalid_targets(self):
        m = provision([2])
        with pytest.raises(ValueError):
            rekey_group(m, 1, [m.individual_keys[2]])


def rebuilt_owners(m):
    """``KeyMaterial.owners`` rebuilt from the individual keys and every group
    key each dominator has held."""
    owners = {key.id: node for node, key in m.individual_keys.items()}
    for gd, history in m.group_key_history.items():
        owners.update((key_id, gd) for key_id in history)
    return owners


class TestOwners:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=6),
        reserve=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 1000),
        picks=st.lists(st.integers(0, 10**6), max_size=12),
    )
    def test_owners_match_a_rebuild(self, sizes, reserve, seed, picks):
        m = provision(sizes, reserve_fraction=reserve, seed=seed)
        assert m.owners == rebuilt_owners(m)
        assert len(m.owners) == len(m.all_nodes())  # one key per node, and ids never repeat
        gds = [gd for gd, _ in m.groups]
        for pick in picks:
            gd, members = m.groups[pick % len(gds)]
            rekey_group(m, gd, [m.individual_keys[v] for v in members[: pick % 3]])
            assert m.owners == rebuilt_owners(m)
        assert len(m.owners) == len(m.all_nodes()) + len(picks)
        back = pickle.loads(pickle.dumps(m))
        assert back.owners == m.owners == rebuilt_owners(back)
        if picks:  # a copy keeps filling its own owners in
            new, _ = rekey_group(back, gds[0], [])
            assert back.owners[new.id] == gds[0] and new.id not in m.owners


class TestCompromiseScope:
    def test_one_ring_opens_only_its_own_links(self):
        m = provision([2, 2])
        stolen = m.rings[1].keys()  # individual of node 1 plus group key of gd 0
        samples = {
            "own_unicast": encrypt(m.individual_keys[1], MessageKind.JOIN_REQ, b"a"),
            "own_group": encrypt(m.group_keys[0], MessageKind.JOIN_APRV, b"b"),
            "peer_unicast": encrypt(m.individual_keys[2], MessageKind.JOIN_REQ, b"c"),
            "other_group": encrypt(m.group_keys[3], MessageKind.JOIN_APRV, b"d"),
            "other_unicast": encrypt(m.individual_keys[4], MessageKind.JOIN_REQ, b"e"),
        }
        opened = {
            name
            for name, ct in samples.items()
            if any(can_decrypt(k, ct) for k in stolen)
        }
        assert opened == {"own_unicast", "own_group"}
