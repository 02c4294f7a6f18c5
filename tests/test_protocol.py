import pytest

import wcds.keys
from conftest import can_decrypt, make_world, record_transmissions
from wcds.keys import (
    Ciphertext,
    Rank,
    decrypt,
    encrypt,
    provision,
)
from wcds.protocol import (
    APPROVAL_TIMEOUT,
    BS_ID,
    MATCH_WINDOW,
    BSState,
    Envelope,
    NodeState,
    Phase,
    bs_step,
    gd_step,
    os_step,
)
from wcds.sim import assemble_outcome, run, verify_outcome
from wcds.wire import MessageKind, pack_id, pack_id_key, pack_ids, unpack_ids


def os_state(material, node):
    return NodeState(id=node, rank=material.ranks[node], ring=material.rings[node])


def gd_state(material, gd):
    return NodeState(id=gd, rank=material.ranks[gd], ring=material.rings[gd])


def env(sender, kind, ct, seq=1, transmitter=None):
    return Envelope(sender, kind, ct, seq, sender if transmitter is None else transmitter)


class TestOsAnnounce:
    def test_announces_once_then_waits(self):
        m = provision([1])
        st = os_state(m, 1)
        st, out = os_step(st, [], 0)
        assert [e.kind for e in out] == [MessageKind.JOIN_REQ]
        assert st.phase is Phase.AWAITING
        assert can_decrypt(m.individual_keys[1], out[0].ciphertext)
        st, out = os_step(st, [], 1)
        assert out == []

    def test_orphan_timeout_floods_observations(self):
        m = provision([1])
        st = os_state(m, 1)
        st, _ = os_step(st, [], 0)
        st.neighbor_dominators.add(7)
        st, out = os_step(st, [], APPROVAL_TIMEOUT)
        assert st.phase is Phase.ORPHAN
        assert [e.kind for e in out] == [MessageKind.GD_ERR]
        kind, body = decrypt(m.individual_keys[1], out[0].ciphertext)
        assert kind is MessageKind.GD_ERR
        assert unpack_ids(body) == (7,)

    def test_left_node_is_silent(self):
        m = provision([1])
        st = os_state(m, 1)
        st.phase = Phase.LEFT
        st, out = os_step(st, [], 0)
        assert out == []
        assert st.join_round is None


class TestOsApproval:
    def approve_ct(self, m, gd, member):
        return encrypt(m.group_keys[gd], MessageKind.JOIN_APRV, pack_ids([gd, member]))

    def awaiting(self, m, node):
        st = os_state(m, node)
        st, _ = os_step(st, [], 0)
        return st

    def test_genuine_approval_joins(self):
        m = provision([1])
        st = self.awaiting(m, 1)
        st, _ = os_step(st, [env(0, MessageKind.JOIN_APRV, self.approve_ct(m, 0, 1))], 1)
        assert st.phase is Phase.JOINED
        assert st.dominator == 0

    def test_relayed_approval_rejected(self):
        # decrypts fine, but the transmitting radio is not the approver
        m = provision([1])
        st = self.awaiting(m, 1)
        e = env(0, MessageKind.JOIN_APRV, self.approve_ct(m, 0, 1), transmitter=-2)
        st, _ = os_step(st, [e], 1)
        assert st.phase is Phase.AWAITING
        assert st.dominator is None
        assert st.neighbor_dominators == set()

    def test_sender_relabel_rejected(self):
        # a captured approval rebroadcast under a different claimed sender
        # passes the one-hop test but the id sealed inside disagrees
        m = provision([1, 1])
        st = self.awaiting(m, 1)
        e = env(2, MessageKind.JOIN_APRV, self.approve_ct(m, 0, 1))
        st, _ = os_step(st, [e], 1)
        assert st.phase is Phase.AWAITING

    def test_foreign_approval_marks_neighbor_dominator(self):
        m = provision([1, 1])
        st = self.awaiting(m, 1)
        e = env(2, MessageKind.JOIN_APRV, self.approve_ct(m, 2, 3))
        st, _ = os_step(st, [e], 1)
        assert st.phase is Phase.AWAITING
        assert st.neighbor_dominators == {2}

    def test_forged_approval_with_junk_tag_rejected(self):
        m = provision([1])
        gkey = m.group_keys[0]
        unopenable = [
            Ciphertext(gkey.id, b"\x00" * 17, b"\x00" * 8),  # junk tag
            encrypt(gkey, 200, pack_ids([0, 1])),  # no such kind
            encrypt(gkey, MessageKind.JOIN_REQ, pack_ids([0, 1])),  # another kind
        ]
        for ct in unopenable:
            st = self.awaiting(m, 1)
            st, _ = os_step(st, [env(-2, MessageKind.JOIN_APRV, ct)], 1)
            assert st.phase is Phase.AWAITING
            # a hop-1 approval that does not open under our group key counts
            # as a dominator of some other group in range
            assert st.neighbor_dominators == {-2}

    def test_second_approval_ignored(self):
        m = provision([1, 1])
        st = self.awaiting(m, 1)
        st, _ = os_step(st, [env(0, MessageKind.JOIN_APRV, self.approve_ct(m, 0, 1))], 1)
        st, _ = os_step(st, [env(0, MessageKind.JOIN_APRV, self.approve_ct(m, 0, 1), seq=2)], 2)
        assert st.dominator == 0


class TestOsRekey:
    def test_install_via_individual_key(self):
        m = provision([1])
        st = os_state(m, 1)
        body = pack_id_key(0, 9, b"\xaa" * 16)
        ct = encrypt(m.individual_keys[1], MessageKind.REKEY, body)
        st, _ = os_step(st, [env(0, MessageKind.REKEY, ct)], 0)
        assert st.ring.group.id == 9

    def test_install_via_group_key(self):
        m = provision([1])
        st = os_state(m, 1)
        body = pack_id_key(0, 9, b"\xaa" * 16)
        ct = encrypt(m.group_keys[0], MessageKind.REKEY, body)
        st, _ = os_step(st, [env(0, MessageKind.REKEY, ct)], 0)
        assert st.ring.group.id == 9

    def test_replayed_older_key_refused(self):
        m = provision([1])
        st = os_state(m, 1)
        newer = pack_id_key(0, 9, b"\xaa" * 16)
        ct = encrypt(m.individual_keys[1], MessageKind.REKEY, newer)
        st, _ = os_step(st, [env(0, MessageKind.REKEY, ct)], 0)
        stale = pack_id_key(0, 5, b"\xbb" * 16)
        ct = encrypt(m.individual_keys[1], MessageKind.REKEY, stale)
        st, _ = os_step(st, [env(0, MessageKind.REKEY, ct, seq=2)], 1)
        assert st.ring.group.id == 9

    def test_rekey_under_foreign_key_ignored(self):
        m = provision([1, 1])
        st = os_state(m, 1)
        body = pack_id_key(2, 9, b"\xaa" * 16)
        ct = encrypt(m.group_keys[2], MessageKind.REKEY, body)
        st, _ = os_step(st, [env(2, MessageKind.REKEY, ct)], 0)
        assert st.ring.group.id == m.group_keys[0].id


class TestOsPromote:
    def test_command_for_another_sensor_is_not_opened(self, monkeypatch):
        m = provision([2])
        st = os_state(m, 1)
        st, _ = os_step(st, [], 0)
        st, _ = os_step(st, [], APPROVAL_TIMEOUT)
        assert st.phase is Phase.ORPHAN
        calls = []

        def counted(key, ct):
            calls.append(ct.key_id)
            return decrypt(key, ct)

        monkeypatch.setattr(wcds.keys, "decrypt", counted)
        foreign = encrypt(m.individual_keys[2], MessageKind.PROMOTE_CMD, b"")
        st, out = os_step(st, [env(BS_ID, MessageKind.PROMOTE_CMD, foreign)], APPROVAL_TIMEOUT + 1)
        assert out == []  # the simulator sends the relay (see test_sim.TestOsRelay)
        assert st.phase is Phase.ORPHAN and st.rank is Rank.OS
        assert calls == []
        own = encrypt(m.individual_keys[1], MessageKind.PROMOTE_CMD, b"")
        st, _ = os_step(st, [env(BS_ID, MessageKind.PROMOTE_CMD, own, seq=2)], APPROVAL_TIMEOUT + 2)
        assert st.phase is Phase.PROMOTED and st.rank is Rank.GD_OS
        assert calls == [m.individual_keys[1].id]


class TestGdJoin:
    def test_home_member_approved(self):
        m = provision([1])
        st = gd_state(m, 0)
        ct = encrypt(m.individual_keys[1], MessageKind.JOIN_REQ, b"")
        st, out = gd_step(st, [env(1, MessageKind.JOIN_REQ, ct)], 1, m)
        assert st.subordinates == {1}
        assert [e.kind for e in out] == [MessageKind.JOIN_APRV]
        kind, body = decrypt(m.group_keys[0], out[0].ciphertext)
        assert kind is MessageKind.JOIN_APRV
        assert unpack_ids(body) == (0, 1)

    def test_foreign_sensor_becomes_mediator_entry(self):
        m = provision([1, 1])
        st = gd_state(m, 0)
        ct = encrypt(m.individual_keys[3], MessageKind.JOIN_REQ, b"")
        st, out = gd_step(st, [env(3, MessageKind.JOIN_REQ, ct)], 1, m)
        assert st.subordinates == set()
        assert st.mediators == {3}
        assert out == []

    def test_forged_request_never_approved(self):
        m = provision([1])
        st = gd_state(m, 0)
        ct = Ciphertext(m.individual_keys[1].id, b"\x00" * 9, b"\x00" * 8)
        st, out = gd_step(st, [env(1, MessageKind.JOIN_REQ, ct)], 1, m)
        assert st.subordinates == set()
        assert out == []
        assert st.mediators == {1}

    def test_replayed_request_not_approved(self):
        m = provision([1])
        st = gd_state(m, 0)
        ct = encrypt(m.individual_keys[1], MessageKind.JOIN_REQ, b"")
        st, out = gd_step(st, [env(1, MessageKind.JOIN_REQ, ct, transmitter=-2)], 1, m)
        assert st.subordinates == set()
        assert out == []
        assert st.mediators == set()

    def test_post_formation_join_triggers_rekey(self):
        m = provision([2])
        st = gd_state(m, 0)
        st.post_formation = True
        old = m.group_keys[0]
        ct = encrypt(m.individual_keys[1], MessageKind.JOIN_REQ, b"")
        st, out = gd_step(st, [env(1, MessageKind.JOIN_REQ, ct)], 1, m)
        kinds = [e.kind for e in out]
        assert kinds == [MessageKind.REKEY, MessageKind.REKEY, MessageKind.JOIN_APRV]
        assert m.group_keys[0] != old
        # the approval rides under the rotated key
        assert out[2].ciphertext.key_id == m.group_keys[0].id


class TestGdOrphanRelay:
    def orphan_flood(self, m, sender, observed=()):
        ct = encrypt(m.individual_keys[sender], MessageKind.GD_ERR, pack_ids(observed))
        return env(sender, MessageKind.GD_ERR, ct)

    def test_one_report_per_orphan(self):
        m = provision([1, 1])
        st = gd_state(m, 0)
        st, out1 = gd_step(st, [self.orphan_flood(m, 3)], 2, m)
        assert [e.kind.name for e in out1] == ["ORP_ERR"]  # the relay is the simulator's
        flood2 = self.orphan_flood(m, 3, (0,))
        st, out2 = gd_step(st, [Envelope(3, flood2.kind, flood2.ciphertext, 2, 3)], 3, m)
        # a fresh flood from the same orphan is not re-reported
        assert out2 == []

    def test_report_names_the_orphan_under_group_key(self):
        m = provision([1, 1])
        st = gd_state(m, 0)
        st, out = gd_step(st, [self.orphan_flood(m, 3)], 2, m)
        report = next(e for e in out if e.kind is MessageKind.ORP_ERR)
        kind, body = decrypt(m.group_keys[0], report.ciphertext)
        assert pack_id(3) == body

    def test_own_subordinate_not_reported(self):
        m = provision([1])
        st = gd_state(m, 0)
        st.subordinates.add(1)
        st, out = gd_step(st, [self.orphan_flood(m, 1)], 2, m)
        assert out == []

    def test_relayed_flood_not_reported(self):
        m = provision([1, 1])
        st = gd_state(m, 0)
        flood = self.orphan_flood(m, 3)
        st, out = gd_step(st, [Envelope(3, flood.kind, flood.ciphertext, 1, 2)], 2, m)
        assert out == []
        assert st.reported_orphans == set()

    def test_promoted_head_does_not_report(self):
        m = provision([1, 1])
        st = gd_state(m, 0)
        st.rank = Rank.GD_OS
        st, out = gd_step(st, [self.orphan_flood(m, 3)], 2, m)
        assert out == []


class TestGdAdopt:
    def adopt_env(self, m, gd, orphan, seq=1):
        ikey = m.individual_keys[orphan]
        body = pack_id_key(orphan, ikey.id, ikey.bits)
        ct = encrypt(m.group_keys[gd], MessageKind.ADOPT_CMD, body)
        return env(BS_ID, MessageKind.ADOPT_CMD, ct, seq=seq)

    def test_adopt_installs_key_and_rekeys(self):
        m = provision([1, 1])
        st = gd_state(m, 0)
        st, out = gd_step(st, [self.adopt_env(m, 0, 3)], 5, m)
        assert st.subordinates == {3}
        assert st.ring.subordinate_keys[3] == m.individual_keys[3]
        kinds = [e.kind.name for e in out]
        assert kinds == ["REKEY", "REKEY", "JOIN_APRV"]

    def test_adopt_for_another_group_ignored(self):
        m = provision([1, 1])
        st = gd_state(m, 2)
        st, out = gd_step(st, [self.adopt_env(m, 0, 3)], 5, m)
        assert st.subordinates == set()
        assert out == []

    def test_adopt_is_idempotent(self):
        m = provision([1, 1])
        st = gd_state(m, 0)
        st, out1 = gd_step(st, [self.adopt_env(m, 0, 3)], 5, m)
        st, out2 = gd_step(st, [self.adopt_env(m, 0, 3, seq=2)], 6, m)
        assert out2 == []

    def test_adopt_under_superseded_key_still_lands(self):
        # the command can race a rotation that happened after it was sealed
        m = provision([1, 1])
        stale = self.adopt_env(m, 0, 3)
        st = gd_state(m, 0)
        ct = encrypt(m.individual_keys[1], MessageKind.JOIN_REQ, b"")
        st.post_formation = True
        st, _ = gd_step(st, [env(1, MessageKind.JOIN_REQ, ct)], 4, m)
        assert m.group_keys[0].id != stale.ciphertext.key_id
        st, out = gd_step(st, [stale], 5, m)
        assert 3 in st.subordinates


class TestGdLeave:
    def leave_env(self, m, sender, transmitter=None):
        ct = encrypt(m.individual_keys[sender], MessageKind.LEAVE, b"")
        return env(sender, MessageKind.LEAVE, ct, transmitter=transmitter)

    def test_leave_rekeys_survivors_only(self):
        m = provision([2])
        st = gd_state(m, 0)
        st.subordinates.update({1, 2})
        old_ring_key = m.rings[1].group
        st, out = gd_step(st, [self.leave_env(m, 1)], 8, m)
        assert st.subordinates == {2}
        assert [e.kind for e in out] == [MessageKind.REKEY]
        assert out[0].ciphertext.key_id == m.individual_keys[2].id
        # the departed sensor's stored keys open nothing sent afterwards
        later = encrypt(m.group_keys[0], MessageKind.JOIN_APRV, b"after")
        assert not can_decrypt(old_ring_key, later)
        assert not can_decrypt(m.individual_keys[1], later)

    def test_join_and_leave_in_one_step_approve_under_the_final_key(self):
        m = provision([3])
        st = gd_state(m, 0)
        st.post_formation = True
        st.subordinates.update({1, 2})
        join = env(3, MessageKind.JOIN_REQ, encrypt(m.individual_keys[3], MessageKind.JOIN_REQ, b""))
        st, out = gd_step(st, [join, self.leave_env(m, 1)], 8, m)
        assert [e.kind.name for e in out] == ["REKEY", "REKEY", "JOIN_APRV", "REKEY", "REKEY"]
        assert [e.seq for e in out] == [1, 2, 3, 4, 5]
        # the approval rides under the key the leave rotated to, which the
        # joiner receives as a survivor
        approval = out[2].ciphertext
        assert approval.key_id == m.group_keys[0].id
        assert unpack_ids(decrypt(m.group_keys[0], approval)[1]) == (0, 3)

    def test_leave_from_stranger_ignored(self):
        m = provision([2, 1])
        st = gd_state(m, 0)
        st.subordinates.update({1, 2})
        st, out = gd_step(st, [self.leave_env(m, 4)], 8, m)
        assert st.subordinates == {1, 2}
        assert out == []

    def test_relayed_leave_ignored(self):
        m = provision([2])
        st = gd_state(m, 0)
        st.subordinates.update({1, 2})
        st, out = gd_step(st, [self.leave_env(m, 1, transmitter=-2)], 8, m)
        assert st.subordinates == {1, 2}
        assert out == []


class TestBaseStation:
    def gd_err(self, m, sender, observed=(), seq=1):
        ct = encrypt(m.individual_keys[sender], MessageKind.GD_ERR, pack_ids(observed))
        return env(sender, MessageKind.GD_ERR, ct, seq=seq)

    def orp_err(self, m, gd, orphan, seq=1):
        ct = encrypt(m.group_keys[gd], MessageKind.ORP_ERR, pack_id(orphan))
        return env(gd, MessageKind.ORP_ERR, ct, seq=seq)

    def test_records_then_promotes_when_nobody_reports(self):
        m = provision([1])
        bs = BSState()
        bs, out = bs_step(bs, [self.gd_err(m, 1)], 3, m)
        assert out == []
        assert bs.orphans[1].received_round == 3
        bs, out = bs_step(bs, [], 3 + MATCH_WINDOW - 1, m)
        assert out == []
        bs, out = bs_step(bs, [], 3 + MATCH_WINDOW, m)
        assert [e.kind for e in out] == [MessageKind.PROMOTE_CMD]
        assert out[0].ciphertext.key_id == m.individual_keys[1].id
        assert bs.orphans[1].resolution == ("promoted", None)

    def test_adopter_prefers_dominators_the_orphan_heard(self):
        m = provision([1, 1, 1])
        bs = BSState()
        inbox = [self.gd_err(m, 1, observed=(4,)), self.orp_err(m, 2, 1), self.orp_err(m, 4, 1)]
        bs, _ = bs_step(bs, inbox, 0, m)
        assert bs.orphans[1].reports == {2, 4}
        bs, out = bs_step(bs, [], MATCH_WINDOW, m)
        assert [e.kind for e in out] == [MessageKind.ADOPT_CMD]
        assert out[0].ciphertext.key_id == m.group_keys[4].id
        assert bs.orphans[1].resolution == ("adopted", 4)

    def test_adopter_falls_back_to_smallest_reporter(self):
        m = provision([1, 1, 1])
        bs = BSState()
        inbox = [self.gd_err(m, 1), self.orp_err(m, 4, 1), self.orp_err(m, 2, 1)]
        bs, _ = bs_step(bs, inbox, 0, m)
        bs, out = bs_step(bs, [], MATCH_WINDOW, m)
        assert out[0].ciphertext.key_id == m.group_keys[2].id
        assert bs.orphans[1].resolution == ("adopted", 2)

    def test_late_report_after_decision_ignored(self):
        m = provision([1, 1])
        bs = BSState()
        bs, _ = bs_step(bs, [self.gd_err(m, 1)], 0, m)
        bs, out = bs_step(bs, [], MATCH_WINDOW, m)
        assert bs.orphans[1].resolution is not None
        bs, out = bs_step(bs, [self.orp_err(m, 2, 1)], MATCH_WINDOW + 1, m)
        assert out == []
        assert bs.orphans[1].resolution == ("promoted", None)

    def test_new_episode_replaces_decided_record(self):
        m = provision([1])
        bs = BSState()
        bs, _ = bs_step(bs, [self.gd_err(m, 1)], 0, m)
        bs, _ = bs_step(bs, [], MATCH_WINDOW, m)
        assert bs.orphans[1].resolution is not None
        bs, _ = bs_step(bs, [self.gd_err(m, 1, seq=2)], 9, m)
        rec = bs.orphans[1]
        assert rec.received_round == 9 and rec.resolution is None

    def test_duplicate_flood_while_undecided_keeps_record(self):
        m = provision([1])
        bs = BSState()
        bs, _ = bs_step(bs, [self.gd_err(m, 1)], 0, m)
        bs, _ = bs_step(bs, [self.gd_err(m, 1, seq=2)], 2, m)
        assert bs.orphans[1].received_round == 0

    def test_consumes_floods_without_relaying(self):
        m = provision([1])
        bs = BSState()
        bs, out = bs_step(bs, [self.gd_err(m, 1)], 0, m)
        assert out == []

    @staticmethod
    def discards(events):
        """The base station's audit_discard events as (round, sender, reason)."""
        return [
            (e["round"], e["detail"]["sender"], e["detail"]["reason"])
            for e in events
            if e["node"] == BS_ID and e["event"] == "audit_discard"
        ]

    def test_audit_unknown_orphan_id(self):
        m = provision([1])
        bs, events = BSState(), []
        ct = Ciphertext(10**6, b"\x00" * 9, b"\x00" * 8)
        bs, _ = bs_step(bs, [env(-5, MessageKind.GD_ERR, ct)], 4, m, events)
        assert self.discards(events) == [(4, -5, "unknown_orphan_id")]
        assert bs.orphans == {}

    def test_audit_bad_orphan_report(self):
        m = provision([1])
        ikey = m.individual_keys[1]
        unreadable = [
            Ciphertext(ikey.id, b"\x00" * 9, b"\x00" * 8),  # junk tag
            encrypt(ikey, MessageKind.ORP_ERR, pack_ids([])),  # another kind
            encrypt(ikey, MessageKind.GD_ERR, b"\x01"),  # body does not decode
        ]
        for ct in unreadable:
            bs, events = BSState(), []
            bs_step(bs, [env(1, MessageKind.GD_ERR, ct)], 4, m, events)
            assert self.discards(events) == [(4, 1, "bad_orphan_report")]
            assert bs.orphans == {}

    def test_audit_unknown_reporter(self):
        m = provision([1])
        events = []
        ct = Ciphertext(777, b"\x00" * 9, b"\x00" * 8)
        bs_step(BSState(), [env(-5, MessageKind.ORP_ERR, ct)], 4, m, events)
        assert self.discards(events) == [(4, -5, "unknown_reporter")]

    def test_audit_bad_report(self):
        m = provision([1])
        gkey = m.group_keys[0]
        unreadable = [
            Ciphertext(gkey.id, b"\x00" * 9, b"\x00" * 8),  # junk tag
            encrypt(gkey, MessageKind.GD_ERR, pack_id(1)),  # another kind
            encrypt(gkey, MessageKind.ORP_ERR, b"\x01"),  # body does not decode
        ]
        for ct in unreadable:
            events = []
            bs_step(BSState(), [env(0, MessageKind.ORP_ERR, ct)], 4, m, events)
            assert self.discards(events) == [(4, 0, "bad_report")]

    def test_audit_stray_report(self):
        m = provision([1, 1])
        events = []
        bs_step(BSState(), [self.orp_err(m, 2, 99)], 4, m, events)
        assert self.discards(events) == [(4, 2, "stray_report")]


class TestJoinTimeline:
    def world(self):
        m = provision([1])
        positions = {BS_ID: (0.0, 0.0), 0: (10.0, 0.0), 1: (20.0, 0.0)}
        return make_world(m, positions, radius=12.0)

    def test_two_round_join(self):
        w = run(self.world())
        assert w.round == 3
        assert w.states[1].phase is Phase.JOINED
        assert w.states[1].dominator == 0
        assert w.states[0].subordinates == {1}
        assert w.counters == {"JOIN_REQ": 1, "JOIN_APRV": 1}
        named = [(e["round"], e["node"], e["event"]) for e in w.events]
        assert named == [(0, 1, "join_request"), (1, 0, "approved"), (2, 1, "joined")]

    def test_outcome_and_verification(self):
        w = run(self.world())
        outcome = assemble_outcome(w)
        assert outcome.dominator_set == (0,)
        assert outcome.membership == ((1, 0),)
        assert outcome.orphan_log == ()
        assert outcome.coverage_failures == ()
        report = verify_outcome(w, outcome)
        assert report.ok
        assert report.node_count == 2 and report.dominator_count == 1

    def test_formation_flag_set_on_quiescence(self):
        w = run(self.world())
        assert w.formation_complete
        assert all(st.post_formation for st in w.states.values())


class TestPromotionTimeline:
    def world(self):
        # the lone sensor can reach the base station but not its dominator
        m = provision([1])
        positions = {BS_ID: (0.0, 0.0), 0: (100.0, 0.0), 1: (10.0, 0.0)}
        return make_world(m, positions, radius=12.0)

    def test_isolated_sensor_promoted(self):
        w = run(self.world())
        assert w.round == 10
        st = w.states[1]
        assert st.rank is Rank.GD_OS
        assert st.phase is Phase.PROMOTED
        assert w.bs.orphans[1].resolution == ("promoted", None)
        outcome = assemble_outcome(w)
        assert outcome.dominator_set == (0, 1)
        assert outcome.orphan_log == ((1, "promoted"),)
        assert outcome.coverage_failures == ()

    def test_wcds_fails_only_because_field_is_split(self):
        w = run(self.world())
        report = verify_outcome(w)
        assert report.fully_resolved and report.dominating
        assert not report.graph_connected
        assert not report.weakly_connected


class TestAdoptionTimeline:
    def world(self):
        # sensor 1's own dominator is parked out of range; dominator 2 is
        # adjacent, and sensor 3 bridges the flood path to the base station
        m = provision([1, 1])
        positions = {
            BS_ID: (0.0, 0.0),
            0: (10.0, 10.0),
            3: (10.0, 0.0),
            2: (20.0, 0.0),
            1: (30.0, 0.0),
        }
        return make_world(m, positions, radius=10.5)

    def test_cross_group_adoption(self):
        w = run(self.world())
        assert w.round == 14
        st = w.states[1]
        assert st.phase is Phase.JOINED
        assert st.dominator == 2
        assert (1, "adopted") in [(e["node"], e["event"]) for e in w.events]
        assert w.states[2].subordinates == {3, 1}
        events = [e["event"] for e in w.events]
        assert events.count("orphan_reported") == 1
        assert "adopting" in events and "adopted" in events

    def test_outcome_records_adoption_and_mediation(self):
        w = run(self.world())
        outcome = assemble_outcome(w)
        assert outcome.dominator_set == (0, 2)
        assert outcome.membership == ((1, 2), (3, 2))
        assert outcome.orphan_log == ((1, "adopted"),)
        # dominator 0 overheard sensor 3, whose own head is dominator 2
        assert outcome.mediators == ((3, 2, 0),)
        assert verify_outcome(w, outcome).ok

    def test_adoptee_follows_the_rotated_group_key(self):
        w = run(self.world())
        assert w.states[1].ring.group.id == w.material.group_keys[2].id
        assert w.states[3].ring.group.id == w.material.group_keys[2].id

    def test_rerun_is_byte_identical(self):
        runs = []
        for _ in range(2):
            with pytest.MonkeyPatch.context() as m:
                sent = record_transmissions(m)
                runs.append((run(self.world()), sent))
        (a, a_sent), (b, b_sent) = runs
        assert assemble_outcome(a) == assemble_outcome(b)
        assert a.events == b.events
        assert a_sent == b_sent
