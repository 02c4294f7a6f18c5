"""Delivery gate: the eight acceptance criteria, one test per criterion.

Each test measures its quantities, prints one [PASS]/[FAIL] line with the
numbers, then asserts. Criterion 4 is expected to fail: the closed-form
degree curve is not flat between n=150 and n=200 at the demanded tolerance,
and the check is kept faithful rather than loosened. README.md describes
the failure.
"""

import json
import subprocess
import sys
import time

import mpmath
import pytest

import wcds.analysis
from conftest import can_decrypt, child_env, record_transmissions
from wcds.analysis import compare_ds_sizes, expected_gd_degree, ideal_ds_size
from wcds.baselines import cds_alg1, cds_alg2
from wcds.graph import (
    brute_min_ds,
    gen_udg,
    is_cds,
    is_connected,
)
from wcds.keys import Rank, provision, uniform_storage_bits
from wcds.sim import (
    RunConfig,
    assemble_outcome,
    form_deployment,
    late_join,
    leave,
    run,
    simulate,
    verify_outcome,
)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def connected_udg(n, width, height, radius, seed, stride=1_000_003, budget=500):
    for attempt in range(budget + 1):
        g = gen_udg(n, width, height, radius, seed + stride * attempt)
        if is_connected(g):
            return g
    raise AssertionError(f"no connected graph at n={n} seed={seed}")


def test_criterion_1_relaxed_minimum_never_larger():
    t0 = time.perf_counter()
    strict = 0
    for seed in range(200):
        n = 4 + seed % 9
        g = connected_udg(n, 30.0, 30.0, 12.0, seed * 1009, stride=1, budget=200)
        w = len(brute_min_ds(g, "wcds"))
        c = len(brute_min_ds(g, "cds"))
        assert w <= c, f"criterion 1: wcds minimum {w} exceeds cds minimum {c} at seed {seed}"
        strict += w < c
    elapsed = time.perf_counter() - t0
    ok = strict >= 1 and elapsed < 60.0
    report(1, ok, f"200 connected graphs, {strict} strictly smaller, {elapsed:.1f}s")


def test_criterion_2_dominator_count_matches_group_formula():
    misses = []
    for n, eta, want in ((100, 9, 10), (101, 9, 11), (60, 5, 10)):
        assert ideal_ds_size(n, eta) == want
        for seed in range(5):
            world = form_deployment(n, eta, 100.0, 100.0, 45.0, seed=seed, sigma=4.5)
            out = assemble_outcome(world)
            if len(out.dominator_set) != want or out.orphan_log:
                misses.append((n, eta, seed, len(out.dominator_set), out.orphan_log))
    detail = "counts 10/11/10 across 5 seeds each, no orphans"
    report(2, not misses, detail if not misses else f"{detail}; misses={misses}")


def test_criterion_3_storage_figures():
    closed = uniform_storage_bits(5, 50, 10, 128)
    material = provision([10] * 5, key_bits=128)
    bits = {v: sum(len(k.bits) * 8 for k in material.rings[v].keys()) for v in material.all_nodes()}
    ring_gd = tuple(bits[gd] for gd, _ in material.groups)
    ring_os = {bits[v] for _, members in material.groups for v in members}
    ring_sum = sum(bits.values())
    ok = (
        set(closed.per_gd) == {1408}
        and closed.per_os == 256
        and closed.total == 19840
        and ring_gd == closed.per_gd
        and ring_os == {closed.per_os}
        and ring_sum == closed.total
    )
    report(
        3,
        ok,
        f"per_gd={closed.per_gd[0]} per_os={closed.per_os} total={closed.total} ring_sum={ring_sum}",
    )


def test_criterion_4_degree_curve():
    mpmath.mp.dps = 50

    def oracle(n, pc):
        p = (mpmath.log(n) - mpmath.log(-mpmath.log(mpmath.mpf(pc)))) / n
        p = min(max(p, mpmath.mpf(0)), mpmath.mpf(1))
        return float(p * (n - 1))

    got = expected_gd_degree(100, 0.99)
    ref = oracle(100, 0.99)
    point_ok = abs(got - 9.113) <= 0.01 and abs(got - ref) < 1e-9
    gaps = {
        n: expected_gd_degree(n, 0.999) - expected_gd_degree(n, 0.99)
        for n in (20, 50, 100, 200)
    }
    gaps_ok = all(1.8 <= gap <= 2.6 for gap in gaps.values())
    for n in (20, 50, 100, 200):
        for pc in (0.99, 0.999):
            assert abs(expected_gd_degree(n, pc) - oracle(n, pc)) < 1e-9
    flat = abs(expected_gd_degree(200, 0.99) - expected_gd_degree(150, 0.99))
    flat_ok = flat < 0.2
    gap_text = ", ".join(f"{n}:{g:.3f}" for n, g in gaps.items())
    report(
        4,
        point_ok and gaps_ok and flat_ok,
        f"d(100,0.99)={got:.6f} ref={ref:.6f}; gaps [{gap_text}]; "
        f"|d(200,0.99)-d(150,0.99)|={flat:.6f} vs required < 0.2",
    )


def test_criterion_5_protocol_beats_greedy_baselines(monkeypatch):
    t0 = time.perf_counter()
    # Every baseline set the sweeps compare against, with the graph it was built on.
    built = {}
    for name, baseline in (("cds_alg1", cds_alg1), ("cds_alg2", cds_alg2)):
        def recorded(g, baseline=baseline, out=built.setdefault(name, [])):
            chosen = baseline(g)
            out.append((g, chosen))
            return chosen

        monkeypatch.setattr(wcds.analysis, name, recorded)
    sweeps = ((6.0, list(range(20, 201, 20))), (12.0, list(range(40, 201, 20))))
    losses = []
    for degree, ns in sweeps:
        rep = compare_ds_sizes(ns, degree, eta=9, seeds=tuple(range(30)))
        assert rep.missing == (), f"criterion 5: unreachable points {rep.missing}"
        for n in ns:
            if n < 100:
                continue
            ours = rep.mean("ours", n)
            a1 = rep.mean("cds_alg1", n)
            a2 = rep.mean("cds_alg2", n)
            if not (ours < a1 and ours < a2):
                losses.append((degree, n, ours, a1, a2))
    for name, pairs in built.items():
        assert len(pairs) == 570, f"criterion 5: {len(pairs)} {name} sets for 19 sizes x 30 seeds"
        for g, chosen in pairs:
            assert is_cds(g, chosen), f"criterion 5: {name} invalid at n={g.n}"
    elapsed = time.perf_counter() - t0
    ok = not losses and elapsed < 300.0
    detail = f"means below both baselines for all n >= 100, baselines valid, {elapsed:.0f}s"
    report(5, ok, detail if ok else f"losses={losses} elapsed={elapsed:.0f}s")


def test_criterion_6_formation_soundness():
    wcds_ok = 0
    splits = 0
    for seed in range(100):
        world = form_deployment(60, 9, 100.0, 100.0, 45.0, seed=seed)
        rep = verify_outcome(world)
        assert rep.fully_resolved, f"criterion 6: unresolved sensors at seed {seed}"
        assert rep.dominating, f"criterion 6: not dominating at seed {seed}"
        if rep.weakly_connected:
            wcds_ok += 1
        else:
            assert not rep.graph_connected, (
                f"criterion 6: weak connectivity failed on a connected field at seed {seed}"
            )
            splits += 1
    ok = wcds_ok >= 95
    report(6, ok, f"{wcds_ok}/100 weakly connected dominating sets, {splits} split fields")


def _group_key_ids(material, gd):
    ids = {k.id for k in material.group_key_history.get(gd, {}).values()}
    ids.add(material.rings[gd].group.id)
    return ids


def test_criterion_7_security_suite():
    behaviors = ("forge_join", "forge_approve", "replay")
    for seed in range(100):
        cfg = RunConfig(
            groups=3,
            eta=4,
            radius=40.0,
            mode="group_clustered",
            adversary_count=2,
            adversary_behavior=behaviors[seed % 3],
            seed=seed,
        )
        world, out, _ = simulate(cfg)
        legit = set(world.material.all_nodes())
        assert set(dict(out.membership)) <= legit, f"criterion 7: foreign member at seed {seed}"
        assert set(out.dominator_set) <= legit, f"criterion 7: foreign dominator at seed {seed}"
        for os_id, gd in out.membership:
            assert world.material.ranks[gd] is Rank.GD, (
                f"criterion 7: {os_id} follows forged dominator {gd} at seed {seed}"
            )

    # stealing one ordinary ring must expose only that ring's traffic
    with pytest.MonkeyPatch.context() as m:
        sent = record_transmissions(m)
        world, _, _ = simulate(
            RunConfig(groups=3, eta=4, radius=40.0, mode="group_clustered", seed=2)
        )
    material = world.material
    victim, own_gd = 1, 0
    ring = material.rings[victim]
    own_ids = {ring.individual.id} | _group_key_ids(material, own_gd)
    opened = closed = 0
    for _, env in sent:
        if any(can_decrypt(k, env.ciphertext) for k in ring.keys()):
            assert env.ciphertext.key_id in own_ids, (
                f"criterion 7: stolen ring opened foreign key {env.ciphertext.key_id}"
            )
            opened += 1
        else:
            closed += 1
    assert opened > 0 and closed > 0, "criterion 7: audit saw one-sided traffic"

    # after a leave, the departed ring opens nothing that follows
    with pytest.MonkeyPatch.context() as m:
        sent = record_transmissions(m)
        world, out, _ = simulate(
            RunConfig(
                groups=2, eta=4, radius=40.0, mode="group_clustered",
                reserve_fraction=0.25, seed=3,
            )
        )
        material = world.material
        reserves = sorted(set(material.all_nodes()) - set(world.states))
        departed, gd = out.membership[0]
        stolen = material.rings[departed]
        leave(world, departed)
        run(world)
        leave_round = world.round
        joiner = next(r for r in reserves if material.ranks[r] is Rank.OS)
        late_join(world, joiner)
        run(world)
    post = [env for rnd, env in sent if rnd >= leave_round]
    group_sealed = sum(
        1 for env in post if env.ciphertext.key_id in _group_key_ids(material, gd)
    )
    leaked = sum(
        1 for env in post if any(can_decrypt(k, env.ciphertext) for k in stolen.keys())
    )
    assert group_sealed > 0, "criterion 7: no group traffic followed the leave"
    ok = leaked == 0
    report(
        7,
        ok,
        f"100 adversarial runs clean; ring audit opened {opened}, closed {closed}; "
        f"post-leave leaked {leaked} of {len(post)}",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    env = child_env()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"groups": 2, "eta": 4, "radius": 40.0, "mode": "group_clustered", "seed": 5}
        )
    )

    def invoke(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "wcds", *args],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    for tag in ("a", "b"):
        invoke("sim", "--config", str(cfg), "--out", f"{tag}.json", "--trace", f"{tag}.jsonl")
        invoke(
            "compare", "--nmin", "20", "--nmax", "40", "--step", "20",
            "--degree", "12", "--seeds", "3", "--out", f"{tag}.csv",
        )
    same = all(
        (tmp_path / f"a{ext}").read_bytes() == (tmp_path / f"b{ext}").read_bytes()
        for ext in (".json", ".jsonl", ".csv")
    )
    report(8, same, "sim and compare outputs byte-identical across reruns")
