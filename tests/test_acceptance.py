"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line with its measured figures (visible with pytest -s or in the failure
report). Sampling plans use fixed seeds so the suite is deterministic.
"""

import itertools
import random
import time
import timeit

from pdce import (
    DirPath,
    certificate,
    check_direction_consistency,
    check_planarity_prefix,
    check_planarity_segments,
    count_plane_spanning_paths,
    brute_force_pdce,
    decide_pdce,
    dp_table,
    embed_quarter_convex,
    embed_three_directional,
    embed_udr_left_sided,
    embed_udr_right_sided,
    embed_ur_strip,
    enumerate_planar_embeddings,
    generate_random_convex,
    load_counterexample,
    mirror_embedding,
    mirror_path,
    mirror_set,
    reverse_embedding,
    reverse_path,
    rotate_embedding,
    rotate_path,
    rotate_set,
    search_counterexample,
    validate_embedding,
    Embedding,
)

THREE_LABEL_SUBSETS = ("UDR", "UDL", "ULR", "DLR")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_labels(rng: random.Random, n: int, alphabet: str) -> DirPath:
    return DirPath("".join(rng.choice(alphabet) for _ in range(n - 1)))


def test_criterion_1_three_directional_embedding_suite():
    rng = random.Random(0xC1)
    t0 = time.perf_counter()
    good = 0
    for i in range(1000):
        n = rng.randint(3, 40)
        s = generate_random_convex(n, seed=f"c1-{i}")
        p = _random_labels(rng, n, THREE_LABEL_SUBSETS[i % 4])
        e = embed_three_directional(p, s)
        ok, _ = check_direction_consistency(p, s, e)
        if ok and check_planarity_prefix(s, e) and check_planarity_segments(s, e):
            good += 1
    dt = time.perf_counter() - t0
    _report(
        1,
        good == 1000 and dt < 10.0,
        f"three-directional embeddings valid on {good}/1000 instances "
        f"(n in [3,40], all four 3-label subsets) in {dt:.1f}s (budget 10s)",
    )


def test_criterion_2_decider_matches_brute_force():
    rng = random.Random(0xC2)
    t0 = time.perf_counter()
    checked = 0
    witnesses = 0
    for n in (4, 5, 6):
        s = generate_random_convex(n, seed=f"c2-exh-{n}")
        for labels in itertools.product("UDLR", repeat=n - 1):
            p = DirPath("".join(labels))
            w = decide_pdce(p, s)
            hits = brute_force_pdce(p, s)
            assert (w is None) == (len(hits) == 0)
            if w is not None:
                assert validate_embedding(p, s, w).is_pdce
                witnesses += 1
            checked += 1
    for i in range(2000):
        n = rng.randint(1, 10)
        s = generate_random_convex(n, seed=f"c2-rnd-{i}")
        p = _random_labels(rng, n, "UDLR")
        w = decide_pdce(p, s)
        hits = brute_force_pdce(p, s)
        assert (w is None) == (len(hits) == 0)
        if w is not None:
            assert validate_embedding(p, s, w).is_pdce
            witnesses += 1
        checked += 1
    dt = time.perf_counter() - t0
    _report(
        2,
        checked == 1344 + 2000 and dt < 60.0,
        f"decide agrees with exhaustive oracle on {checked} instances "
        f"({witnesses} YES witnesses all validate) in {dt:.1f}s (budget 60s)",
    )


def test_criterion_3_counterexample_reproduction():
    p, s, doc = load_counterexample()
    t0 = time.perf_counter()
    found = search_counterexample(path=p, seed=0)
    search_dt = time.perf_counter() - t0
    assert found.points == s.points

    assert decide_pdce(p, s) is None
    cert = certificate(p, s)
    exact = (
        cert["planar_count"] == 224
        and cert["pdce_count"] == 0
        and len(cert["candidates"]) == 224
        and cert["certificate_sha256"] == doc["certificate_sha256"]
    )
    recert_ms = timeit.timeit(lambda: decide_pdce(p, s), number=100) / 100 * 1e3
    _report(
        3,
        exact and search_dt < 30.0 and recert_ms < 1.0,
        f"7-point left-sided counterexample found in {search_dt:.2f}s "
        f"(budget 30s); 224-candidate certificate exact, zero admissible; "
        f"re-decision {recert_ms:.3f}ms (budget 1ms)",
    )


def test_criterion_4_spanning_path_count_formula():
    checked = 0
    for n in range(3, 11):
        for k in range(5):
            s = generate_random_convex(n, seed=f"c4-{n}-{k}")
            assert count_plane_spanning_paths(s) == n * 2 ** (n - 3)
            checked += 1
    _report(
        4,
        checked == 40,
        "plane spanning path count equals n*2^(n-3) on 5 random sets "
        "for each n in 3..10",
    )


def test_criterion_5_quarter_convex_embedding_suite():
    rng = random.Random(0xC5)
    good = 0
    for i in range(500):
        n = rng.randint(2, 30)
        mode = "quarter_inc" if i % 2 == 0 else "quarter_dec"
        s = generate_random_convex(n, seed=f"c5-{i}", mode=mode)
        p = _random_labels(rng, n, "UDLR")
        e = embed_quarter_convex(p, s)
        if validate_embedding(p, s, e).is_pdce:
            good += 1
    _report(
        5,
        good == 500,
        f"four-directional embeddings on quarter-convex sets valid on "
        f"{good}/500 instances (both chain types, n <= 30)",
    )


def test_criterion_6_planarity_checkers_coincide():
    disagreements = 0
    total = 0
    for n in (4, 5, 6):
        s = generate_random_convex(n, seed=f"c6-{n}")
        for perm in itertools.permutations(range(n)):
            e = Embedding(perm)
            if check_planarity_prefix(s, e) != check_planarity_segments(s, e):
                disagreements += 1
            total += 1
    _report(
        6,
        disagreements == 0 and total == 24 + 120 + 720,
        f"prefix-consecutive and segment-intersection planarity agree on "
        f"all {total} embeddings (exhaustive, one set per n in 4..6)",
    )


def test_criterion_7_endpoint_contracts():
    rng = random.Random(0xC7)
    bad = 0
    for i in range(500):  # left-sided: last label fixes the image of v_n
        n = rng.randint(2, 24)
        s = generate_random_convex(n, seed=f"c7L-{i}", mode="left_sided")
        p = _random_labels(rng, n, "UDR")
        e = embed_udr_left_sided(p, s)
        last = p.labels[-1]
        ok = validate_embedding(p, s, e).is_pdce
        if last == "U":
            ok = ok and e[n - 1] == s.top_index
        elif last == "D":
            ok = ok and e[n - 1] == s.bottom_index
        else:
            ok = ok and e[n - 1] in (s.top_index, s.bottom_index)
        bad += not ok
    for i in range(500):  # right-sided: first label fixes the image of v_1
        n = rng.randint(2, 24)
        s = generate_random_convex(n, seed=f"c7R-{i}", mode="right_sided")
        p = _random_labels(rng, n, "UDR")
        e = embed_udr_right_sided(p, s)
        first = p.labels[0]
        ok = validate_embedding(p, s, e).is_pdce
        if first == "U":
            ok = ok and e[0] == s.bottom_index
        elif first == "D":
            ok = ok and e[0] == s.top_index
        else:
            ok = ok and e[0] in (s.top_index, s.bottom_index)
        bad += not ok
    for i in range(500):  # strip: v_1 in {bottom,left}, v_n fixed by last label
        n = rng.randint(2, 24)
        s = generate_random_convex(n, seed=f"c7S-{i}", mode="strip")
        p = _random_labels(rng, n, "UR")
        e = embed_ur_strip(p, s)
        last = p.labels[-1]
        ok = validate_embedding(p, s, e).is_pdce
        ok = ok and e[0] in (s.bottom_index, s.left_index)
        want = s.top_index if last == "U" else s.right_index
        ok = ok and e[n - 1] == want
        bad += not ok
    _report(
        7,
        bad == 0,
        f"endpoint contracts hold on 500 random qualifying instances per "
        f"family (left-sided, right-sided, strip); {bad} violations",
    )


def test_criterion_8_operator_calculus():
    rng = random.Random(0xC8)
    bad = 0
    for i in range(500):
        n = rng.randint(2, 20)
        s = generate_random_convex(n, seed=f"c8-{i}")
        p = _random_labels(rng, n, THREE_LABEL_SUBSETS[i % 4])
        e = embed_three_directional(p, s)
        ok = validate_embedding(p, s, e).is_pdce

        ok = ok and validate_embedding(
            reverse_path(p), s, reverse_embedding(e)
        ).is_pdce
        ok = ok and validate_embedding(
            rotate_path(p), rotate_set(s), rotate_embedding(e, s)
        ).is_pdce
        ok = ok and validate_embedding(
            mirror_path(p), mirror_set(s), mirror_embedding(e, s)
        ).is_pdce

        # R^4 = id, M^2 = id, double reversal restores the path
        q, t, f = p, s, e
        for _ in range(4):
            q, t, f = rotate_path(q), rotate_set(t), rotate_embedding(f, t)
        ok = (
            ok
            and q.labels == p.labels
            and t.points == s.points
            and f.assignment == e.assignment
        )
        ok = (
            ok
            and mirror_path(mirror_path(p)).labels == p.labels
            and mirror_set(mirror_set(s)).points == s.points
        )
        ok = ok and reverse_path(reverse_path(p)).labels == p.labels
        bad += not ok
    _report(
        8,
        bad == 0,
        f"reverse/rotate/mirror map admissible embeddings to admissible "
        f"embeddings on 500 random instances; identities hold; {bad} failures",
    )


def test_criterion_9_decider_scaling():
    rng = random.Random(0xC9)
    decide_pdce(DirPath("UD"), generate_random_convex(3, seed=0))  # warm-up
    times = {}
    bound_ok = True
    worst2000 = 0.0
    for n in (1000, 2000):
        total = 0.0
        for k in range(3):
            s = generate_random_convex(n, seed=f"c9-{n}-{k}")
            p = _random_labels(rng, n, "UDLR")
            t0 = time.perf_counter()
            decide_pdce(p, s)
            dt = time.perf_counter() - t0
            total += dt
            if n == 2000:
                worst2000 = max(worst2000, dt)
            table = dp_table(p, s)
            bound_ok = bound_ok and all(row >> n == 0 for row in table.near_bits + table.far_bits)
        times[n] = total
    ratio = times[2000] / times[1000]
    _report(
        9,
        ratio <= 5.0 and worst2000 < 2.0 and bound_ok,
        f"decide at n=2000 worst {worst2000:.2f}s (budget 2s), "
        f"2000/1000 time ratio {ratio:.2f} (bound 5), "
        "every DP row fits in n bits on every run",
    )
