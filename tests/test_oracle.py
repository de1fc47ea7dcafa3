import itertools
import json

import pytest
from hypothesis import given, settings

from pdce import (
    BoundExceeded,
    InternalCaseError,
    NotFoundWithinBudget,
    classify,
    DirPath,
    Embedding,
    PreconditionViolated,
    SetTag,
    brute_force_pdce,
    certificate,
    count_plane_spanning_paths,
    decide_pdce,
    enumerate_planar_embeddings,
    generate_random_convex,
    load_counterexample,
    check_planarity_prefix,
    search_counterexample,
    check_planarity_segments,
    validate,
    validate_embedding,
)
from pdce import oracle
from conftest import instances

TRI = validate([(0, 0), (2, 3), (4, 1)])


def test_planar_embedding_counts():
    assert len(enumerate_planar_embeddings(TRI)) == 6
    s4 = generate_random_convex(4, seed=3)
    assert len(enumerate_planar_embeddings(s4)) == 16
    s7 = generate_random_convex(7, seed=3)
    assert len(enumerate_planar_embeddings(s7)) == 224


@pytest.mark.parametrize("n", range(2, 11))
def test_planar_embedding_count_formula(n):
    s = generate_random_convex(n, seed=n)
    assert len(enumerate_planar_embeddings(s)) == n * 2 ** (n - 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerator_matches_permutation_filter(n):
    s = generate_random_convex(n, seed=17 + n)
    got = {e.assignment for e in enumerate_planar_embeddings(s)}
    want = {
        perm
        for perm in itertools.permutations(range(n))
        if check_planarity_segments(s, Embedding(perm))
    }
    assert got == want
    # same embeddings pass the incremental-prefix characterisation
    for perm in want:
        assert check_planarity_prefix(s, Embedding(perm))


def test_plane_spanning_path_counts():
    assert count_plane_spanning_paths(TRI) == 3
    for n in (4, 7, 10):
        s = generate_random_convex(n, seed=n)
        assert count_plane_spanning_paths(s) == n * 2 ** (n - 3)


def test_plane_spanning_path_preconditions():
    with pytest.raises(PreconditionViolated):
        count_plane_spanning_paths(validate([(0, 0), (1, 1)]))
    with pytest.raises(BoundExceeded, match=r"n=17 \(bound 16\)"):
        count_plane_spanning_paths(generate_random_convex(17, seed=0))


def test_enumeration_bound():
    assert (oracle.ENUMERATION_BOUND, oracle.BRUTE_FORCE_BOUND) == (16, 20)
    s17 = generate_random_convex(17, seed=0)
    with pytest.raises(BoundExceeded, match=r"n=17 \(bound 16\)"):
        enumerate_planar_embeddings(s17)
    with pytest.raises(BoundExceeded, match=r"n=17 \(bound 16\)"):
        certificate(DirPath("U" * 16), s17)
    with pytest.raises(BoundExceeded, match=r"n=21 \(bound 20\)"):
        brute_force_pdce(DirPath("U" * 20), generate_random_convex(21, seed=0))


def test_brute_force_on_fixture_is_empty():
    p, s, _ = load_counterexample()
    assert brute_force_pdce(p, s) == []


def test_brute_force_empty_path():
    s = validate([(5, 5)])
    hits = brute_force_pdce(DirPath(""), s)
    assert [h.assignment for h in hits] == [(0,)]


@settings(max_examples=40)
@given(instances(min_n=1, max_n=7))
def test_brute_force_matches_direct_filter(inst):
    p, s = inst
    got = {h.assignment for h in brute_force_pdce(p, s)}
    want = {
        e.assignment
        for e in enumerate_planar_embeddings(s)
        if validate_embedding(p, s, e).direction_consistent
    }
    assert got == want


def test_certificate_matches_fixture():
    p, s, doc = load_counterexample()
    cert = certificate(p, s)
    assert cert["planar_count"] == 224 == doc["planar_count"]
    assert cert["pdce_count"] == 0 == doc["pdce_count"]
    assert cert["certificate_sha256"] == doc["certificate_sha256"]
    # deterministic: recomputing yields the identical digest
    assert certificate(p, s)["certificate_sha256"] == cert["certificate_sha256"]


def test_certificate_counts_small():
    cert = certificate(DirPath("UD"), TRI)
    assert cert["planar_count"] == 6
    assert cert["pdce_count"] == 2


def test_search_finds_left_sided_counterexample():
    p = DirPath("LULRDR")
    s = search_counterexample(path=p, seed=0)
    assert SetTag.LEFT_SIDED in classify(s)
    assert decide_pdce(p, s) is None
    assert brute_force_pdce(p, s) == []


def test_search_is_deterministic():
    a = search_counterexample(seed=0)
    b = search_counterexample(seed=0)
    assert a.points == b.points


def test_search_futile_path_exhausts_budget():
    with pytest.raises(NotFoundWithinBudget):
        search_counterexample(path=DirPath("UUUUUU"), budget=500, seed=0)


def test_search_futile_family_exhausts_budget():
    with pytest.raises(NotFoundWithinBudget):
        search_counterexample(mode="quarter_inc", budget=300, seed=0)


def test_search_guards(monkeypatch):
    # A NO that the brute force refutes is a bug in the decider, not a find.
    with monkeypatch.context() as m:
        m.setattr(oracle, "decide_pdce", lambda p, s: None)
        with pytest.raises(InternalCaseError, match="decision procedure and exhaustive search"):
            search_counterexample(budget=5, seed=0)

    # A sampler whose every draw is rejected gives up on each candidate, and
    # the budget runs out.
    def reject(coords):
        raise PreconditionViolated("rejected")

    monkeypatch.setattr(oracle, "validate", reject)
    with pytest.raises(NotFoundWithinBudget):
        search_counterexample(budget=3, seed=0)


def test_search_rejects_unknown_mode():
    with pytest.raises(PreconditionViolated):
        search_counterexample(mode="spiral", budget=10, seed=0)


@pytest.mark.parametrize("budget", [0, -5])
def test_search_rejects_budget_below_one(budget):
    # An empty search proves nothing, so it must not read as "none found".
    with pytest.raises(PreconditionViolated, match="budget"):
        search_counterexample(budget=budget, seed=0)


def test_load_counterexample_roundtrip():
    p, s, doc = load_counterexample()
    assert p.labels == doc["path"] == "LULRDR"
    assert [list(pt) for pt in ((q.x, q.y) for q in s.points)] == doc["points"]
    assert s.n == 7
