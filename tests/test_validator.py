import itertools

import numpy as np
import pytest
from hypothesis import given

from pdce import (
    DirPath,
    Embedding,
    InvalidEmbedding,
    Point,
    SizeMismatch,
    check_direction_consistency,
    check_planarity_prefix,
    check_planarity_segments,
    edge_ok,
    generate_random_convex,
    validate,
    validate_embedding,
)
from conftest import convex_sets

S5 = validate([(4, 0), (3, 6), (1, 5), (0, 3), (2, 1)])
# canonical order: (3,6),(1,5),(0,3),(2,1),(4,0)
URDU_E = Embedding((2, 1, 3, 4, 0))  # v1..v5 -> (0,3),(1,5),(2,1),(4,0),(3,6)


def test_edge_ok_strict():
    a, b = Point(0, 0), Point(1, 1)
    assert edge_ok("U", a, b) and edge_ok("R", a, b)
    assert not edge_ok("D", a, b) and not edge_ok("L", a, b)
    assert edge_ok("D", b, a) and edge_ok("L", b, a)
    # ties never pass
    assert not edge_ok("U", Point(0, 0), Point(1, 0))
    assert not edge_ok("R", Point(0, 0), Point(0, 1))


def test_direction_consistency_frozen_example():
    ok, bad = check_direction_consistency(DirPath("URDU"), S5, URDU_E)
    assert ok and bad is None


def test_direction_violation_reports_first_edge():
    s = validate([(0, 0), (1, 1)])
    ok, bad = check_direction_consistency(DirPath("U"), s, Embedding((0, 1)))
    assert not ok and bad == 0  # edge v1->v2 points down


def test_single_point_consistent():
    s = validate([(7, 7)])
    ok, bad = check_direction_consistency(DirPath(""), s, Embedding((0,)))
    assert ok and bad is None


def test_prefix_frozen_example():
    assert check_planarity_prefix(S5, URDU_E)
    assert check_planarity_segments(S5, URDU_E)


def test_prefix_violation_on_square():
    s = validate([(1, 10), (-5, 5), (0, 0), (5, 4)])
    e = Embedding((0, 2, 1, 3))
    assert not check_planarity_prefix(s, e)
    assert not check_planarity_segments(s, e)
    report = validate_embedding(DirPath("DUD"), s, e)
    assert report.first_violation == ("prefix", 1)


def test_three_points_always_planar():
    s = generate_random_convex(3, seed=9)
    for perm in itertools.permutations(range(3)):
        assert check_planarity_prefix(s, Embedding(perm))
        assert check_planarity_segments(s, Embedding(perm))


@given(convex_sets(min_n=4, max_n=6))
def test_prefix_equals_segments_exhaustive(s):
    for perm in itertools.permutations(range(s.n)):
        e = Embedding(perm)
        assert check_planarity_prefix(s, e) == check_planarity_segments(s, e)


def test_report_direction_first():
    # direction breaks before planarity in the report ordering
    s = validate([(1, 10), (-5, 5), (0, 0), (5, 4)])
    report = validate_embedding(DirPath("UUU"), s, Embedding((0, 2, 1, 3)))
    assert report.first_violation[0] == "direction"
    assert not report.is_pdce
    d = report.to_json_dict()
    assert d["is_pdce"] is False and d["first_violation"][0] == "direction"


def test_is_pdce_on_frozen_example():
    report = validate_embedding(DirPath("URDU"), S5, URDU_E)
    assert report.is_pdce and report.first_violation is None


def test_malformed_embeddings_rejected():
    with pytest.raises(InvalidEmbedding):
        validate_embedding(DirPath("URDU"), S5, Embedding((0, 1, 2, 3)))
    with pytest.raises(InvalidEmbedding):
        validate_embedding(DirPath("URDU"), S5, Embedding((0, 1, 2, 3, 3)))
    with pytest.raises(InvalidEmbedding):
        validate_embedding(DirPath("URDU"), S5, Embedding((0, 1, 2, 3, 9)))


def test_non_int_indices_rejected():
    # True == 1, so this is URDU_E with its vertex 2 spelled as a bool
    bool_e = Embedding((2, True, 3, 4, 0))
    numpy_e = Embedding(tuple(np.array(URDU_E.assignment)))
    for e in (bool_e, numpy_e):
        with pytest.raises(InvalidEmbedding, match="not a plain int"):
            validate_embedding(DirPath("URDU"), S5, e)
        with pytest.raises(InvalidEmbedding, match="not a plain int"):
            check_planarity_prefix(S5, e)


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        validate_embedding(DirPath("U"), S5, URDU_E)
