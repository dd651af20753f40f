import numpy as np
import pytest

from gpextremes import DomainError, RngStream, derive_stream


def test_same_inputs_same_stream():
    a = derive_stream(123, "paths", 4)
    b = derive_stream(123, "paths", 4)
    assert a == b
    ga, gb = a.generator(), b.generator()
    assert np.array_equal(ga.standard_normal(1000), gb.standard_normal(1000))


def test_distinct_indices_differ():
    a = derive_stream(123, "paths", 0).generator().standard_normal(1000)
    b = derive_stream(123, "paths", 1).generator().standard_normal(1000)
    assert not np.array_equal(a, b)


def test_distinct_tags_differ():
    a = derive_stream(123, "paths", 7).generator().standard_normal(1000)
    b = derive_stream(123, "ewv", 7).generator().standard_normal(1000)
    assert not np.array_equal(a, b)


def test_tag_validation():
    with pytest.raises(DomainError):
        derive_stream(1, "", 0)
    with pytest.raises(DomainError):
        derive_stream(1, "x" * 33, 0)
    with pytest.raises(DomainError):
        derive_stream(1, "ok", -1)
    with pytest.raises(DomainError):
        derive_stream(-5, "ok", 0)
    with pytest.raises(DomainError):
        derive_stream(1 << 64, "ok", 0)


def test_child_streams_are_reproducible_and_distinct():
    base = RngStream(42, 9)
    c1 = base.child("block", 0)
    c2 = base.child("block", 1)
    assert c1 == base.child("block", 0)
    assert c1 != c2 and c1 != base
    x1 = c1.generator().standard_normal(100)
    x2 = c2.generator().standard_normal(100)
    assert not np.array_equal(x1, x2)


def test_generator_replays():
    s = RngStream(7, 3)
    assert np.array_equal(s.generator().standard_normal(50), s.generator().standard_normal(50))


@pytest.mark.parametrize(
    "build",
    [
        lambda: RngStream(1.5),
        lambda: RngStream("12"),
        lambda: RngStream(2, 3.7),
        lambda: RngStream(2, "3"),
        lambda: RngStream(2, 1 << 64),
        lambda: derive_stream(5, "x", 2.5),
        lambda: derive_stream(5.0, "x", 2),
        lambda: derive_stream(5, "x", "2"),
        lambda: RngStream(True),
        lambda: RngStream(2, False),
        lambda: derive_stream(5, "x", True),
    ],
    ids=[
        "float-seed",
        "str-seed",
        "float-id",
        "str-id",
        "wide-id",
        "float-index",
        "float-seed-derived",
        "str-index",
        "bool-seed",
        "bool-id",
        "bool-index",
    ],
)
def test_seeds_ids_and_indexes_are_integers(build):
    # int() used to truncate or parse them: RngStream(1.5) == RngStream(1)
    with pytest.raises(DomainError):
        build()


def test_numpy_integers_are_seeds():
    assert RngStream(np.uint64(7), np.int32(3)) == RngStream(7, 3)
    assert derive_stream(np.int64(5), "x", np.int8(2)) == derive_stream(5, "x", 2)
