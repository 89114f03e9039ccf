import numpy as np
import pytest

from emplab.streams import as_seed_path, child_path, rng_from_path, stream_tag


def test_same_path_same_stream():
    a = rng_from_path((123, 4, 5), "X").standard_normal(16)
    b = rng_from_path((123, 4, 5), "X").standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_tags_distinct_streams():
    a = rng_from_path((123, 4, 5), "X").standard_normal(16)
    b = rng_from_path((123, 4, 5), "xi").standard_normal(16)
    c = rng_from_path((123, 4, 5), "eps").standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_distinct_indices_distinct_streams():
    a = rng_from_path((123, 4, 5), "X").standard_normal(16)
    b = rng_from_path((123, 4, 6), "X").standard_normal(16)
    c = rng_from_path((124, 4, 5), "X").standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bare_int_is_master_seed():
    assert as_seed_path(7) == (7,)
    a = rng_from_path(7, "X").standard_normal(4)
    b = rng_from_path((7,), "X").standard_normal(4)
    assert np.array_equal(a, b)


def test_child_path_appends_indices():
    assert child_path((1, 2), 3, 4) == (1, 2, 3, 4)
    assert child_path(9, 0) == (9, 0)


def test_string_tags_are_stable_and_distinct():
    assert stream_tag("X") == 1
    assert stream_tag(42) == 42
    t1 = stream_tag("some custom stream")
    t2 = stream_tag("some custom stream")
    assert t1 == t2
    assert t1 != stream_tag("another stream")


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        as_seed_path(())


def test_generator_is_sfc64_and_pinned():
    # every stream of every experiment rests on this generator and derivation
    rng = rng_from_path((123, 4, 5), "X")
    assert isinstance(rng.bit_generator, np.random.SFC64)
    assert rng.standard_normal(4).tolist() == [
        -1.9430554167901395, 0.5312614418194779, -0.8730186492716061, -0.5189601150531785]
