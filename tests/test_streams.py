import numpy as np
import pytest

from emplab.streams import TAGS, rng_from_path


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


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        rng_from_path((), "X")


@pytest.mark.parametrize("tag", [1, "directions", "some custom stream"])
def test_tag_must_be_a_name_in_TAGS(tag):
    with pytest.raises(KeyError):
        rng_from_path((123, 4, 5), tag)


# the first four gaussians of each named stream on (123, 4, 5)
PINNED = {
    "X": [-1.9430554167901395, 0.5312614418194779, -0.8730186492716061, -0.5189601150531785],
    "xi": [0.12982079713305553, 0.40533398791177067, 1.443805649969751, 0.3432995703897386],
    "eps": [-0.2045516332924926, 0.77375953063666, -0.9069343219507435, 0.7005994680195716],
    "gaussian": [0.2031457662037686, -0.294233566795602, 0.5935486221897615, 0.9958020000545679],
    "probe": [1.0275347499282543, 0.7591438998137964, 1.182061777685856, -0.7940378506775788],
    "ground_truth": [
        0.7490453465266981, -0.7194309306370996, -0.37238011616118905, -0.6366587989662239],
}


def test_every_tag_is_pinned():
    assert sorted(PINNED) == sorted(TAGS)


@pytest.mark.parametrize("tag", sorted(PINNED))
def test_generator_is_sfc64_and_pinned(tag):
    # every stream of every experiment rests on this generator and derivation
    rng = rng_from_path((123, 4, 5), tag)
    assert isinstance(rng.bit_generator, np.random.SFC64)
    assert rng.standard_normal(4).tolist() == PINNED[tag]
