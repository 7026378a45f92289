import numpy as np
import pytest
from hypothesis import settings

from dskg import data, training

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture
def fix_negatives(monkeypatch):
    """``fix_negatives(*sets)`` makes every training step draw ``sets``.

    Replaces the sampler names ``training`` calls, ``log_uniform_sample``
    (a ``(k,)`` set shared by the batch) and ``negatives_for_batch`` (a
    ``(B, k)`` set per row), with one that hands out the sets in draw order,
    entity set then relation set, starting over after the last, so repeated
    loss calls see the same negatives. Each set must have the shape the step
    asks for, and the test fails unless every set was handed out in every
    round.
    """
    sets, handed = [], 0

    def draw(shape, lexicon_size):
        nonlocal handed
        negatives = sets[handed % len(sets)]
        assert negatives.shape == shape, (negatives.shape, shape)
        assert 0 <= negatives.min() and negatives.max() < lexicon_size
        handed += 1
        return negatives

    def install(*given):
        sets.extend(np.asarray(s, dtype=np.int64) for s in given)
        monkeypatch.setattr(training, "log_uniform_sample",
                            lambda size, count, exclude, rng: draw((count,), size))
        monkeypatch.setattr(training, "negatives_for_batch",
                            lambda labels, size, count, rng: draw((len(labels), count), size))

    yield install
    if sets:
        assert handed and handed % len(sets) == 0, (
            f"{handed} sets handed out in rounds of {len(sets)}: a set was left unused")


@pytest.fixture
def tiny_dataset():
    train = data.parse_triples(
        [
            "a\tp\tb",
            "c\tp\tb",
            "a\tq\tc",
            "b\tq\td",
            "d\tp\ta",
        ]
    )
    valid = [data.RawTriple("a", "p", "c")]
    test = [data.RawTriple("c", "q", "b")]
    return data.index_dataset(train, valid, test)


@pytest.fixture
def inverse_pair_files(tmp_path):
    """Train/test splits holding one contains/containedby inverse pair."""
    (tmp_path / "train.txt").write_text(
        "USA\tcontains\tNewYorkCity\n"
        "France\tcontains\tParis\n"
        "Paris\tcontainedby\tFrance\n",
        encoding="utf-8",
    )
    (tmp_path / "valid.txt").write_text("France\tcontains\tParis\n", encoding="utf-8")
    (tmp_path / "test.txt").write_text("NewYorkCity\tcontainedby\tUSA\n", encoding="utf-8")
    return tmp_path
