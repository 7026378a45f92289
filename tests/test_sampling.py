import numpy as np
import pytest
from scipy import stats

from dskg.sampling import (
    log_uniform_probs,
    log_uniform_raw,
    log_uniform_sample,
    negatives_for_batch,
)


class TestAnalyticLaw:
    def test_pmf_sums_to_one(self):
        for n in (2, 10, 1000):
            assert np.isclose(log_uniform_probs(n).sum(), 1.0, atol=1e-12)

    def test_pmf_matches_formula(self):
        probs = log_uniform_probs(5)
        for j in range(5):
            assert np.isclose(probs[j], np.log((j + 2) / (j + 1)) / np.log(6))


class TestRawDraws:
    def test_head_frequency(self):
        rng = np.random.default_rng(0)
        draws = log_uniform_raw(1000, 1_000_000, rng)
        freq0 = np.mean(draws == 0)
        assert abs(freq0 - np.log(2) / np.log(1001)) < 0.005

    def test_monotone_frequencies(self):
        rng = np.random.default_rng(1)
        draws = log_uniform_raw(50, 2_000_000, rng)
        counts = np.bincount(draws, minlength=50)
        # smooth over neighbors to keep sampling noise from flipping the order
        assert np.all(counts[:-5] >= counts[5:])

    def test_range(self):
        rng = np.random.default_rng(2)
        draws = log_uniform_raw(7, 10_000, rng)
        assert draws.min() >= 0 and draws.max() <= 6


class TestDistinctSample:
    def test_forced_case(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = log_uniform_sample(2, 1, 0, rng)
            assert list(out) == [1]

    def test_exhaustive_case(self):
        rng = np.random.default_rng(0)
        out = log_uniform_sample(6, 5, 3, rng)
        assert sorted(out) == [0, 1, 2, 4, 5]

    def test_distinct_and_excluded(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            out = log_uniform_sample(20, 8, 4, rng)
            assert len(set(out)) == 8
            assert 4 not in out

    def test_no_exclusion_mode(self):
        rng = np.random.default_rng(4)
        out = log_uniform_sample(10, 10, None, rng)
        assert sorted(out) == list(range(10))

    def test_count_too_large(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            log_uniform_sample(5, 5, 0, rng)

    def test_heavy_fraction_path_distinct(self):
        rng = np.random.default_rng(5)
        out = log_uniform_sample(100, 80, 7, rng)
        assert len(set(out)) == 80 and 7 not in out


class TestTypeBasedNegatives:
    def test_entity_kind(self):
        rng = np.random.default_rng(0)
        out = log_uniform_sample(50, 8, 3, rng)  # entity lexicon of 50
        assert len(out) == 8
        assert out.max() < 50 and 3 not in out

    def test_relation_kind_exhaustive(self):
        # a 36-relation lexicon with 35 negatives leaves no choice
        rng = np.random.default_rng(0)
        out = log_uniform_sample(36, 35, 7, rng)
        assert sorted(out) == [r for r in range(36) if r != 7]

    def test_exclusion_holds_over_many_trials(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 30, size=2000)
        negs = negatives_for_batch(labels, 30, 5, rng)
        assert not np.any(negs == labels[:, None])


class TestDistribution:
    @pytest.mark.parametrize("lexicon_size", [10, 100, 1000])
    def test_chi_square_not_rejected(self, lexicon_size):
        rng = np.random.default_rng(lexicon_size)
        draws = log_uniform_raw(lexicon_size, 1_000_000, rng)
        observed = np.bincount(draws, minlength=lexicon_size)
        expected = log_uniform_probs(lexicon_size) * len(draws)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        critical = stats.chi2.ppf(1 - 0.001, df=lexicon_size - 1)
        assert chi2 < critical, f"chi2={chi2:.1f} exceeds critical {critical:.1f}"


def rejection_oracle(lexicon_size, count, exclude, rng):
    """The rejection path as a per-candidate loop: whole chunks of raw draws,
    each accepted in draw order unless already taken or excluded.
    Returns the ids and the number of chunks drawn."""
    seen = np.zeros(lexicon_size, dtype=bool)
    if exclude is not None:
        seen[exclude] = True
    out, chunks = [], 0
    while len(out) < count:
        chunks += 1
        for candidate in log_uniform_raw(lexicon_size, max(2 * count, 16), rng):
            if len(out) < count and not seen[candidate]:
                seen[candidate] = True
                out.append(int(candidate))
    return np.array(out, dtype=np.int64), chunks


class TestRejectionPath:
    def test_pinned_draws_and_generator_state(self):
        cases = multi_chunk = 0
        for lexicon_size in (3, 7, 20, 101, 1000, 14541):
            for count in sorted({1, 2, lexicon_size // 8, lexicon_size // 3, lexicon_size // 2}):
                for exclude in (None, 0, lexicon_size - 1):
                    if not 1 <= count <= lexicon_size // 2:  # the rejection path's range
                        continue
                    for seed in range(3):
                        want_rng = np.random.default_rng(seed)
                        got_rng = np.random.default_rng(seed)
                        want, chunks = rejection_oracle(lexicon_size, count, exclude, want_rng)
                        got = log_uniform_sample(lexicon_size, count, exclude, got_rng)
                        assert got.dtype == np.int64
                        np.testing.assert_array_equal(got, want)
                        assert got_rng.bit_generator.state == want_rng.bit_generator.state
                        cases += 1
                        multi_chunk += chunks > 1
        assert cases > 200 and multi_chunk > 20


class TestDistinctLaw:
    @pytest.mark.parametrize("count", [2, 4], ids=["rejection", "renormalized_choice"])
    @pytest.mark.parametrize("exclude", [None, 1])
    def test_ordered_pair_law(self, count, exclude):
        """The first two ids follow successive renormalized draws:
        P(i, j) = q_i q_j / (1 - q_i), q the log-uniform law without ``exclude``."""
        lexicon_size, trials = 6, 20_000
        rng = np.random.default_rng(count * 10 + (exclude or 0))
        q = log_uniform_probs(lexicon_size)
        if exclude is not None:
            q[exclude] = 0.0
        q /= q.sum()
        expected = q[:, None] * q[None, :] / (1.0 - q[:, None])
        np.fill_diagonal(expected, 0.0)
        observed = np.zeros((lexicon_size, lexicon_size))
        for _ in range(trials):
            first, second = log_uniform_sample(lexicon_size, count, exclude, rng)[:2]
            observed[first, second] += 1
        cells = expected > 0
        assert observed[~cells].sum() == 0
        expected = expected[cells] * trials
        chi2 = float(((observed[cells] - expected) ** 2 / expected).sum())
        critical = stats.chi2.ppf(1 - 0.001, df=cells.sum() - 1)
        assert chi2 < critical, f"chi2={chi2:.1f} exceeds critical {critical:.1f}"
