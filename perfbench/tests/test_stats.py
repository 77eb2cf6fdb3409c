import pytest

from perfbench.stats import Tally, percentile, round_summary, summary


def test_percentile_is_nearest_rank_on_raw_samples():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5, 1, 3], 50) == 3
    # Nearest rank never interpolates between samples.
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([10, 1000], 99) == 1000


def test_percentile_does_not_round_to_bucket_edges():
    values = [3.7, 5100.0, 6000.0, 70000.0]
    assert percentile(values, 50) == 5100.0
    assert percentile(values, 75) == 6000.0


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_summary_carries_the_sample_count():
    got = summary([4000, 1000, 2000, 3000], scale=1e-3)
    assert got == {"n": 4, "p50": 2.0, "p99": 4.0}
    assert summary([]) == {"n": 0, "p50": 0.0, "p99": 0.0}


def test_tally_share_and_correctness():
    tally = Tally()
    tally.add(10)
    assert tally.correct and tally.fail_share == 0
    tally.add(10, 1, "wrong answer")
    assert not tally.correct
    assert tally.fail_share == pytest.approx(1 / 20)
    assert tally.reasons == {"wrong answer": 1}
    assert not Tally().correct


def test_round_summary_takes_the_median_over_rounds():
    rounds = [[1, 2, 3], [10, 20, 30], [2, 3, 4], []]
    got = round_summary(rounds)
    # Per-round p50s are 2, 20 and 3; p99s are 3, 30 and 4.
    assert got == {"n": 9, "rounds": 3, "p50": 3, "p99": 4}
    assert round_summary([[]]) == {"n": 0, "p50": 0.0, "p99": 0.0}
