"""Segment rates, quartiles, percentiles by rule, digest interpolation."""

import math
import statistics

import pytest

from repro.clients.stats import LatencyDigest

from compare import verdict
from stats import (
    digest_percentile,
    flag_noisy,
    quartiles,
    segment_rates,
    spread,
    summarize_digest,
    tail_percentile,
)


def test_segment_rates_use_whole_segments_and_drop_the_remainder():
    # 100 blocks/s for 200 blocks, then 50 blocks/s for 100, then 30 stray blocks.
    stamps = [i / 100.0 for i in range(201)]
    stamps += [2.0 + i / 50.0 for i in range(1, 101)]
    stamps += [4.0 + i / 10.0 for i in range(1, 31)]
    rates = segment_rates(stamps, 100)
    assert rates == pytest.approx([100.0, 100.0, 50.0])
    assert statistics.median(rates) == pytest.approx(100.0)


def test_segment_rates_need_one_more_stamp_than_blocks():
    assert segment_rates([0.0, 1.0], 2) == []
    assert segment_rates([0.0, 1.0, 2.0], 2) == [1.0]


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, statistics.median(values), q3)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0) and spread([7.0]) == 0.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(50) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(31_363) == 99.9


def test_digest_percentiles_are_continuous_inside_a_bucket():
    digest = LatencyDigest()
    samples = [0.0170 + i * 2e-6 for i in range(1000)]  # 17.0 .. 19.0 ms
    for sample in samples:
        digest.record(sample)
    document = digest.to_dict()
    exact = statistics.median(samples)
    # The program's own answer is a bucket midpoint; ours interpolates.
    assert abs(digest_percentile(document, 50.0) - exact) < abs(digest.percentile(0.5) - exact)
    assert digest_percentile(document, 50.0) == pytest.approx(exact, rel=0.01)
    # Strictly increasing in q, where bucket midpoints move in 5 % steps.
    steps = [digest_percentile(document, q) for q in (40.0, 45.0, 50.0, 55.0, 60.0)]
    assert steps == sorted(steps) and len(set(steps)) == 5
    assert digest_percentile(document, 100.0) <= max(samples)
    summary = summarize_digest(document)
    assert summary["count"] == 1000 and summary["tail_q"] == 99.0
    assert summary["p50"] == pytest.approx(1000.0 * exact, rel=0.01)


def test_digest_percentile_rejects_an_empty_digest():
    with pytest.raises(ValueError):
        digest_percentile(LatencyDigest().to_dict(), 50.0)
    assert summarize_digest(LatencyDigest().to_dict()) == {"count": 0}


def test_noisy_runs_are_flagged_against_the_best_sentinel():
    assert flag_noisy([200.0, 225.0, 231.0, 290.0]) == [False, False, True, True]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.02 for v in steady], "higher", 0.10)[0] == "within"
    assert verdict(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "worse"
    assert verdict(steady, [v * 0.80 for v in steady], "lower", 0.10)[0] == "better"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert verdict(steady, noisy, "higher", 0.10)[0] == "unresolved"
    outcome, worsening = verdict([10.0], [12.0], "lower", 0.25)
    assert outcome == "within" and math.isclose(worsening, 0.2)
