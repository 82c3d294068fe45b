"""The detector's running sums against the windowed recomputation.

``PhiAccrualDetector.phi`` reads a running Σx / Σx² per peer instead of
re-deriving mean and variance from the window on every call.  The
reference below is that recomputation, kept here as the oracle.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.resilience import PhiAccrualDetector


def _windowed_phi(arrivals, now, *, window, min_std, bootstrap):
    """``phi`` recomputed from the last ``window`` inter-arrival times."""
    last = arrivals[-1]
    elapsed = now - last
    if elapsed <= 0:
        return 0.0
    samples = deque(
        (b - a for a, b in zip(arrivals, arrivals[1:]) if b > a), maxlen=window
    )
    if samples:
        mean = sum(samples) / len(samples)
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        std = max(math.sqrt(variance), min_std, mean * 0.1)
    else:
        mean = bootstrap
        std = max(min_std, mean * 0.5)
    survival = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
    return -math.log10(max(survival, 1e-300))


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=1, max_size=120
    ),
    window=st.integers(min_value=2, max_value=16),
    silence=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    min_std=st.sampled_from([0.001, 0.01, 0.05]),
    bootstrap=st.sampled_from([0.05, 0.1, 0.5]),
)
def test_running_sums_match_windowed_recomputation(gaps, window, silence, min_std, bootstrap):
    # Up to 120 arrivals through windows of 2..16: most sequences evict,
    # many turn the window over several times.
    detector = PhiAccrualDetector(window=window, min_std=min_std, bootstrap_interval=bootstrap)
    arrivals = []
    now = 0.0
    for gap in gaps:
        now += gap
        detector.heartbeat(7, now)
        arrivals.append(now)
        probe = now + silence
        expected = _windowed_phi(
            arrivals, probe, window=window, min_std=min_std, bootstrap=bootstrap
        )
        assert math.isclose(detector.phi(7, probe), expected, rel_tol=1e-9, abs_tol=1e-9)


def test_sums_do_not_keep_the_residue_of_evicted_samples():
    # One huge interval followed by small uneven ones: next to 1e8² the
    # small squares vanish from the running Σx², and subtracting 1e8²
    # again does not bring them back — the sums stay wrong by more than
    # the small samples' whole variance until they are retaken.
    detector = PhiAccrualDetector(window=4, min_std=1e-6)
    arrivals = [0.0, 1e8]
    for step in range(10):
        arrivals.append(arrivals[-1] + (1e-3 if step % 2 else 3e-3))
    for now in arrivals:
        detector.heartbeat(1, now)
    probe = arrivals[-1] + 0.004
    expected = _windowed_phi(arrivals, probe, window=4, min_std=1e-6, bootstrap=0.1)
    assert math.isclose(detector.phi(1, probe), expected, rel_tol=1e-6)


def test_release_clears_and_forgets():
    detector = PhiAccrualDetector(threshold=8.0)
    for i in range(10):
        detector.heartbeat(3, i * 0.05)
    (raised,) = detector.evaluate(5.0)
    assert raised.active and detector.suspected(3)
    cleared = detector.release(3, 5.5)
    assert cleared is raised and cleared.cleared_at == 5.5
    assert not detector.suspected(3)
    # Forgotten: no clock, so no phi and nothing to evaluate, however long
    # the silence — until the next heartbeat starts a fresh window.
    assert detector.phi(3, 1e6) == 0.0
    assert detector.evaluate(1e6) == []
    assert detector.release(3, 1e6) is None
    detector.heartbeat(3, 1e6)
    assert detector.phi(3, 1e6 + 5.0) >= 8.0
    assert [s["cleared_at"] for s in detector.summary()] == [5.5]
