"""Small-sample statistics the suite reports: quartiles, fixed-block
segment rates, percentiles chosen by sample count, de-quantised digest
percentiles and the host-noise sentinel.

Everything here is pure (no repro imports) so the self-tests can pin the
arithmetic without bringing a cluster up.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Percentile ladder for :func:`tail_percentile`, highest first.
_TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0)

#: ``repro.clients.stats.LatencyDigest`` bucket geometry: bucket 0 holds
#: everything up to ``_DIGEST_MIN``; bucket ``i >= 1`` covers
#: ``[_DIGEST_MIN * g**(i-1), _DIGEST_MIN * g**i)``.
_DIGEST_MIN = 1e-5
_DIGEST_GROWTH = 1.05


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them — the same rule the acceptance check applies to ten runs."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def segment_rates(stamps: Sequence[float], segment: int) -> List[float]:
    """Events per second over consecutive full ``segment``-event windows.

    ``stamps[i]`` is the time of event ``i``; ``stamps[0]`` is the event
    that *ends* warm-up, so a segment of 100 blocks spans ``stamps[0]`` to
    ``stamps[100]``.  A trailing partial segment is dropped.
    """
    rates = []
    for start in range(0, len(stamps) - segment, segment):
        elapsed = stamps[start + segment] - stamps[start]
        rates.append(segment / elapsed if elapsed > 0 else math.inf)
    return rates


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it."""
    for q in _TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def digest_percentile(digest: Mapping[str, object], q: float) -> float:
    """``q``-th percentile (0–100), in seconds, of a serialised
    ``LatencyDigest``, interpolated *inside* the bucket that holds it.

    ``LatencyDigest.percentile`` returns the bucket's geometric midpoint,
    so its answers move in 5 % steps; spreading the bucket's samples
    evenly over its (log-scale) width recovers a continuous value.
    """
    count = int(digest.get("count", 0))  # type: ignore[arg-type]
    if count <= 0:
        raise ValueError("empty digest")
    target = count * q / 100.0
    seen = 0
    indices = list(digest["bucket_index"])  # type: ignore[arg-type]
    counts = list(digest["bucket_count"])  # type: ignore[arg-type]
    low_clamp = float(digest.get("min") or 0.0)  # type: ignore[arg-type]
    high_clamp = float(digest.get("max") or math.inf)  # type: ignore[arg-type]
    for index, held in zip(indices, counts):
        if seen + held >= target:
            inside = (target - seen) / held
            if index == 0:
                value = _DIGEST_MIN * inside
            else:
                value = _DIGEST_MIN * _DIGEST_GROWTH ** (index - 1 + inside)
            return min(max(value, low_clamp), high_clamp)
        seen += held
    return high_clamp


def summarize_digest(digest: Mapping[str, object]) -> Dict[str, float]:
    """Median plus the tail percentile the sample count supports, of a
    serialised digest, in milliseconds."""
    count = int(digest.get("count", 0))  # type: ignore[arg-type]
    summary: Dict[str, float] = {"count": count}
    if count:
        summary["p50"] = 1000.0 * digest_percentile(digest, 50.0)
        tail = tail_percentile(count)
        if tail is not None:
            summary["tail_q"] = tail
            summary["tail"] = 1000.0 * digest_percentile(digest, tail)
    return summary


def spin_ms(iterations: int = 3_000_000) -> float:
    """The host-noise sentinel: wall milliseconds of a fixed pure-Python
    loop (~0.2–0.3 s).  Interference from the host only ever makes it
    slower, so a run whose sentinel sits well above the set's best was
    measured during a slow phase of the machine."""
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i & 7
    return (time.perf_counter() - started) * 1000.0


def flag_noisy(sentinels: Sequence[float], tolerance: float = 0.15) -> List[bool]:
    """True for each sentinel more than ``tolerance`` above the best."""
    best = min(sentinels)
    return [value > best * (1.0 + tolerance) for value in sentinels]
