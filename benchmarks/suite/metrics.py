"""The suite's metric catalogue — the single list ``BENCHMARK.json``, the
run output and ``compare`` all agree on (a self-test pins the three).

End-to-end metrics are what a user of the system sees; every workload
reports every one of them, each with the bound by which a later change
may worsen it.  Per-layer metrics come from the separate traced run and
carry no bound.  Definitions are in ``README.md``.
"""

from __future__ import annotations

from typing import List, Tuple

#: ``(name, unit, better, bound)`` — bound is a share of the parent's median.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("blocks_per_s", "1/s", "higher", 0.25),
    ("goodput_ops_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_block", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("qc_inclusion_pct", "%", "higher", 0.10),
    ("views_ok_pct", "%", "higher", 0.02),
    ("commit_latency_p50_ms", "ms", "lower", 0.25),
    ("commit_latency_p99_ms", "ms", "lower", 0.25),
)

#: Client-ladder offered rates (ops/s).  Latency is read at the reference
#: rate, well below the knee (~2350 ops/s at batch_size=10: at 2000 the
#: p99 already swings 26-78 ms between seeds); 6000 is deliberate overload.
LADDER_RATES = (1000, 2000, 3000, 4000, 6000)
REFERENCE_RATE = 1000
OVERLOAD_RATE = 6000

#: Layers whose spans make up the per-block budget, in report order.
LAYERS = ("crypto", "codec", "mempool", "aggregation", "replica", "fabric", "live", "simnet")


def _per_layer() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []

    def add(unit: str, better: str, *names: str) -> None:
        rows.extend((name, unit, better) for name in names)

    for op in ("sign", "verify_share", "verify_aggregate", "aggregate"):
        add("count", "lower", f"crypto.{op}.calls_per_block")
        add("ms", "lower", f"crypto.{op}.ms_per_block")
    add("ms", "lower", "crypto.normalize.ms_per_block")
    add("s", "lower", "crypto.keygen_s")

    for op in ("encode", "decode"):
        add("count", "lower", f"codec.{op}.calls_per_block")
        add("ms", "lower", f"codec.{op}.ms_per_block")
    add("B", "lower", "codec.bytes_per_block", "codec.proposal_frame_bytes")
    add("us", "lower", "codec.proposal_encode_us", "codec.proposal_decode_us")

    add("count", "lower", "mempool.admit.calls_per_op", "mempool.mark_committed.calls_per_block")
    add(
        "ms",
        "lower",
        "mempool.admit.ms_per_kop",
        "mempool.next_batch.ms_per_block",
        "mempool.mark_committed.ms_per_block",
    )
    add("s", "lower", "mempool.preload_s")
    add("count", "higher", "mempool.ops_per_batch")
    add(
        "count",
        "lower",
        "mempool.peak_pending",
        "mempool.dropped",
        "mempool.deferred",
        "mempool.inflight_at_end_ops",
    )

    add("count", "lower", "tree.build.calls_per_block", "aggregation.handle.calls_per_block")
    add(
        "ms",
        "lower",
        "tree.build.ms_per_block",
        "aggregation.handle.self_ms_per_block",
        "aggregation.disseminate.self_ms_per_block",
    )
    add("count", "lower", "aggregation.second_chance_per_block")
    add("count", "higher", "aggregation.qc_size_mean")

    add("count", "lower", "replica.on_message.calls_per_block")
    add("ms", "lower", "replica.on_message.self_ms_per_block", "replica.propose.self_ms_per_block")
    add("count", "lower", "replica.views_entered", "replica.views_timed_out")

    add(
        "count",
        "lower",
        "fabric.dispatch.calls_per_block",
        "fabric.fast_path_msgs_per_block",
        "fabric.tcp_msgs_per_block",
        "fabric.sessions_total",
        "session.resent",
        "session.reconnects",
        "session.messages_dropped",
        "supervisor.restarts",
    )
    add("ms", "lower", "fabric.dispatch.self_ms_per_block")
    add("s", "lower", "supervisor.spawn_s")

    add("count", "lower", "live.timers_per_block")
    add(
        "ms",
        "lower",
        "live.timer.self_ms_per_block",
        "live.wall_ms_per_block",
        "live.layers_self_ms_per_block",
        "live.unattributed_ms_per_block",
        "live.link_delay_ms",
    )
    add("%", "lower", "live.unattributed_pct")

    add("count", "higher", "clients.issued", "clients.completed")
    add("%", "lower", "clients.generator_late_pct", "clients.failed_ops_pct")
    add("count", "lower", "clients.rejected", "clients.link_drops")
    for rate in LADDER_RATES:
        add("ms", "lower", f"clients.p50_ms.r{rate}", f"clients.p99_ms.r{rate}")
    add("1/s", "higher", "clients.max_rate_in_slo_ops_per_s")

    add(
        "count",
        "lower",
        "simnet.events_per_block",
        "simnet.msgs_per_block",
        "simnet.msgs_dropped",
        "simnet.send.calls_per_block",
    )
    add("B", "lower", "simnet.bytes_per_block")
    add("1/s", "higher", "simnet.events_per_wall_s", "simnet.virtual_blocks_per_s")
    add("ms", "lower", "simnet.send.self_ms_per_block", "simnet.run.self_ms_per_block")

    add("%", "higher", "baseline.star.qc_inclusion_pct")
    add("1/s", "higher", "baseline.star.virtual_blocks_per_s", "baseline.star.blocks_per_s")
    add("count", "lower", "baseline.star.msgs_per_block")

    add("count", "lower", "observe.events_per_block")
    add("%", "lower", "observe.overhead_pct")
    for segment in ("transit", "verify", "aggregate", "commit"):
        add("ms", "lower", f"observe.path.{segment}_ms")

    for layer in LAYERS:
        add("%", "lower", f"{layer}.self_share_pct")

    add("ms", "lower", "host.spin_ms_before", "host.spin_ms_after")
    add("count", "higher", "host.nproc")
    return rows


#: ``(name, unit, better)`` for every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer())
