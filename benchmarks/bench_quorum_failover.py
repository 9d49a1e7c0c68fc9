"""Quorum replication + unattended failover — overhead and recovery gates.

PR-over-PR the manager grew async log shipping, then quorum-acknowledged
writes and a supervisor that promotes a standby on its own.  Two gated
measurements over a real localhost TCP deployment close the loop:

1. *Quorum write overhead*: OAB of a checkpoint write storm with
   ``replication_quorum=1`` (every mutation waits for the standby's ack
   before the client sees success) versus buffered async shipping, the
   medians of ``OVERHEAD_ROUNDS`` interleaved rounds on two warm
   deployments.  Gate: the durability
   upgrade costs at most ``OVERHEAD_GATE_PCT`` of the async write path.
2. *Unattended recovery*: a health monitor thread plus an attached
   :class:`~repro.manager.replication.FailoverSupervisor` watch the
   deployment while the primary is killed with **no test-driven promotion**.
   The supervisor must detect, promote and fence on its own, and a client
   write issued at kill time must complete within
   ``health_dead_after + RECOVERY_SLACK_S`` — with no split-brain afterwards
   (old primary fenced, epochs agree, exactly one serving primary).

Results land in ``BENCH_quorum_failover.json``; the monitor's transition
event log is archived as ``failover_transitions.json`` so CI keeps the
detect -> promote trajectory of every run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

from repro import StdchkConfig, TcpDeployment
from repro.manager.replication import FailoverSupervisor
from repro.util.units import MB

from benchmarks.conftest import print_table, write_bench_results

CHUNK = 64 * 1024
FILE_SIZE = 8 * CHUNK  # 512 KiB per checkpoint image
FILES = 6
RESULTS_PATH = "BENCH_quorum_failover.json"
TRANSITIONS_PATH = "failover_transitions.json"

#: Gates.  Quorum turns buffered shipping into one synchronous standby RPC
#: per journal record; on localhost that round trip is small change next to
#: the chunk pushes.  Recovery is bounded by failure detection (the
#: ``health_dead_after`` silence window) plus promotion and one client
#: re-discovery round.
OVERHEAD_GATE_PCT = 25.0
RECOVERY_SLACK_S = 3.0


def quorum_config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK,
        stripe_width=2,
        replication_level=1,
        push_parallelism=4,
        ack_batch_size=1,
        failover_backoff_base=0.02,
        failover_backoff_max=0.25,
        failover_deadline=30.0,
        failover_probe_timeout=1.0,
        failover_cooldown=5.0,
        health_probe_interval=0.1,
        health_suspect_after=0.3,
        health_dead_after=1.0,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def storm_oab(client, tag: str) -> float:
    """OAB (MB/s) of one write storm by ``client``."""
    payload = bytes(FILE_SIZE)
    start = time.perf_counter()
    for index in range(FILES):
        client.write_file(f"/bench/qw-{tag}.N0.T{index}", payload)
    elapsed = time.perf_counter() - start
    return (FILES * FILE_SIZE / elapsed) / MB


def measure_unattended_recovery():
    """Kill the primary under a live supervisor; nobody else intervenes."""
    config = quorum_config(replication_quorum=1)
    with TcpDeployment(benefactor_count=3, config=config) as deployment:
        standby = deployment.add_standby("auto-standby")
        old_primary = deployment.manager
        client = deployment.client("auto-survivor")
        payload = bytes(FILE_SIZE)
        client.write_file("/bench/auto.N0.T0", payload)

        supervisor = FailoverSupervisor(deployment)
        monitor = deployment.health_monitor()
        supervisor.attach(monitor)
        monitor.start()
        try:
            # Let the detector see everything alive before pulling the plug.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                states = {monitor.state_of(n) for n in monitor.nodes()}
                if states == {"alive"}:
                    break
                time.sleep(0.05)

            killed_at = time.perf_counter()
            deployment.kill_manager()
            # The client keeps writing; its retry layer rides out the outage
            # while the monitor accumulates silence and the supervisor
            # promotes.  Elapsed time of this write IS the recovery window.
            client.write_file("/bench/auto.N0.T1", payload)
            resume_s = time.perf_counter() - killed_at

            assert client.read_file("/bench/auto.N0.T1") == payload
            transitions = [t.to_dict() for t in monitor.events()]
        finally:
            monitor.stop()

        # Split-brain audit: exactly one primary, fenced predecessor, and
        # every party agrees on the successor epoch.
        assert deployment.manager is standby
        assert standby.role == "primary"
        assert old_primary.role == "fenced"
        assert old_primary.epoch == standby.epoch == 2
        assert supervisor.promotions == 1

        metrics = deployment.scrape()["aggregate"]
        return {
            "client_resume_s": resume_s,
            "detect_to_promote_events": supervisor.events,
            "promotions": supervisor.promotions,
            "promoted_epoch": standby.epoch,
            "dead_after_s": config.health_dead_after,
        }, transitions, metrics


#: Rounds of the overhead comparison; each runs the storm once per mode,
#: the two modes alternating which goes first.
OVERHEAD_ROUNDS = 9
MODES = {"async": dict(replication_quorum=0, ship_batch_records=8),
         "quorum": dict(replication_quorum=1)}


def test_quorum_write_overhead_gate(benchmark):
    """Medians of interleaved rounds on two warm deployments, one per mode
    (a primary with one standby each).  A single storm writes 3 MiB in
    tens of milliseconds, so one cold storm per mode swings by more than the
    gate on a shared host; interleaving gives both modes the same stretch of
    host load, and the warm-up write keeps connecting and starting threads
    out of the timed storms."""
    runs = {mode: [] for mode in MODES}
    with contextlib.ExitStack() as stack:
        clients = {}
        for mode, overrides in MODES.items():
            deployment = stack.enter_context(
                TcpDeployment(benefactor_count=3, config=quorum_config(**overrides)))
            deployment.add_standby(f"{mode}-standby")
            clients[mode] = deployment.client(f"{mode}-writer")
            storm_oab(clients[mode], "warm-up")
        for round_number in range(OVERHEAD_ROUNDS):
            order = list(MODES) if round_number % 2 == 0 else list(MODES)[::-1]
            for mode in order:
                runs[mode].append(storm_oab(clients[mode], str(round_number)))
    async_oab = statistics.median(runs["async"])
    quorum_oab = statistics.median(runs["quorum"])
    overhead = (async_oab - quorum_oab) / async_oab * 100.0
    print_table(
        "Quorum-acknowledged writes vs buffered async shipping (TCP)",
        [
            {"mode": "async (batch=8)", "OAB_MBps": async_oab,
             "overhead_pct": 0.0},
            {"mode": "quorum=1", "OAB_MBps": quorum_oab,
             "overhead_pct": overhead},
        ],
        note=(f"medians of {OVERHEAD_ROUNDS} interleaved rounds; gate: quorum "
              f"overhead <= {OVERHEAD_GATE_PCT}% of async OAB"),
    )
    write_bench_results(RESULTS_PATH, "quorum_overhead", {
        "async_mbps": async_oab,
        "quorum_mbps": quorum_oab,
        "async_runs_mbps": runs["async"],
        "quorum_runs_mbps": runs["quorum"],
        "overhead_pct": overhead,
        "overhead_gate_pct": OVERHEAD_GATE_PCT,
    })
    assert quorum_oab >= (1.0 - OVERHEAD_GATE_PCT / 100.0) * async_oab, (
        f"quorum writes too slow: {quorum_oab:.1f} MB/s vs async "
        f"{async_oab:.1f} MB/s ({overhead:.1f}% overhead, "
        f"gate {OVERHEAD_GATE_PCT}%)"
    )


def test_unattended_failover_recovery_gate(benchmark):
    results, transitions, metrics = measure_unattended_recovery()
    recovery_gate_s = results["dead_after_s"] + RECOVERY_SLACK_S
    print_table(
        "Unattended failover: detect -> promote -> client resumes (TCP)",
        [{
            "client_resume_s": results["client_resume_s"],
            "promotions": results["promotions"],
            "epoch": results["promoted_epoch"],
            "transitions": len(transitions),
        }],
        note=(f"gate: resume <= health_dead_after + {RECOVERY_SLACK_S}s "
              f"= {recovery_gate_s}s; no split-brain"),
    )
    results["recovery_gate_s"] = recovery_gate_s
    write_bench_results(RESULTS_PATH, "unattended_recovery", results,
                        metrics=metrics)
    with open(TRANSITIONS_PATH, "w", encoding="utf-8") as handle:
        json.dump(transitions, handle, indent=2, sort_keys=True)

    assert results["client_resume_s"] <= recovery_gate_s, (
        f"client stalled {results['client_resume_s']:.2f}s "
        f"(gate {recovery_gate_s}s)"
    )
    # The monitor must have seen the death it acted on.
    dead_events = [t for t in transitions
                   if t["new_state"] == "dead" and t["kind"] == "manager"]
    assert dead_events, "no manager-dead transition in the event log"
