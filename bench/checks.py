"""Output checks applied to every benchmark run.

A run fails when any of these does not hold.  The invariants are the
paper's: per-class conservation, published == delivered at the slot
barrier, the per-leg synchronization bound, and for rate adaptation the
post-failure DMR load budget.  On top of them, a run's outputs must match
the pinned references for its (workload, seed) when one exists, and every
run in one process must produce the same outputs and simulated counts.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def signature(result, out_dir: Path) -> dict:
    """What must repeat exactly: the trace digest and the CSV bytes."""
    return {
        "trace_digest": result.federation.trace_digest,
        "reliability_sha256": hashlib.sha256((out_dir / "reliability.csv").read_bytes()).hexdigest(),
        "delay_sha256": hashlib.sha256((out_dir / "delay.csv").read_bytes()).hexdigest(),
    }


def sim_counts(result) -> dict:
    """Simulated counts read from the public RunResult; deterministic for a seed."""
    fed = result.federation
    counts = {
        "rti.slots": fed.slots_run,
        "rti.delivered": fed.messages_delivered,
    }
    for key in ("received", "delivered", "lost_failure", "dropped_noroute"):
        counts[f"netfed.{key}"] = sum(c[key] for c in result.conservation.values())

    offered = {"lte": 0, "dmr": 0}
    served = {"lte": 0, "dmr": 0}
    dmr_busy = 0
    dmr_peak_queue = 0
    for _t_s, link, q_mon, q_ctl, bits_served, bits_offered, busy in result.link_rows:
        tech = "dmr" if link == "dmr" else "lte"
        offered[tech] += bits_offered
        served[tech] += bits_served
        if tech == "dmr":
            dmr_busy += busy
            dmr_peak_queue = max(dmr_peak_queue, q_mon + q_ctl)
    run_ticks = fed.slots_run * result.cfg.tau_ticks
    for tech in ("lte", "dmr"):
        counts[f"links.{tech}.offered_bits"] = offered[tech]
        counts[f"links.{tech}.served_bits"] = served[tech]
    counts["links.dmr.busy_ratio"] = dmr_busy / run_ticks if run_ticks else 0.0
    counts["links.dmr.peak_queue_bytes"] = dmr_peak_queue
    total_offered = offered["lte"] + offered["dmr"]
    counts["links.served_over_offered"] = (
        (served["lte"] + served["dmr"]) / total_offered if total_offered else 0.0
    )
    return counts


def invariant_violations(result) -> list[str]:
    """The paper's invariants, evaluated on one RunResult."""
    problems = []
    for cls, c in result.conservation.items():
        if c["received"] != c["delivered"] + c["lost_failure"] + c["dropped_noroute"] + c["in_flight_at_end"]:
            problems.append(f"conservation broken for {cls.value}: {c}")
    fed = result.federation
    if fed.messages_delivered == 0:
        problems.append("no message crossed the slot barrier")
    if fed.messages_published != fed.messages_delivered:
        problems.append(f"published {fed.messages_published} != delivered {fed.messages_delivered}")

    two_tau = 2 * result.cfg.tau_ticks
    out_of_bound = sum(1 for leg in result.comm_legs if not 0 < leg[2] - leg[3] <= two_tau)
    if out_of_bound:
        problems.append(f"{out_of_bound} legs break 0 < d_it - d_comm <= 2*tau")

    cfg = result.cfg
    if cfg.qos == "wfq-ra" and cfg.lte_fail_at_s is not None and cfg.lte_fail_at_s < cfg.duration_s:
        if result.adapted_period_ticks is None:
            problems.append("LTE failed but no rate update fired")
        # Averaged from the failure to the horizon: a single substation
        # exchange after the update can exceed the budget within one
        # 25 s reporting interval, so a per-interval test would not hold.
        bits = sum(row[5] for row in result.link_rows if row[1] == "dmr" and row[0] >= cfg.lte_fail_at_s)
        load_bps = bits / (cfg.duration_s - cfg.lte_fail_at_s)
        budget_bps = (1 - cfg.alpha_e) * cfg.dmr_capacity_bps
        if load_bps > budget_bps:
            problems.append(f"post-failure DMR load {load_bps:.1f} bps exceeds budget {budget_bps:.1f} bps")
    return problems


def mismatches(expected: dict, actual: dict, what: str) -> list[str]:
    """Keys of ``expected`` whose value differs in ``actual``."""
    return [
        f"{key} {actual.get(key)!r} differs from {what} {value!r}"
        for key, value in expected.items()
        if actual.get(key) != value
    ]
