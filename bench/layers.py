"""Per-layer host-time split, measured from outside the package.

``LayerTrace`` wraps the public callables that ``run_scenario`` reaches
through module attributes, records one duration per call in memory, and
restores the originals on exit.  Nothing inside ``src/`` is timed or
changed.  Self times are derived by subtraction, so the layers partition
the traced region:

    run_scenario + write_outputs
      = topology.generate + itfed.init + netfed.init      (set-up)
      + rti.self + itfed.step + netfed.step               (federation)
      + transport.rtt + envelope.encode + envelope.decode (federation)
      + runner.post + runner.write                        (reporting)

``rti.self`` is the federation's wallclock outside the endpoint calls;
``transport.rtt`` is the endpoint round trip minus the federates' step
and envelope time, which on the in-process transport is only the
endpoint's call overhead.  With the socket transport the federates step
in their own threads while the coordinator waits inside the endpoint, so
their time falls within the endpoint spans.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict

LAYER_UNITS = {
    "rti.self_s": "s",
    "rti.us_per_slot": "us",
    "rti.slot_p50_us": "us",
    "rti.slot_p99_us": "us",
    "rti.slots": "count",
    "rti.active_slots": "count",
    "rti.idle_slots": "count",
    "rti.delivered": "count",
    "itfed.step_s": "s",
    "itfed.step_p50_us": "us",
    "itfed.step_p99_us": "us",
    "itfed.msgs_out": "count",
    "itfed.init_s": "s",
    "netfed.step_s": "s",
    "netfed.step_p50_us": "us",
    "netfed.step_p99_us": "us",
    "netfed.received": "count",
    "netfed.delivered": "count",
    "netfed.lost_failure": "count",
    "netfed.dropped_noroute": "count",
    "netfed.init_s": "s",
    "links.lte.offered_bits": "bit",
    "links.lte.served_bits": "bit",
    "links.dmr.offered_bits": "bit",
    "links.dmr.served_bits": "bit",
    "links.dmr.busy_ratio": "ratio",
    "links.dmr.peak_queue_bytes": "bytes",
    "links.served_over_offered": "ratio",
    "transport.rtt_s": "s",
    "transport.us_per_slot": "us",
    "envelope.encode_calls": "count",
    "envelope.encode_s": "s",
    "envelope.decode_calls": "count",
    "envelope.decode_s": "s",
    "envelope.bytes": "bytes",
    "topology.generate_s": "s",
    "runner.post_s": "s",
    "runner.write_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def percentile_us(durations: array, q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = min(max(1, math.ceil(q * len(ordered))), len(ordered))
    return ordered[rank - 1] * 1e6


class LayerTrace:
    """Context manager that times the package's layers during one run."""

    def __init__(self, api):
        self.api = api
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        # Appending to an array is one call under the interpreter lock, so
        # the socket transport's federate threads can record concurrently.
        self.slot_delivered = array("q")
        self.itfed_outbox_sizes = array("q")
        self.frame_sizes = array("q")
        self._saved: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _timed(self, layer: str):
        durations = self.durations[layer]
        clock = time.perf_counter

        def factory(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                durations.append(clock() - t0)
                return result
            return wrapper
        return factory

    def __enter__(self) -> "LayerTrace":
        api = self.api
        clock = time.perf_counter
        runner, transport = api.runner, api.transport
        self._patch(runner, "generate_topology", self._timed("topology.generate"))
        self._patch(runner, "ITFederate", self._timed("itfed.init"))
        self._patch(runner, "NetFederate", self._timed("netfed.init"))
        self._patch(runner, "run_federation", self._timed("federation"))
        self._patch(api.netfed.NetFederate, "step", self._timed("netfed.step"))
        self._patch(transport.InprocEndpoint, "finish_step", self._timed("endpoint"))
        self._patch(transport.SocketEndpoint, "begin_step", self._timed("endpoint"))
        self._patch(transport.SocketEndpoint, "finish_step", self._timed("endpoint"))

        slot_durations = self.durations["rti.slot"]
        slot_delivered = self.slot_delivered

        def advance_slot(fn):
            def wrapper(rti):
                t0 = clock()
                report = fn(rti)
                slot_durations.append(clock() - t0)
                slot_delivered.append(report.messages_delivered)
                return report
            return wrapper

        it_durations = self.durations["itfed.step"]
        outbox_sizes = self.itfed_outbox_sizes

        def it_step(fn):
            def wrapper(federate, slot, slot_end_tick, inbox):
                t0 = clock()
                outbox, done = fn(federate, slot, slot_end_tick, inbox)
                it_durations.append(clock() - t0)
                outbox_sizes.append(len(outbox))
                return outbox, done
            return wrapper

        encode_durations = self.durations["envelope.encode"]
        frame_sizes = self.frame_sizes

        def encode(fn):
            def wrapper(envelope):
                t0 = clock()
                frame = fn(envelope)
                encode_durations.append(clock() - t0)
                frame_sizes.append(len(frame))
                return frame
            return wrapper

        self._patch(api.rti.Rti, "advance_slot", advance_slot)
        self._patch(api.itfed.ITFederate, "step", it_step)
        self._patch(transport, "encode_envelope", encode)
        self._patch(transport, "decode_envelope", self._timed("envelope.decode"))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # --------------------------------------------------------------- metrics

    def total(self, layer: str) -> float:
        return sum(self.durations[layer])

    def active_slots(self) -> int:
        """Slots with inbox or outbox traffic.

        Every message published in slot s is delivered at the end of slot s
        and read from the inbox in slot s+1, so slot s is active when
        anything crossed the barrier at the end of slot s or of slot s-1.
        """
        delivered = self.slot_delivered
        return sum(1 for s, n in enumerate(delivered) if n or (s and delivered[s - 1]))

    def metrics(self, run_scenario_s: float, write_s: float, wall_s: float, counts: dict) -> dict:
        """Per-layer metrics of one traced run; ``counts`` come from checks.sim_counts."""
        t = self.total
        slots = counts["rti.slots"]
        endpoint = t("endpoint")
        steps = t("itfed.step") + t("netfed.step")
        envelope = t("envelope.encode") + t("envelope.decode")
        transport_rtt = endpoint - steps - envelope
        rti_self = t("federation") - endpoint
        set_up = t("topology.generate") + t("itfed.init") + t("netfed.init")
        post = run_scenario_s - set_up - t("federation")
        attributed = set_up + rti_self + steps + transport_rtt + envelope + post + write_s
        active = self.active_slots()
        per_slot = 1e6 / slots if slots else 0.0
        m = {
            "rti.self_s": rti_self,
            "rti.us_per_slot": rti_self * per_slot,
            "rti.slot_p50_us": percentile_us(self.durations["rti.slot"], 0.50),
            "rti.slot_p99_us": percentile_us(self.durations["rti.slot"], 0.99),
            "rti.active_slots": active,
            "rti.idle_slots": slots - active,
            "itfed.step_s": t("itfed.step"),
            "itfed.step_p50_us": percentile_us(self.durations["itfed.step"], 0.50),
            "itfed.step_p99_us": percentile_us(self.durations["itfed.step"], 0.99),
            "itfed.msgs_out": sum(self.itfed_outbox_sizes),
            "itfed.init_s": t("itfed.init"),
            "netfed.step_s": t("netfed.step"),
            "netfed.step_p50_us": percentile_us(self.durations["netfed.step"], 0.50),
            "netfed.step_p99_us": percentile_us(self.durations["netfed.step"], 0.99),
            "netfed.init_s": t("netfed.init"),
            "transport.rtt_s": transport_rtt,
            "transport.us_per_slot": transport_rtt * per_slot,
            "envelope.encode_calls": len(self.durations["envelope.encode"]),
            "envelope.encode_s": t("envelope.encode"),
            "envelope.decode_calls": len(self.durations["envelope.decode"]),
            "envelope.decode_s": t("envelope.decode"),
            "envelope.bytes": sum(self.frame_sizes),
            "topology.generate_s": t("topology.generate"),
            "runner.post_s": post,
            "runner.write_s": write_s,
            "trace.wall_s": wall_s,
            "unattributed_s": wall_s - attributed,
        }
        m.update(counts)
        return m
