import dataclasses
import hashlib
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from gridcosim import rti as rti_module
from gridcosim.errors import DuplicateName, ProtocolViolation
from gridcosim.messages import MessageClass, MessageKind, SimMessage
from gridcosim.rti import Rti
from gridcosim.transport import InprocEndpoint, run_federation

TAU = 1000


def make_msg(mid: int, created: int) -> SimMessage:
    return SimMessage(mid, MessageClass.MONITORING, MessageKind.REQUEST, 0, 1, 64, created)


class ScriptedFederate:
    """Publishes a fixed per-slot script and logs what it receives."""

    def __init__(self, name: str, peer: str, script=None):
        self.name = name
        self.peer = peer
        self.script = script or {}
        self.received: list[tuple[int, int]] = []  # (now_tick, message id)
        self.slots_seen: list[int] = []

    def step(self, slot, slot_end_tick, inbox):
        now = slot_end_tick - TAU
        self.slots_seen.append(slot)
        for msg in inbox:
            self.received.append((now, msg.id))
        return [(at, self.peer, msg) for at, msg in self.script.get(slot, [])], -1


def run_pair(script_a=None, script_b=None, n_slots=4):
    fed_a = ScriptedFederate("a", "b", script_a)
    fed_b = ScriptedFederate("b", "a", script_b)
    result = run_federation(TAU, n_slots, [fed_a, fed_b])
    return fed_a, fed_b, result


def test_register_assigns_sequential_ids():
    # Fids follow the list: the trace digest records each destination's fid.
    rti = Rti(TAU, [("it", StubEndpoint([(5, "comm", make_msg(1, 5))])),
                    ("comm", StubEndpoint([(7, "it", make_msg(2, 7))]))])
    result = rti.run(1)
    expected = hashlib.sha256(b"0|0|2|7" + b"0|1|1|5").hexdigest()
    assert result.trace_digest == expected


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateName, match="^it$"):
        Rti(TAU, [("it", StubEndpoint()), ("comm", StubEndpoint()), ("it", StubEndpoint())])


def test_mid_slot_publish_delivered_at_slot_end():
    # Published at 0.8 tau inside slot 0: the peer sees it at the slot end,
    # so the synchronization adds 0.2 tau.
    msg = make_msg(10, 800)
    fed_a, fed_b, _ = run_pair(script_a={0: [(800, msg)]})
    assert fed_b.received == [(TAU, 10)]


def test_boundary_tick_belongs_to_next_slot():
    # A timestamp exactly at tau is outside slot 0 ...
    early = make_msg(11, TAU)
    with pytest.raises(ProtocolViolation):
        run_pair(script_a={0: [(TAU, early)]})
    # ... but is valid inside slot 1, and then arrives at 2 tau.
    fed_a, fed_b, _ = run_pair(script_a={1: [(TAU, make_msg(12, TAU))]})
    assert fed_b.received == [(2 * TAU, 12)]


def test_publish_in_past_slot_rejected():
    msg = make_msg(13, 50)
    with pytest.raises(ProtocolViolation):
        run_pair(script_a={2: [(50, msg)]})


def test_same_tick_messages_delivered_in_id_order():
    msgs = [(700, make_msg(7, 700)), (700, make_msg(3, 700))]
    fed_a, fed_b, _ = run_pair(script_a={0: msgs})
    assert [mid for _, mid in fed_b.received] == [3, 7]


class StubEndpoint:
    """Publishes scripted outboxes and logs its inboxes.

    ``outbox`` is published when first granted, and ``script`` maps a slot
    to the outbox published when granted in it; items are (at_tick,
    to_name, message).  Every step declares ``lookahead``.
    """

    def __init__(self, outbox=(), lookahead=-1, script=None):
        self.outbox = list(outbox)
        self.lookahead = lookahead
        self.script = script or {}
        self.inboxes: list[list[SimMessage]] = []
        self.slot = None

    def begin_step(self, slot, slot_end_tick, inbox):
        self.slot = slot
        self.inboxes.append(inbox)

    def finish_step(self):
        outbox, self.outbox = self.outbox + self.script.get(self.slot, []), []
        return outbox, self.lookahead


def stub_rti(endpoints: dict[str, StubEndpoint]) -> Rti:
    return Rti(TAU, list(endpoints.items()))


@pytest.mark.parametrize("publishers", [("b", "c"), ("c", "b")])
def test_same_tick_and_id_from_two_publishers_delivered_in_publisher_order(publishers):
    # b and c each send id 9 at tick 5 to a; the two messages differ, so a
    # sort that reached them would raise TypeError.
    sent = {"b": make_msg(9, 5), "c": dataclasses.replace(make_msg(9, 5), payload_bytes=80)}
    endpoints = {"a": StubEndpoint(), **{n: StubEndpoint([(5, "a", sent[n])]) for n in publishers}}
    rti = stub_rti(endpoints)
    assert rti.advance_slot().messages_delivered == 2
    rti.advance_slot()
    assert [m.payload_bytes for m in endpoints["a"].inboxes[1]] == [sent[n].payload_bytes for n in publishers]


@st.composite
def _stub_scripts(draw):
    """2-3 stub endpoints with random outboxes.

    Each case draws which faults it may hold (ticks outside the slot,
    unknown destinations, ids repeated by one publisher), so that runs
    without a fault stay common.  Ids come from a pool of five, so equal
    ids and equal (tick, id) pairs from two publishers are common too.
    """
    names = ["a", "b", "c"][: draw(st.integers(min_value=2, max_value=3))]
    n_slots = draw(st.integers(min_value=1, max_value=5))
    to = st.sampled_from(names + ["nobody"] if draw(st.booleans()) else names)
    offset = st.sampled_from([-1, 0, 1, TAU - 1, TAU] if draw(st.booleans()) else [0, 1, TAU - 1])
    entry = st.tuples(st.integers(min_value=0, max_value=n_slots - 1), offset, to,
                      st.integers(min_value=0, max_value=4))
    unique_by = None if draw(st.booleans()) else (lambda e: e[3])
    endpoints = {}
    for fid, name in enumerate(names):
        script = defaultdict(list)
        for slot, off, dest, mid in draw(st.lists(entry, max_size=6, unique_by=unique_by)):
            at = slot * TAU + off
            # The payload marks the publisher, so two publishers' messages
            # with one (tick, id) differ, and a sort reaching them would fail.
            msg = dataclasses.replace(make_msg(mid, at), payload_bytes=64 + fid)
            script[slot].append((at, dest, msg))
        endpoints[name] = StubEndpoint(script=dict(script))
    return n_slots, endpoints


def reference_delivery(n_slots, endpoints):
    """Replay stub scripts as the coordinator must: every endpoint is
    granted every slot, its publishes are checked in order, and each
    destination's queue is delivered sorted by (tick, id, publisher fid).

    Returns (the first violation's wording or None, the messages each
    endpoint is handed, in order).
    """
    names = list(endpoints)
    inbox = {name: [] for name in names}
    handed = {name: [] for name in names}
    seen = set()
    for slot in range(n_slots):
        for name in names:
            handed[name] += inbox[name]
            inbox[name] = []
        queues = defaultdict(list)
        for fid, name in enumerate(names):
            for at, to, msg in endpoints[name].script.get(slot, []):
                if not slot * TAU <= at < (slot + 1) * TAU:
                    return "outside granted slot", handed
                if to not in names:
                    return "unknown destination", handed
                if (fid, msg.id) in seen:
                    return "republished message id", handed
                seen.add((fid, msg.id))
                queues[to].append(((at, msg.id, fid), msg))
        for to, queue in queues.items():
            inbox[to] += [msg for _, msg in sorted(queue, key=lambda item: item[0])]
    return None, handed


@settings(max_examples=200, deadline=None)
@given(case=_stub_scripts())
def test_any_outbox_runs_or_is_a_protocol_violation_and_delivery_is_totally_ordered(case):
    n_slots, endpoints = case
    violation, handed = reference_delivery(n_slots, endpoints)
    rti = stub_rti(endpoints)
    try:
        result = rti.run(n_slots)
    except ProtocolViolation as exc:
        assert violation is not None and violation in str(exc)
    else:
        assert violation is None
        assert result.slots_run == n_slots
    for name, endpoint in endpoints.items():
        assert [msg for inbox in endpoint.inboxes for msg in inbox] == handed[name]


def test_idle_slot_returns_one_shared_report_and_allocates_nothing():
    far = 1 << 62
    rti = stub_rti({"a": StubEndpoint(lookahead=far), "b": StubEndpoint(lookahead=far)})
    rti.advance_slot()  # the first slot grants everyone
    assert rti.advance_slot() is rti.advance_slot()
    while rti.current_slot < 300:  # past the interpreter's shared small ints
        rti.advance_slot()
    tracemalloc.start()
    try:
        rti.advance_slot()  # current_slot is now a traced int, replaced per slot
        before = tracemalloc.take_snapshot()
        # Keep every report, so a report made per slot would stay traced.
        reports = [rti.advance_slot() for _ in range(10_000)]
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert rti.current_slot == 10_301
    assert all(r.messages_delivered == 0 for r in reports)
    in_rti = [tracemalloc.Filter(True, rti_module.__file__)]
    growth = after.filter_traces(in_rti).compare_to(before.filter_traces(in_rti), "filename")
    assert sum(stat.count_diff for stat in growth) <= 0


def test_republishing_an_id_is_a_protocol_violation():
    script = {0: [(10, make_msg(5, 10))], 1: [(TAU + 10, make_msg(5, TAU + 10))]}
    with pytest.raises(ProtocolViolation, match="republished message id 5"):
        run_pair(script_a=script)


def test_peer_may_forward_a_received_id_once():
    # b forwards the id it received from a at the end of slot 0.
    fed_a, fed_b, result = run_pair(
        script_a={0: [(10, make_msg(5, 10))]},
        script_b={1: [(TAU + 10, make_msg(5, TAU + 10))]},
    )
    assert fed_b.received == [(TAU, 5)]
    assert fed_a.received == [(2 * TAU, 5)]
    assert result.messages_published == result.messages_delivered == 2


def test_empty_slot_still_advances_everyone():
    fed_a = ScriptedFederate("a", "b")
    fed_b = ScriptedFederate("b", "a")
    rti = Rti(TAU, [(fed.name, InprocEndpoint(fed)) for fed in (fed_a, fed_b)])
    report = rti.advance_slot()
    assert report.messages_delivered == 0
    assert fed_a.slots_seen == fed_b.slots_seen == [0]


def test_exactly_once_counts():
    script = {s: [(s * TAU + 10, make_msg(100 + s, s * TAU + 10))] for s in range(4)}
    _, fed_b, result = run_pair(script_a=script, n_slots=5)
    assert result.messages_published == 4
    assert result.messages_delivered == 4
    assert len(fed_b.received) == 4
    assert len({mid for _, mid in fed_b.received}) == 4


def test_federation_requires_two_federates():
    with pytest.raises(ProtocolViolation, match="a federation needs at least 2 federates"):
        Rti(TAU, [("solo", InprocEndpoint(ScriptedFederate("solo", "solo")))])


def test_unknown_destination_rejected():
    fed_a = ScriptedFederate("a", "nobody", {0: [(5, make_msg(1, 5))]})
    fed_b = ScriptedFederate("b", "a")
    with pytest.raises(ProtocolViolation):
        run_federation(TAU, 1, [fed_a, fed_b])


@settings(max_examples=40, deadline=None)
@given(
    offsets=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=TAU - 1)),
        min_size=0,
        max_size=25,
        unique=True,
    )
)
def test_bounded_staleness_property(offsets):
    script = {}
    for mid, (slot, offset) in enumerate(sorted(offsets)):
        at = slot * TAU + offset
        script.setdefault(slot, []).append((at, make_msg(mid, at)))
    # One slot beyond the last publish, so the final sync point is observed.
    fed_a, fed_b, result = run_pair(script_a=script, n_slots=7)
    # Every published message arrives exactly once, one slot boundary later.
    assert result.messages_published == result.messages_delivered == len(offsets)
    arrivals = {mid: now for now, mid in fed_b.received}
    assert len(arrivals) == len(offsets)
    for mid, (slot, offset) in enumerate(sorted(offsets)):
        staleness = arrivals[mid] - (slot * TAU + offset)
        assert 0 < staleness <= TAU


# ------------------------------------------------- duplicate-id check

class ForwardingFederate:
    """Publishes a per-slot script to its peer.

    ``("new", id)`` publishes a fresh message with that id; ``("fwd", j)``
    forwards the j-th id received so far, modulo the count, and is skipped
    while nothing has arrived.  Ticks rise within a slot, ids need not.
    """

    def __init__(self, name: str, peer: str, script):
        self.name = name
        self.peer = peer
        self.script = script
        self.received: list[int] = []

    def step(self, slot, slot_end_tick, inbox):
        self.received.extend(msg.id for msg in inbox)
        outbox = []
        for pos, (action, value) in enumerate(self.script.get(slot, [])):
            if action == "fwd":
                if not self.received:
                    continue
                value = self.received[value % len(self.received)]
            at = slot * TAU + pos
            outbox.append((at, self.peer, make_msg(value, at)))
        return outbox, -1


class LoggingRti(Rti):
    """The coordinator under test, logging every publish it is asked to check."""

    def __init__(self, tau_ticks: int, federates):
        super().__init__(tau_ticks, federates)
        self.log: list[tuple[int, int, str, int, int]] = []  # (slot, fid, to, at, id)

    def publish(self, fid, msg, at_tick, to_name):
        self.log.append((self.current_slot, fid, to_name, at_tick, msg.id))
        super().publish(fid, msg, at_tick, to_name)


def reference_outcome(log, names):
    """Replay a publish log against a plain set of (fid, id).

    Returns (index, message, None) for the first republished id, else
    (None, None, digest) with the trace digest of delivering every publish
    at its slot end, per destination by (tick, id).
    """
    seen = set()
    for index, (_slot, fid, _to, _at, mid) in enumerate(log):
        if (fid, mid) in seen:
            return index, f"federate {fid} republished message id {mid}", None
        seen.add((fid, mid))
    by_slot = defaultdict(list)
    for slot, _fid, to_name, at, mid in log:
        by_slot[slot].append((names.index(to_name), at, mid))
    digest = hashlib.sha256()
    for slot in sorted(by_slot):
        for to_fid, at, mid in sorted(by_slot[slot]):
            digest.update(b"%d|%d|%d|%d" % (slot, to_fid, mid, at))
    return None, None, digest.hexdigest()


@st.composite
def _federation_scripts(draw):
    n_feds = draw(st.integers(min_value=2, max_value=3))
    n_slots = draw(st.integers(min_value=1, max_value=5))
    # A few ids around one multiple of 64, near zero (negatives included) or
    # at and beyond 2**63, at gaps that share or straddle 64-id words.  The
    # small pool makes repeats, and so violations, common.
    base = draw(st.sampled_from([0, -(2**63), 2**63, 2**64, 2**100]))
    base += 64 * draw(st.integers(min_value=-2, max_value=2))
    first = base + draw(st.integers(min_value=-64, max_value=63))
    step = st.one_of(st.sampled_from([1, 31, 32, 33, 63, 64, 65]), st.integers(min_value=1, max_value=130))
    gap = st.builds(lambda sign, size: sign * size, st.sampled_from([-1, 1]), step)
    pool = [first] + [first + d for d in draw(st.lists(gap, max_size=5, unique=True))]
    action = st.one_of(
        st.tuples(st.just("new"), st.sampled_from(pool)),
        st.tuples(st.just("fwd"), st.integers(min_value=0, max_value=7)),
    )
    scripts = [
        draw(st.dictionaries(st.integers(min_value=0, max_value=n_slots - 1),
                             st.lists(action, max_size=4), max_size=n_slots))
        for _ in range(n_feds)
    ]
    return n_slots, scripts


@settings(max_examples=300, deadline=None)
@given(case=_federation_scripts())
def test_duplicate_id_check_matches_a_set_of_fid_id_pairs(case):
    n_slots, scripts = case
    names = ["a", "b", "c"][: len(scripts)]
    # A ring: each federate hears from one publisher only, and an id comes
    # back to its first publisher after len(names) forwards.
    feds = [ForwardingFederate(name, names[(i + 1) % len(names)], script)
            for i, (name, script) in enumerate(zip(names, scripts))]
    rti = LoggingRti(TAU, [(fed.name, InprocEndpoint(fed)) for fed in feds])
    try:
        result = rti.run(n_slots)
    except ProtocolViolation as exc:
        outcome = (len(rti.log) - 1, str(exc), None)
    else:
        assert result.messages_published == result.messages_delivered == len(rti.log)
        outcome = (None, None, result.trace_digest)
    assert outcome == reference_outcome(rti.log, names)


@pytest.mark.parametrize("base", [0, -(2**63), 2**63, 2**100])
def test_every_id_in_a_window_is_told_apart(base):
    # Ids on both sides of several 64-id word boundaries, odd ones first.
    ids = [base + d for d in range(-130, 130)]
    ids = ids[1::2] + ids[::2]
    first = {0: [(i, make_msg(mid, i)) for i, mid in enumerate(ids)]}
    _, fed_b, result = run_pair(script_a=first, n_slots=2)
    assert result.messages_published == len(fed_b.received) == len(ids)
    again = {**first, 1: [(TAU, make_msg(ids[7], TAU))]}
    with pytest.raises(ProtocolViolation, match=f"republished message id {ids[7]}$"):
        run_pair(script_a=again, n_slots=2)


class _Forwarder:
    """Sends every message it receives back to the source."""

    name = "forwarder"

    def step(self, slot, slot_end_tick, inbox):
        return [(slot * TAU, "source", msg) for msg in inbox], -1


def test_duplicate_id_check_memory_stays_small_for_dense_ids():
    # The source publishes ids 0, 1, 2, ... in blocks, and each comes back.
    per_slot, slots = 1000, 100
    script = {slot: [(slot * TAU, make_msg(mid, slot * TAU))
                     for mid in range(slot * per_slot, (slot + 1) * per_slot)]
              for slot in range(slots)}
    feds = [ScriptedFederate("source", "forwarder", script), _Forwarder()]
    tracemalloc.start()
    try:
        rti = Rti(TAU, [(fed.name, InprocEndpoint(fed)) for fed in feds])
        # Two slots past the last publish: the forwards go out, then the
        # source's inbox is drained, so no message is left in the coordinator.
        result = rti.run(slots + 2)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert result.messages_published == result.messages_delivered == 2 * per_slot * slots
    rti_stats = snapshot.filter_traces([tracemalloc.Filter(True, rti_module.__file__)])
    live_bytes = sum(stat.size for stat in rti_stats.statistics("filename"))
    assert live_bytes < 8 * result.messages_published
