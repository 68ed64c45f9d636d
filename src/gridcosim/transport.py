"""Federate transports: direct in-process calls or a socket wire protocol.

Both transports drive the same federate objects and produce identical
delivered-message traces for identical inputs.  The socket transport gives
each federate one end of its own socket pair and keeps the other end for the
coordinator; envelopes are newline-delimited JSON arrays carrying only
integers and strings, read by position, so a federate could equally well
live in another process or language.  The wire alternates strictly, one
frame each way per granted slot, so one read never holds two frames.  The
coordinator's ends stay blocking, with each read and write bounded by a
kernel socket timeout, so that each is one system call.  A federate's JOIN
is answered by no frame: once every federate has joined, the coordinator is
built and the federates read their GRANTs, and a refused federate sees its
stream end.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
from typing import Protocol

from . import envelope as env
from .envelope import ACK_SLOT, ERROR, GRANT, JOIN, decode_envelope, encode_envelope
from .errors import (QUOTE_LIMIT, DecodeError, FederateTimeout, ProtocolViolation, quotable, quote,
                     shape)
from .messages import SimMessage
from .rti import FederationResult, Rti

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT_S = 30.0
# Bytes asked of one recv; a frame longer than this takes several.
_RECV_BYTES = 65536


def _coordinator_pair(timeout_s: float) -> tuple[socket.socket, socket.socket]:
    """A socket pair whose first end, the coordinator's, stays blocking and
    has each ``recv`` and ``send`` call bounded to ``timeout_s`` by the kernel.

    A call past its bound raises the ``BlockingIOError`` (EAGAIN) that
    ``SocketEndpoint`` and ``run_federation`` name as a ``FederateTimeout``.
    A Python socket timeout would poll before every call; this leaves one
    system call per read and per write.  A bound applies to one call: a
    ``sendall`` that the peer drains slowly may take several.
    """
    micros = round(timeout_s * 1_000_000)
    if micros <= 0:  # a zero timeval means no bound at all
        raise ValueError(f"timeout_s must be at least 1 us, got {timeout_s!r}")
    timeval = struct.pack("ll", *divmod(micros, 1_000_000))
    ours, theirs = socket.socketpair()
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
    return ours, theirs


class LocalFederate(Protocol):
    """What a federate model must implement to join a federation.

    ``step`` returns the slot's outbox, in the ``(at_tick, to_name, msg)``
    form of ``FederateEndpoint.finish_step`` and an ``ACK_SLOT``'s ``out``,
    and the federate's lookahead: the earliest tick whose slot it must be
    granted even with an empty inbox, -1 for every slot.  The coordinator
    skips it in earlier slots without messages for it.
    """

    name: str

    def step(
        self, slot: int, slot_end_tick: int, inbox: list[SimMessage]
    ) -> tuple[list[tuple[int, str, SimMessage]], int]: ...


class InprocEndpoint:
    """Runs a federate by direct function call."""

    def __init__(self, federate: LocalFederate):
        self.federate = federate
        self._pending = None

    def begin_step(self, slot: int, slot_end_tick: int, inbox: list[SimMessage]) -> None:
        self._pending = (slot, slot_end_tick, inbox)

    def finish_step(self):
        slot, slot_end_tick, inbox = self._pending
        self._pending = None
        return self.federate.step(slot, slot_end_tick, inbox)


class _FrameStream:
    """Line-framed envelope reader/writer over a socket; it keeps no bytes
    between frames, since no peer writes before its last frame is answered."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.offset = 0

    def send(self, frame: list) -> None:
        """Write one whole frame: the peer waits for every frame."""
        self.sock.sendall(encode_envelope(frame))

    def recv(self) -> list | None:
        """The peer's frame, or None at a clean end of stream."""
        data = self.sock.recv(_RECV_BYTES)
        end = data.find(b"\n") + 1
        if data and not end:
            # A frame several reads long is joined once, when its newline comes.
            chunks = [data]
            size = len(data)
            while not end:
                chunk = self.sock.recv(_RECV_BYTES)
                if not chunk:
                    raise DecodeError("truncated frame", self.offset + size)
                chunks.append(chunk)
                end = chunk.find(b"\n") + 1
                if end:
                    end += size
                size += len(chunk)
            data = b"".join(chunks)
        if end != len(data):  # the peer wrote ahead of its turn
            raise DecodeError("bytes past the end of the frame", self.offset + end)
        if not end:
            return None
        decoded = decode_envelope(data, self.offset)
        self.offset += end
        return decoded

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class SocketEndpoint:
    """Coordinator-side handle speaking the wire protocol to one federate."""

    def __init__(self, stream: _FrameStream, name: str, timeout_s: float = DEFAULT_TIMEOUT_S):
        self.stream = stream
        self.name = name
        self.timeout_s = timeout_s  # the bound set on the stream, for messages
        self._slot = 0

    def begin_step(self, slot: int, slot_end_tick: int, inbox: list[SimMessage]) -> None:
        self._slot = slot
        try:
            self.stream.send(env.grant(slot, slot_end_tick, inbox))
        except ConnectionError as exc:  # the federate hung up before its grant
            raise self._closed() from exc
        except BlockingIOError as exc:  # the federate stopped reading
            raise FederateTimeout(
                f"federate {self.name} did not read its GRANT for slot {slot} "
                f"within {self.timeout_s:g} s"
            ) from exc

    def finish_step(self):
        try:
            received = self.stream.recv()
        except ConnectionError:  # the federate hung up with its grant unread
            received = None
        except BlockingIOError as exc:
            raise FederateTimeout(
                f"federate {self.name} sent no ACK_SLOT for slot {self._slot} "
                f"within {self.timeout_s:g} s"
            ) from exc
        if received is None:
            raise self._closed()
        frame_type = received[0]
        if frame_type == ERROR:
            raise ProtocolViolation(
                f"federate {self.name} failed: {quote(received[2])}: {quote(received[3])}"
            )
        if frame_type != ACK_SLOT:
            raise ProtocolViolation(f"unexpected {frame_type} from federate {self.name}")
        _, slot, out, next_tick = received
        if slot != self._slot:
            raise self._malformed(f"for slot {slot}, expected {self._slot}")
        if type(out) is not list:
            raise self._malformed(f"with out {shape(out)}, not a list")
        if type(next_tick) is not int:
            raise self._malformed(f"with next {shape(next_tick)}, not an integer")
        outbox: list[tuple[int, str, SimMessage]] = []
        for entry in out:
            if type(entry) is not list or len(entry) != 3:
                raise self._malformed("with a malformed out entry, not [at, to, msg]")
            at, to, wire = entry
            try:
                msg = SimMessage.from_wire(wire)
            except (KeyError, TypeError) as exc:
                raise self._malformed(
                    f"with a malformed out entry ({type(exc).__name__}: {exc})"
                ) from exc
            if type(at) is not int or type(to) is not str:
                raise self._malformed(f"with an out entry at {shape(at)} to {shape(to)}")
            outbox.append((at, to, msg))
        return outbox, next_tick

    def _closed(self) -> ProtocolViolation:
        return ProtocolViolation(f"federate {self.name} closed its stream mid-slot")

    def _malformed(self, detail: str) -> ProtocolViolation:
        return ProtocolViolation(
            f"federate {self.name} sent an ACK_SLOT ending at byte {self.stream.offset} {detail}"
        )


def run_federate_client(sock: socket.socket, federate: LocalFederate) -> None:
    """Drive ``federate`` over its end of a coordinator stream until the stream ends.

    The federate waits for its next grant however long that takes, since it
    is not granted the slots it declared no event for; the coordinator alone
    bounds the run.
    """
    stream = _FrameStream(sock)
    slot = 0  # of the last grant, which an ERROR for an unreadable frame names
    try:
        stream.send(env.join(federate.name))
        while True:
            try:
                received = stream.recv()
            except DecodeError as exc:  # answered like a malformed GRANT
                stream.send(env.error(slot, type(exc).__name__, str(exc)))
                return
            if received is None:  # the run ended, or the coordinator refused the join
                return
            if received[0] != GRANT:
                raise ProtocolViolation(f"unexpected {received[0]} from coordinator")
            _, slot, end_ticks, inbox = received
            try:
                if type(end_ticks) is not int or type(inbox) is not list:
                    raise ProtocolViolation(
                        f"GRANT with end_ticks {shape(end_ticks)} and inbox {shape(inbox)}"
                    )
                inbox = [SimMessage.from_wire(msg) for msg in inbox]
                outbox, next_tick = federate.step(slot, end_ticks, inbox)
            except Exception as exc:  # surface federate failures to the RTI
                logger.exception("federate %s failed in slot %d", federate.name, slot)
                stream.send(env.error(slot, type(exc).__name__, str(exc)))
                return
            stream.send(env.ack_slot(slot, outbox, next_tick))
    except OSError:
        # The coordinator hung up, reset or aborted the stream; the
        # federation is over for this federate.
        logger.debug("federate %s lost its coordinator stream", federate.name)
    finally:
        stream.close()


def run_federation(
    tau_ticks: int,
    n_slots: int,
    federates: list[LocalFederate],
    *,
    transport: str = "inproc",
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> FederationResult:
    """Couple the given federates under one coordinator and run to the horizon.

    ``timeout_s`` bounds each wait of the coordinator for a JOIN or an ACK_SLOT,
    and each ``send`` call of a GRANT's write.
    """
    if transport == "inproc":
        return Rti(tau_ticks, [(f.name, InprocEndpoint(f)) for f in federates]).run(n_slots)
    if transport != "socket":
        raise ValueError(f"unknown transport {transport!r}")

    threads: list[threading.Thread] = []
    streams: list[_FrameStream] = []
    members: list[tuple[str, SocketEndpoint]] = []
    try:
        # Federates join one at a time, so ids follow the listed order.
        for position, federate in enumerate(federates, 1):
            ours, theirs = _coordinator_pair(timeout_s)
            stream = _FrameStream(ours)
            streams.append(stream)
            thread = threading.Thread(target=run_federate_client, args=(theirs, federate),
                                      name=f"federate-{federate.name}", daemon=True)
            thread.start()
            threads.append(thread)
            try:
                joined = stream.recv()
            except BlockingIOError as exc:  # no name has arrived to call it by
                raise FederateTimeout(f"federate {position} of {len(federates)} sent no JOIN "
                                      f"within {timeout_s:g} s") from exc
            if joined is None or joined[0] != JOIN:
                raise ProtocolViolation("expected JOIN")
            name = joined[2]
            if not quotable(name):  # every later error about the federate repeats it
                raise ProtocolViolation(f"JOIN must name the federate with a printable string of at "
                                        f"most {QUOTE_LIMIT} characters, got {shape(name)}")
            members.append((name, SocketEndpoint(stream, name, timeout_s)))
        result = Rti(tau_ticks, members).run(n_slots)
    finally:
        for stream in streams:
            stream.close()
    # Every federate has acknowledged its last slot and now reads the end of
    # its stream.  After a failure no thread is waited for: one may be stalled
    # in its step, and it ends on the closed stream when it next writes.
    for thread in threads:
        thread.join()
    return result
