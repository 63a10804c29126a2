"""Deterministic broadcast medium.

Single-threaded, tick-based: a frame sent during tick N is processed at
tick N+1, in submission order.  ``Medium.attach`` returns the endpoint
itself, a ``Handle``: the one record the drain routes through, and the
sender, because ``Handle.send`` queues frames on the medium that built
it.  One ``send`` call may carry many frames, as a whole attack step
does: the call is one queue entry holding one tuple of frames, processed
in order in the same tick, and each frame counts in ``frames_sent`` and
in the ``TickLimitExceeded`` message.
``run_until_idle`` drains an entry in one loop, reading the sender once
per entry and the taps and the loss draw once per call; the per-frame
events and loss draws below keep their order.

Processing a frame emits, in order, an ``injected`` event when the
sender was attached as an injector, one ``sniffed`` event per injector
(an injector is also a promiscuous tap: it observes every send, lost or
not, its own included), and then exactly one ``delivered`` or
``dropped`` event.  That conservation rule and the fixed ordering make
the event log a total order, identical byte-for-byte across runs with
the same seed.

Loss is a per-frame Bernoulli draw from ``random.Random(seed)``: one
``random()`` call per processed frame, dropped when the draw falls
below ``loss_probability``.  The generator is touched for nothing else,
so the delivered/dropped pattern can be replayed independently.

Routing uses only the destination MAC at bytes 7-13 of the raw frame,
looked up as raw bytes; the medium never inspects the source, which is
what makes spoofing possible by construction.  The broadcast MAC
ff:ff:ff:ff:ff:ff reaches every MAC-owning endpoint except the sender.

``Medium.events`` keeps the whole log, each event a plain tuple
``(tick, kind, from, to, frame)`` whose kind is its log word.  Every
item is an atomic value, so the cyclic GC stops tracking an event at
its first collection.  Each ``run_until_idle`` call returns only the
events that call produced, so draining after every script step costs
time linear in the events, not in the log so far.  ``write_event_log``
formats each line directly, the same bytes as ``json.dumps`` with
compact separators.
``frames_sent`` and ``frames_dropped`` count processed and lost frames
as they happen, so totals never need a pass over the log.

An event's ``from`` is the sending endpoint's identifier, not the
frame's source field: the log is the omniscient observer and always
knows who really transmitted.  That holds for every ``Handle`` built
by ``Medium.attach``, the only place one may be built; a hand-built
``Handle`` is outside this contract.  A receiver is called with that
identifier and the frame's bytes, ``receive(src, frame)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from random import Random
from typing import IO, Callable

from .frames import BROADCAST, MacAddress

DEFAULT_MAX_TICKS = 10_000

_DST_OFFSET = 7
_DST_END = 13


class MediumError(Exception):
    """Base for medium bookkeeping errors."""


class DuplicateEndpoint(MediumError):
    """Endpoint identifier or MAC already attached."""


class TickLimitExceeded(MediumError):
    """The tick budget ran out with frames still queued."""


# One log line: (tick, kind, from, to, frame); kind is "injected",
# "sniffed", "delivered" or "dropped".
MediumEvent = tuple[int, str, str, str, bytes]


def write_event_log(events: list[MediumEvent], stream: IO[str]) -> None:
    """Serialize events as JSON Lines, one event per line.

    Each line is ``json.dumps`` of the event's mapping with ``(",", ":")``
    separators.  The tick is an int, the kind a fixed ASCII word and the
    frame hex, so only the two endpoint labels need JSON string quoting.
    """
    write = stream.write
    for tick, kind, src, dst, frame in events:
        write(
            f'{{"tick":{tick},"kind":"{kind}","from":{_quote(src)},'
            f'"to":{_quote(dst)},"frame":"{frame.hex()}"}}\n'
        )


@dataclass(frozen=True, eq=False)
class Handle:
    """An attached endpoint, as returned by ``Medium.attach``; it sends.

    Only ``Medium.attach`` builds a ``Handle``.  One built by hand is
    outside the medium's contract: its frames are queued and logged under
    an id the medium never attached, and nothing routes to it.
    """

    medium: "Medium"
    endpoint_id: str
    receive: Callable[[str, bytes], None] | None
    injector: bool

    def send(self, *frames: bytes) -> None:
        """Queue raw frames, in order, for processing at the next tick."""
        if frames:
            self.medium._pending.append((self, tuple(map(bytes, frames))))


class Medium:
    def __init__(self, *, loss_probability: float = 0.0, seed: int = 0):
        # Taken as given: ScenarioConfig refuses a probability outside [0, 1].
        self.loss_probability = loss_probability
        self.events: list[MediumEvent] = []
        self.frames_sent = 0
        self.frames_dropped = 0
        self._endpoints: set[str] = set()
        # A MacAddress hashes and compares as its octets, so routing looks
        # a frame's raw destination bytes up here without building one.
        self._mac_owner: dict[bytes, Handle] = {}
        self._taps: list[Handle] = []
        # One entry per send call: the sender and the frames it queued.
        self._pending: list[tuple[Handle, tuple[bytes, ...]]] = []
        self._tick = 0
        self._loss_rng = Random(seed)

    def attach(
        self,
        endpoint_id: str,
        mac: MacAddress | None = None,
        receive: Callable[[str, bytes], None] | None = None,
        *,
        injector: bool = False,
    ) -> Handle:
        """Register an endpoint and return it; identifiers and MACs must be unused.

        An injector is also a promiscuous tap: ``receive`` sees every
        frame sent, whatever its destination, and it is logged as
        ``sniffed``.
        """
        if endpoint_id in self._endpoints:
            raise DuplicateEndpoint(f"endpoint id {endpoint_id!r} already attached")
        if mac is not None and mac in self._mac_owner:
            owner = self._mac_owner[mac].endpoint_id
            raise DuplicateEndpoint(f"MAC {mac} already owned by {owner!r}")
        endpoint = Handle(self, endpoint_id, receive, injector)
        self._endpoints.add(endpoint_id)
        if mac is not None:
            self._mac_owner[mac] = endpoint
        if injector:
            self._taps.append(endpoint)
        return endpoint

    def run_until_idle(self, max_ticks: int = DEFAULT_MAX_TICKS) -> list[MediumEvent]:
        """Advance ticks until no frames remain queued.

        ``max_ticks`` bounds this call; an endpoint loop that keeps the
        queue busy past the budget raises ``TickLimitExceeded``.
        Returns the events this call produced, in log order; the whole
        log stays in ``events``.
        """
        start = len(self.events)
        log = self.events.append
        draw, loss = self._loss_rng.random, self.loss_probability
        taps, mac_owner = self._taps, self._mac_owner
        budget = max_ticks
        while self._pending:
            if budget <= 0:
                queued = sum(len(frames) for _, frames in self._pending)
                raise TickLimitExceeded(f"{queued} frames still queued after {max_ticks} ticks")
            budget -= 1
            self._tick = tick = self._tick + 1
            batch, self._pending = self._pending, []
            for sender, frames in batch:
                self.frames_sent += len(frames)
                src, is_injector = sender.endpoint_id, sender.injector
                for data in frames:
                    # Short of the destination field when the frame is short.
                    dst = data[_DST_OFFSET:_DST_END]
                    owner = mac_owner.get(dst)
                    if owner is not None:
                        dst_label = owner.endpoint_id
                    else:
                        dst_label = str(MacAddress(dst)) if len(dst) == 6 else "?"
                    if is_injector:
                        log((tick, "injected", src, dst_label, data))
                    for tap in taps:
                        log((tick, "sniffed", src, tap.endpoint_id, data))
                        if tap.receive is not None:
                            tap.receive(src, data)
                    if draw() < loss:
                        self.frames_dropped += 1
                        log((tick, "dropped", src, dst_label, data))
                        continue
                    log((tick, "delivered", src, dst_label, data))
                    if dst == BROADCAST:
                        for endpoint in mac_owner.values():
                            if endpoint.endpoint_id != src and endpoint.receive is not None:
                                endpoint.receive(src, data)
                    elif owner is not None and owner.receive is not None:
                        owner.receive(src, data)
        return self.events[start:]
