"""Deterministic broadcast medium.

Single-threaded, tick-based: a frame sent during tick N is processed at
tick N+1, in submission order.  ``Medium.attach`` returns the endpoint
itself, a ``Handle``: the one record the drain routes through, and the
sender, because ``Handle.send`` queues frames on the medium that built
it.  ``send`` takes one tuple of ``bytes``, a station's one frame or a
whole attack step, and queues it as one entry, processed in order in
the same tick; each of its frames counts in the ``TickLimitExceeded``
message.  The entry, and then the log record, hold the caller's tuple
object, so a step is never copied between the attacker and the log.
``run_until_idle`` drains an entry in one loop, reading the sender and
the taps once per entry and the loss draw once per call; the per-frame
events and loss draws below keep their order.  Routing is done once for
each run of one frame object while its owner stands: an attack step
repeats one ``bytes`` object, and while the next frame ``is`` the one
last routed to an owner, its label, the owner's ``receive`` and the
broadcast test are reused.  Owners are never replaced, so that routing
cannot go stale; a lookup that found no owner is made again for the
next copy, since a callback may attach the MAC in between.

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

Routing uses only the destination MAC, bytes ``frames.DST_OFFSET`` to
``frames.DST_END`` (7-13) of the raw frame, looked up as raw bytes; the
medium never inspects the source, which is what makes spoofing possible
by construction.  The broadcast MAC ff:ff:ff:ff:ff:ff reaches every
MAC-owning endpoint except the sender: the owners that existed when
that frame's delivery began, so a receiver may attach an endpoint.

``Medium.events`` is the whole log and each ``run_until_idle`` call
returns its own part of it, both as an ``EventLog``: a read-only view
that has a ``len`` and that ``write_event_log`` writes, one JSON line
per event ``(tick, kind, from, to, frame)``, kind being its log word.
No event is stored.  The drain keeps one record per queue entry,
``(tick, from, injector, tap ids, frames, first)``, where ``first`` is
the ordinal of the entry's first frame, one destination label per frame
in one flat list, and the ordinal of each dropped frame, in increasing
order, in one ``array('q')``.  So a flood costs two references per
frame and a dropped frame 8 bytes more, and the records are tuples of
atomic values that the cyclic GC stops tracking.  ``write_event_log`` is
the one reader that expands the records into events: it walks the
dropped ordinals alongside the frames from a ``bisect`` to the view's
first one and formats each line straight from the records, the same
bytes as ``json.dumps`` with compact separators.

Totals are read from the log, not counted beside it: ``frames_sent`` is
the number of labels, one per frame that reached its loss draw, so it
always equals delivered plus dropped; ``frames_dropped`` is the length
of the dropped array; and a view's ``len`` adds up, per record, its
frames times the events each frame leaves, one step per record.

Four cases are worth knowing when a callback acts during a drain.  The
first three are where keeping the log per entry differs from storing
each event as it happens:

* the taps that observe a queue entry are those attached when the
  entry's processing starts, so a tap attached by a callback during a
  drain observes (and is logged for) the next entry on, not the rest of
  the current one;
* when a callback raises, the interrupted entry logs the frames that
  reached their loss draw, each with all its events: a frame whose
  delivery callback raised is logged whole, and one whose tap callback
  raised is not logged at all, with no ``injected`` or ``sniffed``
  event;
* the events of an entry join the log when the entry is done, so a
  callback reading ``events`` during a drain does not see the entry it
  is part of;
* when a callback raises, every frame that had not reached its loss draw
  stays queued, in order: the rest of the interrupted entry, then the
  entries of that tick's batch not yet begun, all ahead of the frames
  that callbacks queued during the tick.  The next ``run_until_idle``
  processes them, so a frame whose tap callback raised is shown again
  to the taps before that one.

An event's ``from`` is the sending endpoint's identifier, not the
frame's source field: the log is the omniscient observer and always
knows who really transmitted.  That holds for every ``Handle`` built
by ``Medium.attach``, the only place one may be built; a hand-built
``Handle`` is outside this contract.  A receiver is called with that
identifier and the frame's bytes, ``receive(src, frame)``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from random import Random
from typing import IO, Callable

from .frames import BROADCAST, DST_END, DST_OFFSET, MacAddress

DEFAULT_MAX_TICKS = 10_000


class DuplicateEndpoint(Exception):
    """Endpoint identifier or MAC already attached."""


class TickLimitExceeded(Exception):
    """The tick budget ran out with frames still queued."""


# One processed queue entry: (tick, from, injector, tap ids, frames,
# ordinal of its first frame).
_Record = tuple[int, str, bool, tuple[str, ...], tuple[bytes, ...], int]


class EventLog:
    """A read-only view of a medium's event log, or of one drain's part of it.

    ``len`` counts its events, read from the records, one step per
    record, not per event; ``write_event_log`` writes them.  The view
    covers the records that existed when it was made and sees nothing
    logged later.
    """

    __slots__ = ("_medium", "_start", "_stop")

    def __init__(self, medium: Medium, start: int, stop: int):
        self._medium, self._start, self._stop = medium, start, stop

    def __len__(self) -> int:
        # Indexed, not islice'd: islice steps through every record before
        # the view, and a drain's view starts at the end of the whole log.
        records = map(self._medium._records.__getitem__, range(self._start, self._stop))
        return sum(len(frames) * (inj + len(taps) + 1) for _, _, inj, taps, frames, _ in records)


def write_event_log(events: EventLog, stream: IO[str]) -> None:
    """Serialize a view's events as JSON Lines, one event per line, in log order.

    This is the one place a record is expanded into its events.  Each
    line is ``json.dumps`` of the event's mapping with ``(",", ":")``
    separators.  The tick is an int, the kind a fixed ASCII word and the
    frame hex, so only the two endpoint labels need JSON string quoting.
    The lines are formatted straight from the log's records: one
    ``hex()`` per frame and one quote per distinct label.
    """
    # Imported here, so that importing the package does not load json.
    from json.encoder import encode_basestring_ascii as quote

    write = stream.write
    medium = events._medium
    labels, dropped = medium._labels, medium._dropped
    records = medium._records[events._start : events._stop]
    # The dropped ordinals from the view's first frame on.
    drops = islice(dropped, bisect_left(dropped, records[0][5] if records else 0), None)
    drop = next(drops, -1)
    quoted: dict[str, str] = {}
    for tick, src, injector, taps, frames, first in records:
        head = f'{{"tick":{tick},"kind":"'
        sent = f'","from":{quoted.get(src) or quoted.setdefault(src, quote(src))},"to":'
        for ordinal, data in enumerate(frames, first):
            dst = labels[ordinal]
            to = quoted.get(dst) or quoted.setdefault(dst, quote(dst))
            tail = f',"frame":"{data.hex()}"}}\n'
            if injector:
                write(f"{head}injected{sent}{to}{tail}")
            for tap in taps:
                sniffer = quoted.get(tap) or quoted.setdefault(tap, quote(tap))
                write(f"{head}sniffed{sent}{sniffer}{tail}")
            if ordinal == drop:
                drop = next(drops, -1)
                write(f"{head}dropped{sent}{to}{tail}")
            else:
                write(f"{head}delivered{sent}{to}{tail}")


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

    def send(self, frames: tuple[bytes, ...]) -> None:
        """Queue a tuple of raw frames as one entry, for the next tick, in order.

        The tuple is kept as is, not copied, so its frames must be
        ``bytes``.  An empty tuple queues nothing.
        """
        if frames:
            self.medium._pending.append((self, frames))


class Medium:
    def __init__(self, *, loss_probability: float = 0.0, seed: int = 0):
        # Taken as given: ScenarioConfig refuses a probability outside [0, 1].
        self.loss_probability = loss_probability
        self._records: list[_Record] = []
        # One destination label per logged frame, indexed by its ordinal.
        self._labels: list[str] = []
        # The ordinal of each dropped frame, in increasing order.
        self._dropped = array("q")
        self._endpoints: set[str] = set()
        # A MacAddress hashes and compares as its octets, so routing looks
        # a frame's raw destination bytes up here without building one.
        self._mac_owner: dict[bytes, Handle] = {}
        # Replaced, never mutated, by attach: a drain reads them once per entry.
        self._tap_ids: tuple[str, ...] = ()
        self._tap_receivers: tuple[Callable[[str, bytes], None], ...] = ()
        # One entry per send call: the sender and the frames it queued.
        self._pending: list[tuple[Handle, tuple[bytes, ...]]] = []
        self._tick = 0
        self._loss_rng = Random(seed)

    @property
    def events(self) -> EventLog:
        """The whole log so far."""
        return EventLog(self, 0, len(self._records))

    @property
    def frames_sent(self) -> int:
        """How many frames reached their loss draw: delivered plus dropped."""
        return len(self._labels)

    @property
    def frames_dropped(self) -> int:
        """How many processed frames the loss draw dropped."""
        return len(self._dropped)

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
            self._tap_ids += (endpoint_id,)
            if receive is not None:
                self._tap_receivers += (receive,)
        return endpoint

    def run_until_idle(self, max_ticks: int = DEFAULT_MAX_TICKS) -> EventLog:
        """Advance ticks until no frames remain queued.

        ``max_ticks`` bounds this call; an endpoint loop that keeps the
        queue busy past the budget raises ``TickLimitExceeded``.
        Returns a view of the events this call produced, which has a
        ``len`` and which ``write_event_log`` writes; ``events`` is the
        whole log.  When a callback raises, the frames that had not
        reached their loss draw stay queued, ahead of any queued later.
        A run of one frame object is routed once while its owner stands;
        taps, the label, the loss draw and the broadcast receivers are
        still per frame.
        """
        labels = self._labels
        start = len(self._records)
        keep, label, drop = self._records.append, labels.append, self._dropped.append
        draw, loss = self._loss_rng.random, self.loss_probability
        mac_owner = self._mac_owner
        budget = max_ticks
        while self._pending:
            if budget <= 0:
                queued = sum(len(frames) for _, frames in self._pending)
                raise TickLimitExceeded(f"{queued} frames still queued after {max_ticks} ticks")
            budget -= 1
            self._tick = tick = self._tick + 1
            batch, self._pending = self._pending, []
            # An iterator, so that a raising callback finds the entries not yet begun.
            entries = iter(batch)
            for sender, frames in entries:
                src, injector = sender.endpoint_id, sender.injector
                tap_ids, tap_receivers = self._tap_ids, self._tap_receivers
                first = len(labels)
                # The frame object whose routing below is still good, if any.
                routed = None
                try:
                    for data in frames:
                        if data is not routed:
                            # Short of the destination field when the frame is short.
                            dst = data[DST_OFFSET:DST_END]
                            broadcast = dst == BROADCAST
                            owner = mac_owner.get(dst)
                            if owner is not None:
                                # Owners are never replaced, so a flood's next
                                # copies of this object are routed the same way.
                                dst_label, deliver, routed = owner.endpoint_id, owner.receive, data
                            else:
                                # A callback may yet attach this MAC: look again.
                                dst_label = str(MacAddress(dst)) if len(dst) == 6 else "?"
                                deliver = routed = None
                        for receive in tap_receivers:
                            receive(src, data)
                        label(dst_label)
                        if draw() < loss:
                            drop(len(labels) - 1)
                            continue
                        if broadcast:
                            # A snapshot: a receiver may attach an endpoint.
                            for endpoint in tuple(mac_owner.values()):
                                if endpoint.endpoint_id != src and endpoint.receive is not None:
                                    endpoint.receive(src, data)
                        elif deliver is not None:
                            deliver(src, data)
                except BaseException:
                    # Log the frames that reached their loss draw; queue the
                    # rest, and the entries not yet begun, ahead of any later.
                    done = len(labels) - first
                    if done:
                        keep((tick, src, injector, tap_ids, frames[:done], first))
                    rest = [(sender, frames[done:])] if done < len(frames) else []
                    self._pending[:0] = [*rest, *entries]
                    raise
                keep((tick, src, injector, tap_ids, frames, first))
        return EventLog(self, start, len(self._records))
