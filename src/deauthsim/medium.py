"""Deterministic broadcast medium.

Single-threaded, tick-based: a frame sent during tick N is processed at
tick N+1, in submission order.  ``Medium.attach`` returns a ``Handle``,
the endpoint's sending half: ``Handle.send`` queues frames on the medium
that built it, and the drain reads the sender's identifier from it.  The
receiving half is the route ``attach`` fixes for the endpoint's MAC,
described below.  ``send`` takes one tuple of ``bytes``, a station's one
frame or a whole attack step, and queues it as one entry, processed in
order in the same tick; each of its frames counts in the
``TickLimitExceeded`` message.  The entry, and then the log record, hold
the caller's tuple object, so a step is never copied between the
attacker and the log.

Endpoints are fixed once the medium has run: ``attach`` raises
``RuntimeError`` from the first tick on, so owners and taps never change
during or after a drain; a callback that attaches gets that error, and
the drain ends as for any raising callback.  So ``attach`` builds each
owned MAC's route once: the owner's identifier, the logged ``to`` of the
frames sent to it, and a tuple of its receiver, empty when it has none.  The
medium keeps a receiver there or among its tap receivers, nowhere else.
``run_until_idle`` reads the taps and the loss draw once per call and
drains an entry in one loop, reading its sender once; the per-frame
events and loss draws below keep their order.  Every copy reaches its
receivers through one sequence: its route's tuple, empty for a MAC
nobody owns, or, for a broadcast, a list of the receivers of every
route but the sender's.  Routing is done once for consecutive frames
that are one object, whatever its destination: while the next frame
``is`` the one last routed, its receivers are reused.  An entry whose
frames are all equal, as a flood's are, is a uniform entry: its frames
are copies of its first, which stands for each of them, so it is routed
once even when its copies are distinct objects.

A receiver is called ``receive(src, frame)`` with the sending endpoint's
identifier and the frame's bytes, and its return value is a promise: a
true value says that handling the frame changed nothing and sent
nothing, so a further copy, with nothing handled in between, would be
handled the same way.  A run is the rest of a uniform entry: once one
of its copies is delivered and every receiver of that copy, if any,
answered it true, the copies that follow it reach each receiver in
attach order as one call ``receive(src, frame, copies)``, ``copies``
being how many of them the loss draw delivered; there is no call when it
delivered none, nor for a copy that has no receiver.  Each of
those copies keeps its ordinal, and its loss draw in order.  A frame
repeated among other frames, in a mixed entry, forms no run: it is
delivered copy by copy, or in a batch as below.  A receiver that
returns ``None`` gets every copy as a call of its own.  So does every
receiver of a medium with a tap receiver, because a tap must see each
copy as it is sent.

A batch is the rest of an entry that is not uniform, for one receiver.
A receiver opts in by answering ``BATCH``, a true value that promises
what any true value does; plain truth does not opt in.  Such an entry
is checked once, at the first of its frames that is delivered and
answered true.  When that frame went to a unicast route's receiver,
which answered it ``BATCH``, every frame of the entry has that frame's
destination bytes, and no tap has a receiver, the medium draws the
losses of all the frames after it first, in order, recording the
dropped ordinals, and then hands the receiver the delivered ones as
``receive(src, frames, start, stop)``, one call per stretch
``frames[start:stop]`` of frames between two dropped ones, ``frames``
being the entry's own tuple.  Nothing else can run between two frames
of such an entry, and the loss stream is the medium's alone, so the
log, the loss pattern and what the receiver is handed are those of the
frames delivered one by one.  The opt-in travels in the answer, not in
``attach``, so that a wrapped receiver keeps it.  An entry that fails
the check, or has no frame delivered and answered true, is delivered
copy by copy, and so are the frames up to the one checked.

Processing a frame emits, in order, an ``injected`` event when the
sender is a tap, one ``sniffed`` event per tap, and then exactly one
``delivered`` or ``dropped`` event.  That conservation rule and the
fixed ordering make the event log a total order, identical
byte-for-byte across runs with the same seed.  Only an endpoint
attached as an injector is a tap, a promiscuous one: it observes every
send, lost or not, its own included.  Injection is not stored beside
the taps: an injector is a tap before its first send, and taps are
fixed once the medium has run, so a frame was injected exactly when its
sender is a tap.

Loss is a per-frame Bernoulli draw from ``random.Random(seed)``: one
``random()`` call per processed frame, dropped when the draw falls
below ``loss_probability``.  The generator is touched for nothing else,
so the delivered/dropped pattern can be replayed independently.  At a
loss of 0 no frame could drop, so no draw is made.

Routing uses only the destination MAC, bytes ``frames.DST_OFFSET`` to
``frames.DST_END`` (7-13) of the raw frame, looked up as raw bytes; the
medium never inspects the source, which is what makes spoofing possible
by construction.  The broadcast MAC ff:ff:ff:ff:ff:ff reaches every
MAC-owning endpoint except the sender, in the order they were attached.

``Medium.events`` is the whole log and each ``run_until_idle`` call
returns its own part of it, both as an ``EventLog``: a read-only view
that has a ``len`` and that ``write_event_log`` writes, one JSON line
per event ``(tick, kind, from, to, frame)``, kind being its log word.
No event is stored.  The drain keeps one record per queue entry,
``(tick, from, frames, first)``, where ``first`` is the ordinal of the
entry's first frame, and the ordinal of each dropped frame, in
increasing order, in one ``array('q')``.  A frame's ``to`` is not
stored: it follows from the frame's destination bytes and the routes,
which are fixed once the medium has run.  So a flood costs one
reference per frame, in the caller's tuple, and a dropped frame 8 bytes
more, and the records are tuples of atomic values that the cyclic GC
stops tracking.  ``write_event_log`` is the one reader that expands the
records into events.  It derives each frame's ``to`` from the routes,
once per distinct frame object: an owned MAC is written as its owner's
identifier, any other MAC, broadcast included, as its text, and a frame
too short for a destination as ``"?"``.  It walks the dropped ordinals
alongside the frames from a ``bisect`` to the view's first one and
formats each line straight from the records, the same bytes as
``json.dumps`` with compact separators.  A uniform record's lines are
formatted once, for a delivered copy and for a dropped one, and each
stretch of delivered copies between two dropped ones is that text
repeated.  The text goes out in chunks of ``_LINES_PER_WRITE`` lines,
a stretch cut into pieces of at most that many, so the writer holds a
bounded part of the log however many copies a record has.

Totals are read from the log, not counted beside it: ``frames_sent`` is
the ordinal that follows the last record's frames, 0 with no records,
and ``frames_dropped`` counts the dropped ordinals below it, so
``frames_sent`` always equals delivered plus dropped; and a view's
``len`` adds up, per record, its frames times the events each frame
leaves, one step per record.

Three cases are worth knowing when a callback acts during a drain.  The
first two are where keeping the log per entry differs from storing each
event as it happens:

* when a callback raises, the interrupted entry logs the frames that
  reached their loss draw, each with all its events: a frame whose
  delivery callback raised is logged whole, so is every copy of a run
  whose ``copies`` call raised, and so is the whole entry of a batch
  call that raised, since every loss of a batch is drawn before its
  first call; a frame whose tap callback raised is not logged at all,
  with no ``injected`` or ``sniffed`` event;
* the events of an entry join the log when the entry is done, so a
  callback reading ``events`` or either total during a drain does not
  see the entry it is part of;
* when a callback raises, every frame that had not reached its loss draw
  stays queued, in order: the rest of the interrupted entry, then the
  entries of that tick's queue not yet begun, all ahead of the frames
  that callbacks queued during the tick.  The next ``run_until_idle``
  processes them, so a frame whose tap callback raised is shown again
  to the taps before that one.

An event's ``from`` is the sending endpoint's identifier, not the
frame's source field: the log is the omniscient observer and always
knows who really transmitted.  That holds for every ``Handle`` built
by ``Medium.attach``, the only place one may be built; a hand-built
``Handle`` is outside this contract.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, repeat
from random import Random
from typing import IO, Callable

from .frames import BROADCAST, DST_END, DST_OFFSET, MacAddress

DEFAULT_MAX_TICKS = 10_000


class DuplicateEndpoint(Exception):
    """Endpoint identifier or MAC already attached."""


class TickLimitExceeded(Exception):
    """The tick budget ran out with frames still queued."""


# ``receive(src, frame)``; ``receive(src, frame, copies)`` for the equal
# frames left in a uniform entry once it has answered one of them true; and
# ``receive(src, frames, start, stop)`` for a stretch ``frames[start:stop]``
# of the rest of an entry for it alone, once it has answered one ``BATCH``.
Receiver = Callable[..., object]

# The answer that promises what a true one does and asks for the rest of an
# entry for this receiver alone as batch calls.  An ``object()`` is true.
BATCH = object()

# One processed queue entry: (tick, from, frames, ordinal of its first
# frame).  The entry was injected when ``from`` is a tap id.
_Record = tuple[int, str, tuple[bytes, ...], int]

# ``write_event_log`` writes its text once it holds this many lines.
_LINES_PER_WRITE = 4096


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
        taps = self._medium._tap_ids
        records = map(self._medium._records.__getitem__, range(self._start, self._stop))
        return sum(len(sent) * ((src in taps) + len(taps) + 1) for _, src, sent, _ in records)


def _uniform(frames: tuple[bytes, ...]) -> bool:
    """Whether an entry's frames are all equal, as a flood's are.

    Its ends are compared first, so that an entry of distinct token
    guesses is not counted.
    """
    size = len(frames)
    return size > 1 and frames[-1] == frames[0] and frames.count(frames[0]) == size


def write_event_log(events: EventLog, stream: IO[str]) -> None:
    """Serialize a view's events as JSON Lines, one event per line, in log order.

    This is the one place a record is expanded into its events.  Each
    line is ``json.dumps`` of the event's mapping with ``(",", ":")``
    separators.  The tick is an int, the kind a fixed ASCII word and the
    frame hex, so only the two endpoint labels need JSON string quoting.
    The lines are formatted straight from the log's records: one
    ``hex()`` per frame of a record that is not uniform and one per
    uniform record, whose lines are formatted once and repeated for each
    stretch of delivered copies; one route lookup per distinct frame
    object and one quote per distinct endpoint or destination.  The text
    is written once it holds ``_LINES_PER_WRITE`` lines, a repeated
    stretch cut into pieces of at most that many, so that the writer
    holds a bounded part of the log however long a record is.
    """
    # Imported here, so that importing the package does not load json.
    from json.encoder import encode_basestring_ascii as quote

    write = stream.write
    medium = events._medium
    routes, dropped, taps = medium._routes, medium._dropped, medium._tap_ids
    records = medium._records[events._start : events._stop]
    # The dropped ordinals from the view's first frame on.
    drops = islice(dropped, bisect_left(dropped, records[0][3] if records else 0), None)
    drop = next(drops, -1)
    sniffers = tuple(map(quote, taps))
    quoted = dict(zip(taps, sniffers))
    # The quoted ``to`` of each destination field met so far, taken from
    # ``quoted``, so that an id is quoted and kept once as sender and owner.
    destinations: dict[bytes, str] = {}
    # The last frame object whose ``to`` was found.
    labelled = None
    # The text not yet written, and how many lines it holds.
    chunk: list[str] = []
    put, held = chunk.append, 0
    for tick, src, frames, first in records:
        injected = src in taps
        # The lines each frame of the record leaves.
        lines = injected + len(sniffers) + 1
        head = f'{{"tick":{tick},"kind":"'
        sent = f'","from":{quoted.get(src) or quoted.setdefault(src, quote(src))},"to":'
        uniform = _uniform(frames)
        for ordinal, data in enumerate(frames[:1] if uniform else frames, first):
            if data is not labelled:
                # Short of the destination field when the frame is short.
                dst = data[DST_OFFSET:DST_END]
                to = destinations.get(dst)
                if to is None:
                    route = routes.get(dst)
                    if route:
                        label = route[0]
                    else:
                        label = str(MacAddress(dst)) if len(dst) == 6 else "?"
                    to = quoted.get(label) or quoted.setdefault(label, quote(label))
                    destinations[dst] = to
                labelled = data
            tail = f',"frame":"{data.hex()}"}}\n'
            if uniform:
                # Every line of a copy but its last.
                seen = f"{head}injected{sent}{to}{tail}" * injected + "".join(
                    [f"{head}sniffed{sent}{sniffer}{tail}" for sniffer in sniffers]
                )
                delivered = f"{seen}{head}delivered{sent}{to}{tail}"
                end = first + len(frames)
                while ordinal < end:
                    # The delivered copies before the next dropped one, in
                    # pieces of at most a chunk's lines, then that dropped one.
                    stop = drop if -1 < drop < end else end
                    copies = stop - ordinal
                    while copies:
                        piece = min(copies, max((_LINES_PER_WRITE - held) // lines, 1))
                        put(delivered * piece)
                        copies -= piece
                        held += piece * lines
                        if held >= _LINES_PER_WRITE:
                            write("".join(chunk))
                            chunk.clear()
                            held = 0
                    if stop < end:
                        put(f"{seen}{head}dropped{sent}{to}{tail}")
                        held += lines
                        drop = next(drops, -1)
                    ordinal = stop + 1
                continue
            if injected:
                put(f"{head}injected{sent}{to}{tail}")
            for sniffer in sniffers:
                put(f"{head}sniffed{sent}{sniffer}{tail}")
            if ordinal == drop:
                drop = next(drops, -1)
                put(f"{head}dropped{sent}{to}{tail}")
            else:
                put(f"{head}delivered{sent}{to}{tail}")
            held += lines
            if held >= _LINES_PER_WRITE:
                write("".join(chunk))
                chunk.clear()
                held = 0
    write("".join(chunk))


@dataclass(frozen=True, eq=False)
class Handle:
    """An attached endpoint's sending half, as returned by ``Medium.attach``.

    It holds no receiver: the medium keeps one in the route ``attach``
    fixed for the endpoint's MAC, or among its tap receivers.  Only
    ``Medium.attach`` builds a ``Handle``.  One built by hand is
    outside the medium's contract: its frames are queued and logged under
    an id the medium never attached, and nothing routes to it.  The
    medium's taps say whether it injects.
    """

    medium: "Medium"
    endpoint_id: str

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
        # The ordinal of each dropped frame, in increasing order.
        self._dropped = array("q")
        self._endpoints: set[str] = set()
        # Each owned MAC's route, fixed by ``attach``: the owner's id, the
        # logged ``to`` of the frames sent to it, and its receiver as a
        # tuple, empty when it has none.  A MacAddress hashes and compares as its octets,
        # so routing looks a frame's raw destination bytes up here without
        # building one.
        self._routes: dict[bytes, tuple[str, tuple[Receiver, ...]]] = {}
        # Fixed once the medium has run: a drain reads them once.
        self._tap_ids: tuple[str, ...] = ()
        self._tap_receivers: tuple[Receiver, ...] = ()
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
        if not self._records:
            return 0
        _, _, frames, first = self._records[-1]
        return first + len(frames)

    @property
    def frames_dropped(self) -> int:
        """How many processed frames the loss draw dropped."""
        # Only the logged ones: a drain appends a dropped ordinal before it
        # keeps its entry's record.
        return bisect_left(self._dropped, self.frames_sent)

    def attach(
        self,
        endpoint_id: str,
        mac: MacAddress | None = None,
        receive: Receiver | None = None,
        *,
        injector: bool = False,
    ) -> Handle:
        """Register an endpoint and return it; identifiers and MACs must be unused.

        An injector is a promiscuous tap: ``receive`` sees every frame
        sent, whatever its destination, and it is logged as ``sniffed``;
        the frames it sends are logged as ``injected``.  Endpoints are
        fixed once the medium has run: from the first tick on, ``attach``
        raises ``RuntimeError``.
        """
        if self._tick:
            raise RuntimeError(f"cannot attach {endpoint_id!r}: the medium has run")
        if endpoint_id in self._endpoints:
            raise DuplicateEndpoint(f"endpoint id {endpoint_id!r} already attached")
        if mac is not None and mac in self._routes:
            owner = self._routes[mac][0]
            raise DuplicateEndpoint(f"MAC {mac} already owned by {owner!r}")
        self._endpoints.add(endpoint_id)
        if mac is not None:
            self._routes[mac] = endpoint_id, () if receive is None else (receive,)
        if injector:
            self._tap_ids += (endpoint_id,)
            if receive is not None:
                self._tap_receivers += (receive,)
        return Handle(self, endpoint_id)

    def run_until_idle(self, max_ticks: int = DEFAULT_MAX_TICKS) -> EventLog:
        """Advance ticks until no frames remain queued.

        ``max_ticks`` bounds this call; an endpoint loop that keeps the
        queue busy past the budget raises ``TickLimitExceeded``.
        Returns a view of the events this call produced, which has a
        ``len`` and which ``write_event_log`` writes; ``events`` is the
        whole log.  When a callback raises, the frames that had not
        reached their loss draw stay queued, ahead of any queued later.
        The taps are read once per call.  Routing is one lookup of the
        routes ``attach`` fixed, which gives a receiver tuple; a broadcast
        lists the receivers of every route but the sender's.  Consecutive
        frames that are one object, and a uniform entry, whose frames one
        ``tuple.count`` finds all equal, are routed once.  Each copy costs
        its tap calls, a loss draw unless the loss is 0, and one call per
        receiver; the log keeps the entry's tuple, and nothing per copy but
        a dropped copy's ordinal.  Unless a tap has a receiver, the rest of
        an entry costs a loss draw per frame unless the loss is 0, and then
        one call: once a copy of a uniform entry is delivered and every
        receiver it has, if any, answers it true, one
        ``receive(src, frame, copies)`` per receiver; and once the first
        frame of any other entry that is delivered and answered true went
        to a unicast route's receiver, which answered it ``BATCH``, and
        one destination compare per frame finds the whole entry going
        there, one ``receive(src, frames, start, stop)`` per stretch of
        delivered frames.  Every loss of the rest is drawn before the
        first call, and an entry is checked for a batch only once.
        """
        dropped, records = self._dropped, self._records
        start = len(records)
        # ``frames_sent``, read without the property's call: a drain is made
        # per script step.
        first = records[-1][3] + len(records[-1][2]) if records else 0
        keep, drop = records.append, dropped.append
        draw, loss = self._loss_rng.random, self.loss_probability
        routes, tap_receivers = self._routes, self._tap_receivers
        budget = max_ticks
        while self._pending:
            if budget <= 0:
                queued = sum(len(frames) for _, frames in self._pending)
                raise TickLimitExceeded(f"{queued} frames still queued after {max_ticks} ticks")
            budget -= 1
            self._tick = tick = self._tick + 1
            queue, self._pending = self._pending, []
            # An iterator, so that a raising callback finds the entries not yet begun.
            entries = iter(queue)
            for sender, frames in entries:
                src = sender.endpoint_id
                size = len(frames)
                # A uniform entry is sent as copies of its first frame.
                uniform = _uniform(frames)
                # The frame taken last is followed by
                # ``rest.__length_hint__()`` frames of the entry, so its
                # ordinal is ``first + size - 1`` less that.  It is read only
                # where an ordinal is needed: an int past 256 allocates.
                rest = iter(repeat(frames[0], size) if uniform else frames)
                # Whether the rest of the entry has been handed over, and
                # whether a copy is at its taps.
                run = tapping = False
                # The last frame object routed below; whether every receiver
                # answered the last delivered copy true, with one receiver its
                # own answer; and whether the rest may still be handed over,
                # which a tap receiver, seeing each copy, rules out.
                routed, answered, whole = None, None, not tap_receivers
                try:
                    for data in rest:
                        if answered and whole:
                            # Nothing has changed since that copy, so the rest of a
                            # uniform entry reaches each receiver as one count.  The
                            # rest of any other entry reaches that copy's receiver
                            # in batches if it is a unicast route's one receiver,
                            # answered ``BATCH``, and every frame has that copy's
                            # destination.  That is checked once, here, per entry.
                            taken = size - 1 - rest.__length_hint__()
                            one = answered is BATCH and dst != BROADCAST
                            if uniform or one and all(m[DST_OFFSET:DST_END] == dst for m in frames):
                                run = True
                                # Every loss of the rest is drawn before any call.
                                drops = len(dropped)
                                if loss:
                                    ordinals = range(first + taken, first + size)
                                    dropped.extend(ordinal for ordinal in ordinals if draw() < loss)
                                if uniform:
                                    copies = size - taken - (len(dropped) - drops)
                                    if copies:
                                        for receive in receivers:
                                            receive(src, data, copies)
                                else:
                                    # One call to ``receive``, the route's receiver,
                                    # per stretch of frames between two dropped ones.
                                    for stop in (*dropped[drops:], first + size):
                                        if first + taken < stop:
                                            receive(src, frames, taken, stop - first)
                                        taken = stop + 1 - first
                                break
                            whole = False
                        if data is not routed:
                            # Short of the destination field when the frame is short.
                            dst = data[DST_OFFSET:DST_END]
                            route = routes.get(dst)
                            receivers = route[1] if route else ()
                            if dst == BROADCAST:
                                receivers = [
                                    r for owner, own in routes.values() if owner != src for r in own
                                ]
                            routed = data
                        # Tested first: a loop over no taps still builds an iterator.
                        if tap_receivers:
                            tapping = True
                            for receive in tap_receivers:
                                receive(src, data)
                            tapping = False
                        if loss and draw() < loss:
                            drop(first + size - 1 - rest.__length_hint__())
                            continue
                        # Every receiver gets the copy.
                        answered = True
                        for receive in receivers:
                            answer = receive(src, data)
                            answered = answered and answer
                except BaseException:
                    # Log the frames that reached their loss draw: every one
                    # taken but a copy at its taps, or the whole entry once a
                    # run has begun.  Queue the rest, and the entries not yet
                    # begun, ahead of any later.
                    done = size if run else size - rest.__length_hint__() - tapping
                    if done:
                        keep((tick, src, frames[:done], first))
                    unsent = [(sender, frames[done:])] if done < size else []
                    self._pending[:0] = [*unsent, *entries]
                    raise
                keep((tick, src, frames, first))
                first += size
        return EventLog(self, start, len(records))
