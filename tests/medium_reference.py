"""Reference medium, used only to cross-check the library's event log.

This is the straightforward drain: it builds and stores every event as a
tuple ``(tick, kind, from, to, frame)`` at the moment it happens, and the
writer formats one line per stored tuple.  The library's ``Medium``
stores one record per queue entry and the ordinals of the dropped
frames, and rebuilds the events from them, each destination from its
routes; for the same traffic, both must log the same
events in the same order, return the same events from each drain, write
the same bytes and hand each receiver the same frames in the same order.
The reference hands over every copy as a call of its own; the library
may hand a receiver the rest of a run as one ``copies`` call, which
counts as that many calls, and so may order calls across receivers
differently.  It may also hand one receiver the rest of an entry in one
call per stretch of delivered frames, which counts as a call per frame,
once that receiver has answered ``BATCH`` the first frame of the entry
that was delivered and answered true.  The reference draws a loss for
every frame, the library none at a loss of 0, where no draw could drop
a frame.  When a callback raises, both leave queued the frames that had
not reached their loss draw; the library draws every loss of a batch
before its first call, so a batch call that raises has the whole entry
logged, where the reference logs the frames up to the one whose call
raised.  It shares ``Handle``, the sending half of an endpoint, with the
library, so that the same endpoint code can send on either; it keeps each
endpoint's receiver in its own map, keyed by the ``Handle``, and shares
none of the library's routing, draining or logging code.
"""

import json
from random import Random

from deauthsim.frames import BROADCAST, MacAddress
from deauthsim.medium import Handle, TickLimitExceeded


class ReferenceMedium:
    def __init__(self, *, loss_probability=0.0, seed=0):
        self.loss_probability = loss_probability
        self.events = []
        self.frames_sent = 0
        self.frames_dropped = 0
        self._endpoints = set()
        self._mac_owner = {}
        # Each endpoint's receiver, or None, keyed by its Handle.
        self._receivers = {}
        self._taps = []
        self._pending = []
        self._tick = 0
        self._loss_rng = Random(seed)

    def attach(self, endpoint_id, mac=None, receive=None, *, injector=False):
        if self._tick:
            raise RuntimeError(f"cannot attach {endpoint_id!r}: the medium has run")
        assert endpoint_id not in self._endpoints and mac not in self._mac_owner
        endpoint = Handle(self, endpoint_id)
        self._endpoints.add(endpoint_id)
        self._receivers[endpoint] = receive
        if mac is not None:
            self._mac_owner[mac] = endpoint
        if injector:
            self._taps.append(endpoint)
        return endpoint

    def run_until_idle(self, max_ticks=10_000):
        """Drain the queue one frame at a time; return a copy of this call's events."""
        start = len(self.events)
        log = self.events.append
        budget = max_ticks
        while self._pending:
            if budget <= 0:
                queued = sum(len(frames) for _, frames in self._pending)
                raise TickLimitExceeded(f"{queued} frames still queued after {max_ticks} ticks")
            budget -= 1
            self._tick += 1
            queue = [(sender, data) for sender, frames in self._pending for data in frames]
            self._pending = []
            for n, (sender, data) in enumerate(queue):
                sent = self.frames_sent
                try:
                    self._process(sender, data, log)
                except BaseException:
                    # Queue again, one frame per entry, each frame that had
                    # not reached its loss draw, ahead of those sent since.
                    rest = queue[n + (self.frames_sent > sent) :]
                    self._pending[:0] = [(sender, (data,)) for sender, data in rest]
                    raise
        return self.events[start:]

    def _process(self, sender, data, log):
        tick, src = self._tick, sender.endpoint_id
        dst = data[7:13]
        owner = self._mac_owner.get(dst)
        if owner is not None:
            dst_label = owner.endpoint_id
        elif len(dst) == 6:
            dst_label = str(MacAddress(dst))
        else:
            dst_label = "?"
        if sender in self._taps:
            log((tick, "injected", src, dst_label, data))
        for tap in self._taps:
            log((tick, "sniffed", src, tap.endpoint_id, data))
            if self._receivers[tap] is not None:
                self._receivers[tap](src, data)
        self.frames_sent += 1
        if self._loss_rng.random() < self.loss_probability:
            self.frames_dropped += 1
            log((tick, "dropped", src, dst_label, data))
            return
        log((tick, "delivered", src, dst_label, data))
        if dst == BROADCAST:
            receivers = [e for e in self._mac_owner.values() if e.endpoint_id != src]
        else:
            receivers = [owner] if owner is not None else []
        for endpoint in receivers:
            if self._receivers[endpoint] is not None:
                self._receivers[endpoint](src, data)


def reference_write_event_log(events, stream):
    """One ``json.dumps`` line, with compact separators, per stored event tuple."""
    for tick, kind, src, dst, frame in events:
        line = {"tick": tick, "kind": kind, "from": src, "to": dst, "frame": frame.hex()}
        stream.write(json.dumps(line, separators=(",", ":")) + "\n")
