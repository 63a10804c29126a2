"""Reference medium, used only to cross-check the library's event log.

This is the straightforward drain: it builds and stores every event as a
tuple ``(tick, kind, from, to, frame)`` at the moment it happens, and the
writer formats one line per stored tuple.  The library's ``Medium``
stores one record per queue entry and one label per frame, and rebuilds
the events from them; for the same traffic, both must log the same
events in the same order, return the same events from each drain, write
the same bytes and call the same receivers with the same arguments.
When a callback raises, both leave queued the frames that had not
reached their loss draw.  It shares ``Handle`` with the library, so
that the same endpoint code can send on either, but none of its
draining or logging code.
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
        self._taps = []
        self._pending = []
        self._tick = 0
        self._loss_rng = Random(seed)

    def attach(self, endpoint_id, mac=None, receive=None, *, injector=False):
        assert endpoint_id not in self._endpoints and mac not in self._mac_owner
        endpoint = Handle(self, endpoint_id, receive, injector)
        self._endpoints.add(endpoint_id)
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
        if sender.injector:
            log((tick, "injected", src, dst_label, data))
        for tap in self._taps:
            log((tick, "sniffed", src, tap.endpoint_id, data))
            if tap.receive is not None:
                tap.receive(src, data)
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
            if endpoint.receive is not None:
                endpoint.receive(src, data)


def reference_write_event_log(events, stream):
    """One ``json.dumps`` line, with compact separators, per stored event tuple."""
    for tick, kind, src, dst, frame in events:
        line = {"tick": tick, "kind": kind, "from": src, "to": dst, "frame": frame.hex()}
        stream.write(json.dumps(line, separators=(",", ":")) + "\n")
