"""Spans around the package's public callables, patched from outside.

Each span is aggregated per name rather than kept one by one: call count,
inclusive time, the part of that time spent in child spans, raised
exceptions, and an optional per-call count taken from the result.  A
span's self time is its inclusive time minus its children's.

Callables are patched where their callers look them up (for example
``deauthsim.stations.decode_frame`` rather than ``deauthsim.frames``), so
the package itself is never edited.  ``Medium.attach`` is wrapped so that
the receive callbacks the scenario hands the medium (stations and
promiscuous taps) become spans too; ``medium.drain`` self time is then the
medium's own work per drained batch.

An ``inline`` span is counted and timed, but its time stays in the
enclosing span's self time and its children are charged to that span.
Verification and handshake steps are inline, so ``stations.receive`` self
time is ``receive_frame`` minus only its decode, encode, hash, token and
send children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from deauthsim import Action, adversary, medium, scenario, stations


@dataclass
class Span:
    calls: int = 0
    total_ns: int = 0
    child_ns: int = 0
    errors: int = 0
    items: int = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        # Child-time accumulators of the open non-inline spans, outermost first.
        self._open: list[list[int]] = [[0]]

    def wrap(self, name, fn, *, inline=False, count=None):
        """Return ``fn`` recording into span ``name``."""
        span = self.spans.setdefault(name, Span())
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            children = open_spans[-1] if inline else [0]
            if not inline:
                open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.total_ns += elapsed
                if not inline:
                    open_spans.pop()
                    span.child_ns += children[0]
                    open_spans[-1][0] += elapsed
            if count is not None:
                span.items += count(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer boundary for the duration of the block."""
        originals = []

        def patch(owner, attr, name, **kwargs):
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, **kwargs))

        original_attach = medium.Medium.attach
        wrap = self.wrap

        def attach(medium_, endpoint_id, mac=None, receive=None, *, injector=False):
            if receive is not None:
                kind = "station" if mac is not None else "tap"
                receive = wrap(f"medium.callback.{kind}", receive)
            return original_attach(medium_, endpoint_id, mac, receive, injector=injector)

        originals.append((medium.Medium, "attach", original_attach))
        medium.Medium.attach = attach
        try:
            patch(stations, "decode_frame", "frames.decode")
            patch(adversary, "decode_frame", "frames.decode")
            patch(stations, "encode_frame", "frames.encode")
            patch(adversary, "encode_frame", "frames.encode")
            patch(stations, "hash_token", "tokens.hash")
            patch(stations, "generate_token", "tokens.generate")
            patch(stations.Station, "receive_frame", "stations.receive")
            patch(
                stations.Station,
                "verify_deauth",
                "stations.verify",
                inline=True,
                count=lambda verdict: verdict.action is Action.ACCEPT,
            )
            for owner, attr in (
                (stations.ClientStation, "begin_association"),
                (stations.ClientStation, "handle_assoc_response"),
                (stations.AccessPoint, "handle_assoc_request"),
            ):
                patch(owner, attr, "stations.handshake", inline=True)
            patch(medium.Handle, "send", "medium.send")
            patch(medium.Medium, "run_until_idle", "medium.drain", count=len)
            patch(adversary.Adversary, "frames", "adversary.frames", count=len)
            patch(scenario.ScenarioRun, "execute", "scenario.execute")
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
