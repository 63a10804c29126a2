"""Medium semantics: determinism, conservation, loss, routing, limits."""

import io
import json
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from deauthsim.frames import (
    BROADCAST,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    encode_frame,
)
from deauthsim.medium import (
    BATCH,
    DuplicateEndpoint,
    Handle,
    Medium,
    TickLimitExceeded,
    write_event_log,
)
from deauthsim.stations import AccessPoint, ClientStation
from helpers import AP_MAC, CLIENT_MAC, read_events
from medium_reference import ReferenceMedium, reference_write_event_log

MAC_A = MacAddress.parse("02:00:00:00:00:0a")
MAC_B = MacAddress.parse("02:00:00:00:00:0b")


def bare_frame(src=None, dst=None, subtype=FrameSubtype.AUTH_REQUEST):
    return encode_frame(ManagementFrame(subtype, src or MAC_A, dst or MAC_B, 0))


def distinct_frames(count):
    """``count`` frames to MAC_B that differ in their claimed source."""
    return [bare_frame(src=MacAddress(bytes([2, 0, 0, 0, 0, i]))) for i in range(1, count + 1)]


def rand(seed, count):
    """The first ``count`` draws of a loss stream seeded with ``seed``."""
    rng = Random(seed)
    return [rng.random() for _ in range(count)]


def kinds(events):
    return [kind for _, kind, _, _, _ in events]


def logged(medium):
    """The whole log of a library or reference medium, as event tuples."""
    return read_events(medium.events) if isinstance(medium, Medium) else medium.events


class Collector:
    """Minimal endpoint: records every ``(src, frame)`` it is handed."""

    def __init__(self):
        self.events = []

    def __call__(self, src, frame):
        self.events.append((src, frame))


STATION_MACS = [MacAddress(bytes([2, 0, 0, 0, 0x10, i])) for i in range(3)]
UNOWNED_MAC = MacAddress.parse("02:99:99:99:99:99")
PING, PONG, TEARDOWN = 0x10, 0x11, 0x0C


def teardown(src, dst):
    """A ``TEARDOWN`` frame of ``build_topology``'s traffic from ``src`` to ``dst``."""
    return bytes([TEARDOWN]) + src + dst + bytes(2)


def build_topology(medium, stations, taps):
    """Attach ``stations`` (reply flags) and ``taps`` (callback flags); return handles and a trace.

    A replying station (``True``, ``"runs"`` or ``"batches"``) answers
    every ``PING`` frame with one ``PONG`` to the frame's claimed source, so
    drains span several ticks.  A ``"runs"`` station also answers every
    ``TEARDOWN`` frame true, which changes nothing for it, and takes the
    rest of a run as one ``copies`` call; the trace records that call as
    ``copies`` calls.  A ``"batches"`` station answers every ``TEARDOWN``
    frame ``BATCH`` instead, and takes both a run and a batch call, which
    it handles frame by frame; the trace records each frame of a batch.
    """
    seen = []
    handles = []

    def station(i, replies):
        def take(src, frame, copies=1):
            seen.extend([(i, src, frame)] * copies)
            if replies and frame[:1] == bytes([PING]):
                handles[i].send((bytes([PONG]) + STATION_MACS[i] + frame[1:7] + bytes(2),))
            if frame[:1] != bytes([TEARDOWN]):
                return False
            return {"runs": True, "batches": BATCH}.get(replies, False)

        def receive(src, frame, copies=1, stop=0):
            if not stop:
                return take(src, frame, copies)
            for data in frame[copies:stop]:
                take(src, data)

        return receive

    def tap(j):
        return lambda src, frame: seen.append((f"tap{j}", src, frame))

    for i, replies in enumerate(stations):
        receive = None if replies is None else station(i, replies)
        handles.append(medium.attach(f"station\"{i}", STATION_MACS[i], receive))
    for j, observes in enumerate(taps):
        handles.append(medium.attach(f"tap {j}", None, tap(j) if observes else None, injector=True))
    return handles, seen


@st.composite
def traffic_strategy(draw):
    """Loss, seed, station reply flags (None: no callback), tap flags, and drains of sends.

    The reply flags are those of ``build_topology``.

    A send is a sender index and its frames, some of them one object
    repeated.
    """
    macs = st.sampled_from(STATION_MACS + [BROADCAST, UNOWNED_MAC])
    whole = st.builds(
        lambda code, src, dst, tail: bytes([code]) + src + dst + bytes(2) + tail,
        st.sampled_from([PING, PONG, TEARDOWN]),
        macs,
        macs,
        st.binary(max_size=3),
    )
    frame = st.one_of(whole, st.binary(max_size=12))
    # Also sends that repeat frame objects, as a flood does: a pool of one
    # gives ``[frame] * k``, a pool of two interleaves two objects.
    repeats = st.lists(frame, min_size=1, max_size=2).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=5)
    )
    frames = st.one_of(st.lists(frame, min_size=1, max_size=5), repeats)
    send = st.tuples(st.integers(0, 4), frames)
    return (
        draw(st.sampled_from([0.0, 0.3, 1.0])),
        draw(st.integers(0, 2**32)),
        draw(
            st.lists(
                st.sampled_from([None, False, True, "runs", "batches"]), min_size=1, max_size=3
            )
        ),
        draw(st.lists(st.booleans(), max_size=2)),
        draw(st.lists(st.lists(send, max_size=4), min_size=1, max_size=4)),
    )


class TestAttach:
    def test_duplicate_id_rejected(self):
        medium = Medium()
        medium.attach("a", MAC_A)
        with pytest.raises(DuplicateEndpoint):
            medium.attach("a", MAC_B)

    def test_duplicate_mac_rejected(self):
        medium = Medium()
        medium.attach("a", MAC_A)
        with pytest.raises(DuplicateEndpoint):
            medium.attach("b", MAC_A)

    def test_refused_mac_leaves_the_id_free(self):
        medium = Medium()
        a = medium.attach("a", MAC_A)
        with pytest.raises(DuplicateEndpoint, match="already owned by 'a'"):
            medium.attach("b", MAC_A)
        got_b = Collector()
        medium.attach("b", MAC_B, got_b)
        a.send((bare_frame(dst=MAC_B),))
        [(_, _, _, dst, _)] = read_events(medium.run_until_idle())
        assert dst == "b"
        assert got_b.events == [("a", bare_frame(dst=MAC_B))]

    def test_refused_id_leaves_the_first_endpoint_routed(self):
        medium = Medium()
        got_a, got_dup = Collector(), Collector()
        medium.attach("a", MAC_A, got_a)
        with pytest.raises(DuplicateEndpoint, match="endpoint id 'a' already attached"):
            medium.attach("a", MAC_B, got_dup)
        sender = medium.attach("x", MacAddress.parse("02:00:00:00:00:0c"))
        sender.send((bare_frame(dst=MAC_A), bare_frame(dst=MAC_B)))
        events = read_events(medium.run_until_idle())
        assert [dst for _, _, _, dst, _ in events] == ["a", str(MAC_B)]
        assert got_a.events == [("x", bare_frame(dst=MAC_A))]
        assert got_dup.events == [], "the refused endpoint owns no MAC"

    def test_attach_returns_the_endpoint_it_routes_through(self):
        medium = Medium()
        got = Collector()
        a = medium.attach("a", MAC_A, got)
        tap = medium.attach("tap", None, injector=True)
        assert isinstance(a, Handle)
        assert (a.medium, a.endpoint_id) == (medium, "a")
        assert medium._tap_ids == ("tap",)
        tap.send((bare_frame(dst=MAC_A),))
        events = read_events(medium.run_until_idle())
        assert got.events == [("tap", bare_frame(dst=MAC_A))]
        assert [dst for _, kind, _, dst, _ in events if kind == "delivered"] == ["a"]


class TestDeliverySemantics:
    def test_unicast_reaches_only_the_owner(self):
        medium = Medium()
        got_b, got_c = Collector(), Collector()
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, got_b)
        medium.attach("c", MacAddress.parse("02:00:00:00:00:0c"), got_c)
        a.send((bare_frame(),))
        medium.run_until_idle()
        assert got_b.events == [("a", bare_frame())]
        assert got_c.events == []

    def test_broadcast_reaches_everyone_but_the_sender(self):
        medium = Medium()
        got_a, got_b, got_c = Collector(), Collector(), Collector()
        a = medium.attach("a", MAC_A, got_a)
        medium.attach("b", MAC_B, got_b)
        medium.attach("c", MacAddress.parse("02:00:00:00:00:0c"), got_c)
        # Endpoints without a MAC are not stations: no delivery reaches them.
        got_tap, got_macless = Collector(), Collector()
        medium.attach("tap", None, got_tap, injector=True)
        medium.attach("macless", None, got_macless)
        a.send((bare_frame(dst=BROADCAST),))
        medium.run_until_idle()
        assert got_a.events == [], "sender must not hear its own broadcast"
        assert len(got_b.events) == 1 and len(got_c.events) == 1
        assert got_tap.events == [("a", bare_frame(dst=BROADCAST))]
        assert got_macless.events == []
        assert kinds(read_events(medium.events)) == ["sniffed", "delivered"], (
            "one send, one delivered event"
        )

    @pytest.mark.parametrize(
        "medium_class", [Medium, ReferenceMedium], ids=["library", "reference"]
    )
    def test_each_broadcast_copy_reaches_every_other_owner_once_in_attach_order(
        self, medium_class
    ):
        medium = medium_class()
        trace = []

        def endpoint(name):
            return lambda src, frame: trace.append((name, src))

        a = medium.attach("a", MAC_A, endpoint("a"))
        medium.attach("c", MacAddress.parse("02:00:00:00:00:0c"), endpoint("c"))
        medium.attach("silent", MacAddress.parse("02:00:00:00:00:0e"))
        medium.attach("b", MAC_B, endpoint("b"))
        tap = medium.attach("tap", None, endpoint("tap"), injector=True)
        # One object per send, repeated as a flood repeats it.
        frame = bare_frame(dst=BROADCAST)
        a.send((frame,) * 2)
        tap.send((frame,) * 2)
        medium.run_until_idle()
        assert trace == [
            *[("tap", "a"), ("c", "a"), ("b", "a")] * 2,
            *[("tap", "tap"), ("a", "tap"), ("c", "tap"), ("b", "tap")] * 2,
        ], "the sender is left out only when it owns a MAC"

    def test_unowned_destination_is_logged_but_reaches_nobody(self):
        medium = Medium()
        a = medium.attach("a", MAC_A)
        a.send((bare_frame(dst=MacAddress.parse("02:99:99:99:99:99")),))
        [(_, kind, _, dst, _)] = read_events(medium.run_until_idle())
        assert (kind, dst) == ("delivered", "02:99:99:99:99:99")

    @pytest.mark.parametrize("size", [0, 1, 12])
    def test_frame_too_short_for_a_destination_is_labelled_unknown(self, size):
        medium = Medium()
        got_b = Collector()
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, got_b)
        a.send((bare_frame(dst=MAC_B)[:size],))
        events = read_events(medium.run_until_idle())
        assert [(kind, dst) for _, kind, _, dst, _ in events] == [("delivered", "?")]
        assert got_b.events == [], "a frame with no destination reaches nobody"

    def test_true_sender_recorded_despite_spoofed_source(self):
        medium = Medium()
        sink = Collector()
        attacker = medium.attach("attacker", None, injector=True)
        medium.attach("b", MAC_B, sink)
        spoofed = encode_frame(
            ManagementFrame(FrameSubtype.DEAUTHENTICATION, MAC_A, MAC_B, 3)
        )
        attacker.send((spoofed,))
        events = read_events(medium.run_until_idle())
        assert all(src == "attacker" for _, _, src, _, _ in events), (
            "the log records who really transmitted, not the claimed MAC"
        )
        assert kinds(events) == [
            "injected",
            "sniffed",
            "delivered",
        ], "an injector is also a tap, so it sniffs its own frame"
        assert sink.events == [("attacker", spoofed)], "the receiver is told the true sender"

    def test_one_send_of_many_frames_is_one_tick_in_order(self):
        medium = Medium()
        ap = AccessPoint(AP_MAC, rng=Random(2))
        ap.bind_transmit(medium.attach("ap", AP_MAC, lambda _, f: ap.receive_frame(f)).send)
        sender = medium.attach("x", MAC_A)
        frames = [
            bare_frame(src=CLIENT_MAC, dst=AP_MAC),
            bare_frame(src=MAC_A, dst=AP_MAC, subtype=FrameSubtype.DEAUTHENTICATION),
            bare_frame(src=MAC_B, dst=AP_MAC, subtype=FrameSubtype.DISASSOCIATION),
        ]
        sender.send(tuple(frames))
        events = read_events(medium.run_until_idle())
        reply = bare_frame(src=AP_MAC, dst=CLIENT_MAC, subtype=FrameSubtype.AUTH_RESPONSE)
        assert [(tick, src, frame) for tick, _, src, _, frame in events] == [
            (1, "x", frames[0]),
            (1, "x", frames[1]),
            (1, "x", frames[2]),
            (2, "ap", reply),
        ], "one tick for the whole send, and the reply to its first frame one tick later"
        assert medium.frames_sent == 4, "every frame of the send is counted"

    def test_responses_are_processed_next_tick(self):
        medium = Medium()
        client = ClientStation(CLIENT_MAC, rng=Random(1))
        ap = AccessPoint(AP_MAC, rng=Random(2))
        ch = medium.attach("client", CLIENT_MAC, lambda _, f: client.receive_frame(f))
        ah = medium.attach("ap", AP_MAC, lambda _, f: ap.receive_frame(f))
        client.bind_transmit(ch.send)
        ap.bind_transmit(ah.send)
        client.start_join(AP_MAC)
        events = read_events(medium.run_until_idle())
        delivered = [tick for tick, kind, _, _, _ in events if kind == "delivered"]
        assert delivered == [1, 2, 3, 4], (
            "each handshake step advances one tick"
        )

    def test_handshake_is_four_delivered_frames(self):
        # auth request, auth response, association request, response.
        medium = Medium()
        client = ClientStation(CLIENT_MAC, rng=Random(1))
        ap = AccessPoint(AP_MAC, rng=Random(2))
        ch = medium.attach("client", CLIENT_MAC, lambda _, f: client.receive_frame(f))
        ah = medium.attach("ap", AP_MAC, lambda _, f: ap.receive_frame(f))
        client.bind_transmit(ch.send)
        ap.bind_transmit(ah.send)
        client.start_join(AP_MAC)
        events = read_events(medium.run_until_idle())
        assert kinds(events) == ["delivered"] * 4
        subtypes = [frame[0] for _, _, _, _, frame in events]
        assert subtypes == [0x10, 0x11, 0x00, 0x01]
        assert client.sessions and ap.sessions


class TestPromiscuousSniffing:
    def test_tap_observes_traffic_not_addressed_to_it(self):
        tap = Collector()
        medium = Medium()
        client = ClientStation(CLIENT_MAC, rng=Random(1))
        ap = AccessPoint(AP_MAC, rng=Random(2))
        ch = medium.attach("client", CLIENT_MAC, lambda _, f: client.receive_frame(f))
        ah = medium.attach("ap", AP_MAC, lambda _, f: ap.receive_frame(f))
        client.bind_transmit(ch.send)
        ap.bind_transmit(ah.send)
        medium.attach("spy", None, tap, injector=True)
        client.start_join(AP_MAC)
        events = read_events(medium.run_until_idle())
        assert len(tap.events) == 4, "the sniffer sees the whole handshake"
        sniffed = [(src, frame) for _, kind, src, dst, frame in events if kind == "sniffed"]
        assert tap.events == sniffed
        assert all(dst == "spy" for _, kind, _, dst, _ in events if kind == "sniffed")

    def test_taps_observe_dropped_frames_too(self):
        tap = Collector()
        medium = Medium(loss_probability=1.0)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        medium.attach("spy", None, tap, injector=True)
        a.send((bare_frame(),))
        events = read_events(medium.run_until_idle())
        assert kinds(events) == ["sniffed", "dropped"]
        assert len(tap.events) == 1


class TestConservation:
    def test_every_send_yields_one_delivery_outcome_plus_sniffs(self):
        tap = Collector()
        medium = Medium(loss_probability=0.5, seed=77)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        medium.attach("spy", None, tap, injector=True)
        sends = 500
        for _ in range(sends):
            a.send((bare_frame(),))
        events = read_events(medium.run_until_idle())
        delivered = kinds(events).count("delivered")
        dropped = kinds(events).count("dropped")
        sniffed = kinds(events).count("sniffed")
        assert delivered + dropped == sends, "exactly one outcome per send"
        assert sniffed == sends, "one sniffed copy per tap per send"
        assert 0 < delivered < sends, "a 0.5 loss rate drops some but not all"


class TestLossModel:
    # One-frame entries go copy by copy; a uniform entry to MAC_B, whose
    # owner has no receiver, or to an unowned MAC runs after its first copy.
    @pytest.mark.parametrize(
        "uniform, dst",
        [(False, MAC_B), (True, MAC_B), (True, UNOWNED_MAC)],
        ids=["one-frame-entries", "uniform-no-receiver", "uniform-unowned"],
    )
    def test_delivery_pattern_matches_independent_bernoulli_stream(self, uniform, dst):
        # One random() draw per processed frame, dropped when the draw
        # falls below the loss probability; replay the stream directly.
        loss, seed, sends = 0.3, 2024, 10_000
        medium = Medium(loss_probability=loss, seed=seed)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        frame = bare_frame(dst=dst)
        if uniform:
            a.send((frame,) * sends)
        else:
            for _ in range(sends):
                a.send((frame,))
        events = read_events(medium.run_until_idle())
        assert {to for _, _, _, to, _ in events} == {"b" if dst == MAC_B else str(dst)}
        outcomes = kinds(events)
        rng = Random(seed)
        expected = ["dropped" if rng.random() < loss else "delivered" for _ in range(sends)]
        assert outcomes == expected, "loss draws must replay exactly"

    def test_zero_loss_delivers_everything(self):
        medium = Medium(loss_probability=0.0, seed=3)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        for _ in range(200):
            a.send((bare_frame(),))
        events = read_events(medium.run_until_idle())
        assert "dropped" not in kinds(events)

    def test_full_loss_delivers_nothing(self):
        medium = Medium(loss_probability=1.0, seed=3)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        for _ in range(200):
            a.send((bare_frame(),))
        events = read_events(medium.run_until_idle())
        assert "delivered" not in kinds(events)


class TestDeterminism:
    def _run_once(self, seed):
        medium = Medium(loss_probability=0.4, seed=seed)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        rng = Random(99)
        for _ in range(300):
            a.send((bare_frame(subtype=FrameSubtype.AUTH_REQUEST) + b"",))
            if rng.random() < 0.2:
                a.send(
                    (encode_frame(ManagementFrame(FrameSubtype.DEAUTHENTICATION, MAC_A, MAC_B, 3)),)
                )
        medium.run_until_idle()
        stream = io.StringIO()
        write_event_log(medium.events, stream)
        return stream.getvalue()

    def test_same_seed_same_log_bytes(self):
        assert self._run_once(11) == self._run_once(11)

    def test_different_seed_different_outcomes(self):
        assert self._run_once(11) != self._run_once(12)

    def test_event_order_is_total(self):
        medium = Medium()
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        for _ in range(5):
            a.send((bare_frame(),))
        events = read_events(medium.run_until_idle())
        ticks = [tick for tick, _, _, _, _ in events]
        assert ticks == sorted(ticks)


class TestEventLog:
    def test_jsonl_shape(self):
        medium = Medium()
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        raw = bare_frame()
        a.send((raw,))
        medium.run_until_idle()
        stream = io.StringIO()
        write_event_log(medium.events, stream)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {
            "tick": 1,
            "kind": "delivered",
            "from": "a",
            "to": "b",
            "frame": raw.hex(),
        }

    def test_labels_are_quoted_exactly_like_json_dumps(self):
        label = 'q"uote \\back caf\u00e9 \u2603 \U0001f600 \n'
        medium = Medium()
        sender = medium.attach(label, MAC_A, injector=True)
        medium.attach("to " + label, MAC_B)
        sender.send((bare_frame(),))
        medium.run_until_idle()
        stream = io.StringIO()
        write_event_log(medium.events, stream)
        events = read_events(medium.events)
        assert {(src, dst) for _, _, src, dst, _ in events} == {
            (label, "to " + label),
            (label, label),
        }, "the odd label is both a sender and a destination"
        assert stream.getvalue() == "".join(
            json.dumps(
                {"tick": tick, "kind": kind, "from": src, "to": dst, "frame": frame.hex()},
                separators=(",", ":"),
            )
            + "\n"
            for tick, kind, src, dst, frame in events
        )


class TestDrainResult:
    def test_each_drain_returns_only_its_own_events(self):
        medium = Medium()
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        a.send((bare_frame(),))
        first = medium.run_until_idle()
        a.send((bare_frame(),))
        a.send((bare_frame(),))
        second = medium.run_until_idle()
        assert [tick for tick, _, _, _, _ in read_events(first)] == [1], (
            "a view does not grow with the log"
        )
        assert [tick for tick, _, _, _, _ in read_events(second)] == [2, 2]
        assert (len(first), len(second), len(medium.events)) == (1, 2, 3)
        assert read_events(medium.events) == read_events(first) + read_events(second), (
            "the medium still keeps the whole log"
        )
        idle = medium.run_until_idle()
        assert len(idle) == 0 and read_events(idle) == [], "an idle drain produces nothing"

    def test_a_step_is_logged_as_the_tuple_it_was_queued_as(self):
        medium = Medium()
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        step = (bare_frame(),) * 3
        a.send(step)
        a.send(())
        assert len(medium.run_until_idle()) == 3, "an empty step queues nothing"
        [(tick, _, frames, _)] = medium._records
        assert (tick, frames) == (1, step) and frames is step, "kept as is, not copied"


class TestCallbacksDuringADrain:
    """Where the record-per-entry log differs from storing one event at a time,
    and what a callback that attaches an endpoint gets."""

    def test_a_callback_does_not_see_the_entry_it_is_part_of(self):
        # Seed 0 delivers the first entry's frame and, in the second,
        # drops the middle two of four.
        medium = Medium(loss_probability=0.5, seed=0)
        seen = []

        def read_the_log(src, frame):
            seen.append((len(medium.events), medium.frames_sent, medium.frames_dropped))

        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, read_the_log)
        frames = tuple(distinct_frames(5))
        a.send(frames[:1])
        a.send(frames[1:])
        medium.run_until_idle()
        # An entry's events, and its frames in both totals, join the log
        # once the whole entry is done.
        assert seen == [(0, 0, 0), (1, 1, 0), (1, 1, 0)]
        assert (len(medium.events), medium.frames_sent, medium.frames_dropped) == (5, 5, 2)

    def test_a_delivery_callback_that_raises_keeps_its_frame_whole(self):
        medium = Medium()
        tap = Collector()
        a = medium.attach("a", MAC_A)
        medium.attach("spy", None, tap, injector=True)
        frames = distinct_frames(3)

        def refuse_second(src, frame):
            if frame == frames[1]:
                raise RuntimeError("receiver failed")

        medium.attach("b", MAC_B, refuse_second)
        a.send(tuple(frames))
        with pytest.raises(RuntimeError, match="receiver failed"):
            medium.run_until_idle()
        events = read_events(medium.events)
        assert [(kind, frame) for _, kind, _, _, frame in events] == [
            ("sniffed", frames[0]),
            ("delivered", frames[0]),
            ("sniffed", frames[1]),
            ("delivered", frames[1]),
        ], "the same log as storing each event as it happens"
        assert len(medium.events) == 4
        outcomes = kinds(events).count("delivered") + kinds(events).count("dropped")
        assert medium.frames_sent == outcomes == 2, "only the frames that reached their loss draw"

    def test_a_tap_callback_that_raises_leaves_its_frame_out(self):
        medium = Medium()
        frames = distinct_frames(3)

        def refuse_second(src, frame):
            if frame == frames[1]:
                raise RuntimeError("tap failed")

        attacker = medium.attach("attacker", None, refuse_second, injector=True)
        medium.attach("b", MAC_B)
        attacker.send(tuple(frames))
        with pytest.raises(RuntimeError, match="tap failed"):
            medium.run_until_idle()
        # Storing each event as it happened would also have kept the second
        # frame's injected and sniffed events, with no outcome.
        assert kinds(read_events(medium.events)) == ["injected", "sniffed", "delivered"]
        assert [frame for *_, frame in read_events(medium.events)] == [frames[0]] * 3
        assert len(medium.events) == 3
        assert medium.frames_sent == 1, "the second frame never reached its loss draw"

    @pytest.mark.parametrize(
        "medium_class", [Medium, ReferenceMedium], ids=["library", "reference"]
    )
    def test_a_raising_callback_leaves_the_frames_it_did_not_reach_queued(self, medium_class):
        medium = medium_class()
        trace = []
        f0, f9, f1, f2 = distinct_frames(4)
        reply = bare_frame(src=MAC_B, dst=MAC_A)

        def refuse_f0(src, frame):
            trace.append(("b", frame))
            if frame == f0:
                b.send((reply,))
                raise RuntimeError("receiver failed")

        a = medium.attach("a", MAC_A, lambda src, frame: trace.append(("a", frame)))
        b = medium.attach("b", MAC_B, refuse_f0)
        a.send((f0, f9))
        a.send((f1,))
        a.send((f2,))
        with pytest.raises(RuntimeError, match="receiver failed"):
            medium.run_until_idle()
        assert medium.frames_sent == 1
        medium.run_until_idle()
        assert trace == [("b", f0), ("b", f9), ("b", f1), ("b", f2), ("a", reply)], (
            "every frame is handled once, in order, ahead of the reply queued after it"
        )
        assert medium.frames_sent == 5

    @pytest.mark.parametrize(
        "medium_class", [Medium, ReferenceMedium], ids=["library", "reference"]
    )
    def test_attaching_during_a_drain_is_refused_and_the_rest_stays_queued(self, medium_class):
        medium = medium_class()
        got_b = Collector()
        f0, f1, f2 = distinct_frames(3)

        def attach_c(src, frame):
            got_b(src, frame)
            if frame == f0:
                medium.attach("c", MacAddress.parse("02:00:00:00:00:0c"))

        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, attach_c)
        a.send((f0, f1))
        a.send((f2,))
        with pytest.raises(RuntimeError, match="cannot attach 'c': the medium has run"):
            medium.run_until_idle()
        assert [(kind, frame) for _, kind, _, _, frame in logged(medium)] == [
            ("delivered", f0)
        ], "the frame whose receiver attached is logged whole"
        assert medium.frames_sent == 1
        medium.run_until_idle()
        assert got_b.events == [("a", f0), ("a", f1), ("a", f2)], (
            "the frames not reached stay queued and are delivered next, in order"
        )

    @pytest.mark.parametrize(
        "medium_class", [Medium, ReferenceMedium], ids=["library", "reference"]
    )
    def test_a_refused_mac_owns_nothing(self, medium_class):
        medium = medium_class()
        mac_c = MacAddress.parse("02:00:00:00:00:0c")
        got_c = Collector()

        def attach_c(src, frame):
            medium.attach("c", mac_c, got_c)

        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, attach_c)
        a.send((bare_frame(),))
        with pytest.raises(RuntimeError, match="cannot attach 'c'"):
            medium.run_until_idle()
        a.send((bare_frame(dst=mac_c),))
        medium.run_until_idle()
        assert logged(medium)[-1][1:4] == ("delivered", "a", "02:00:00:00:00:0c"), (
            "labelled with its MAC text, not the refused id"
        )
        assert got_c.events == [], "the refused endpoint reaches nobody"

    @pytest.mark.parametrize(
        "medium_class", [Medium, ReferenceMedium], ids=["library", "reference"]
    )
    def test_attaching_after_a_drain_is_refused_but_not_after_a_send(self, medium_class):
        medium = medium_class()
        mac_c = MacAddress.parse("02:00:00:00:00:0c")
        got_c = Collector()
        a = medium.attach("a", MAC_A)
        a.send((bare_frame(dst=mac_c),))
        medium.attach("c", mac_c, got_c)
        medium.run_until_idle()
        assert got_c.events == [("a", bare_frame(dst=mac_c))], "a send is not a tick"
        with pytest.raises(RuntimeError, match="cannot attach 'd': the medium has run"):
            medium.attach("d", MacAddress.parse("02:00:00:00:00:0d"))
        with pytest.raises(RuntimeError, match="cannot attach 'c'"):
            medium.attach("c", None)


class TestReactiveTap:
    """A tap sees a frame before the station it is addressed to."""

    def test_a_taps_answer_is_delivered_before_the_receivers_reply(self):
        medium = Medium()
        inbox = Collector()
        request = bare_frame(src=MAC_A, dst=MAC_B)
        reply = bare_frame(src=MAC_B, dst=MAC_A, subtype=FrameSubtype.AUTH_RESPONSE)
        forged = bare_frame(src=MAC_B, dst=MAC_A, subtype=FrameSubtype.ASSOC_RESPONSE)

        def answer(src, frame):
            if frame == request:
                b.send((reply,))

        def race(src, frame):
            if frame == request:
                tap.send((forged,))

        a = medium.attach("a", MAC_A, inbox)
        b = medium.attach("b", MAC_B, answer)
        tap = medium.attach("tap", None, race, injector=True)
        a.send((request,))
        events = read_events(medium.run_until_idle())
        delivered = [(tick, src, frame) for tick, kind, src, _, frame in events if kind == "delivered"]
        assert delivered == [(1, "a", request), (2, "tap", forged), (2, "b", reply)], (
            "the tap's callback runs before delivery, so its answer is queued first"
        )
        assert inbox.events == [("tap", forged), ("b", reply)]


def calls_by_receiver(seen):
    """A topology's trace, split by receiver, each part in call order."""
    calls = {}
    for call in seen:
        calls.setdefault(call[0], []).append(call)
    return calls


class TestRuns:
    """A receiver that answers a copy true gets the rest of its run as one call."""

    @staticmethod
    def counted(calls, answer=True):
        def receive(src, frame, *copies):
            calls.append((frame, *copies))
            return answer

        return receive

    def test_the_rest_of_a_uniform_entry_is_one_call(self):
        medium = Medium()
        calls = []
        f = bare_frame()
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, self.counted(calls))
        a.send((f,) * 3)
        assert len(medium.run_until_idle()) == 3
        assert calls == [(f,), (f, 2)]

    def test_equal_frames_that_are_distinct_objects_form_a_run(self):
        medium = Medium()
        calls = []
        f = bare_frame()
        copies = (f, bytes(bytearray(f)), bytes(bytearray(f)))
        assert len(set(map(id, copies))) == 3
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, self.counted(calls))
        a.send(copies)
        medium.run_until_idle()
        assert calls == [(f,), (f, 2)]
        assert kinds(read_events(medium.events)) == ["delivered"] * 3

    def test_a_mixed_entry_is_delivered_copy_by_copy(self):
        medium = Medium()
        calls = []
        f, g = distinct_frames(2)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, self.counted(calls))
        a.send((f, f, f, g, g))
        assert len(medium.run_until_idle()) == 5
        assert calls == [(f,)] * 3 + [(g,)] * 2

    @pytest.mark.parametrize("dst", [MAC_B, BROADCAST])
    def test_a_uniform_entry_under_a_tap_receiver_is_routed_once(self, dst):
        class Routes(dict):
            """The route table, counting lookups and broadcast receiver lists."""

            lookups = lists = 0

            def get(self, key, default=None):
                Routes.lookups += 1
                return super().get(key, default)

            def values(self):
                Routes.lists += 1
                return super().values()

        medium = Medium()
        calls, tap = [], Collector()
        f = bare_frame(dst=dst)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, self.counted(calls))
        medium.attach("tap", None, tap, injector=True)
        medium._routes = Routes(medium._routes)
        a.send((f,) * 2 + (bytes(bytearray(f)),) * 2)
        assert len(medium.run_until_idle()) == 8
        assert calls == [(f,)] * 4, "a tap must see every copy, so every copy is a call"
        assert tap.events == [("a", f)] * 4
        assert (Routes.lookups, Routes.lists) == (1, dst == BROADCAST)

    def test_no_loss_is_drawn_at_loss_0(self):
        medium = Medium(seed=7)
        state = medium._loss_rng.getstate()
        f, g = distinct_frames(2)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, self.counted([]))
        # A mixed entry goes copy by copy, a uniform one as a run.
        a.send((f, f, g))
        a.send((f,) * 3)
        medium.run_until_idle()
        assert medium.frames_sent == 6
        assert medium._loss_rng.getstate() == state

    def test_a_receiver_answering_none_gets_every_copy(self):
        medium = Medium()
        calls = []
        f = bare_frame()
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, self.counted(calls, None))
        a.send((f,) * 3)
        medium.run_until_idle()
        assert calls == [(f,)] * 3

    def test_a_broadcast_run_waits_for_every_receiver_to_answer_true(self):
        medium = Medium()
        calls, quiet, last = [], [], []
        f = bare_frame(dst=BROADCAST)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, self.counted(calls))
        medium.attach("c", MacAddress.parse("02:00:00:00:00:0c"), self.counted(quiet, False))
        # A true answer after a false one does not start a run either.
        medium.attach("d", MacAddress.parse("02:00:00:00:00:0d"), self.counted(last))
        a.send((f,) * 3)
        medium.run_until_idle()
        assert (calls, quiet, last) == ([(f,)] * 3, [(f,)] * 3, [(f,)] * 3)

    def test_a_receiver_that_raises_in_its_copies_call_has_its_run_logged_whole(self):
        medium = Medium()
        calls = []
        f, g = distinct_frames(2)

        def refuse_copies(src, frame, *copies):
            calls.append((frame, *copies))
            if copies:
                raise RuntimeError("receiver failed")
            return True

        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, refuse_copies)
        a.send((f,) * 4)
        a.send((g,))
        with pytest.raises(RuntimeError, match="receiver failed"):
            medium.run_until_idle()
        assert calls == [(f,), (f, 3)]
        assert [(kind, frame) for _, kind, _, _, frame in read_events(medium.events)] == [
            ("delivered", f)
        ] * 4, "every copy of the run reached its loss draw"
        assert medium.frames_sent == 4
        medium.run_until_idle()
        assert calls[2:] == [(g,)], "the next entry stayed queued"
        assert medium.frames_sent == 5


class TestBatches:
    """A unicast receiver that answers a frame ``BATCH`` gets the rest of a
    mixed entry, all for it, in one call per stretch of delivered frames."""

    @staticmethod
    def answering(calls, answers):
        """A receiver that records its calls and gives ``answers`` in turn to single frames."""
        answers = iter(answers)

        def receive(src, frame, *rest):
            calls.append((frame, *rest))
            return None if rest else next(answers)

        return receive

    def test_a_batch_begins_after_the_first_frame_answered_batch(self):
        medium = Medium()
        calls = []
        frames = tuple(distinct_frames(5))
        a = medium.attach("a", MAC_A)
        # An accepted frame answers false: the frame after it may still open a batch.
        medium.attach("b", MAC_B, self.answering(calls, [None, BATCH]))
        a.send(frames)
        assert len(medium.run_until_idle()) == 5
        assert calls == [(frames[0],), (frames[1],), (frames, 2, 5)]

    def test_a_batch_begins_after_a_dropped_first_frame(self):
        # A seed whose loss stream drops the first frame and delivers the second.
        seed = next(s for s in range(100) if [r < 0.5 for r in rand(s, 2)] == [True, False])
        dropped = [r < 0.5 for r in rand(seed, 8)]
        medium = Medium(loss_probability=0.5, seed=seed)
        calls = []
        frames = tuple(distinct_frames(8))
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, self.answering(calls, [BATCH]))
        a.send(frames)
        medium.run_until_idle()
        assert calls[0] == (frames[1],)
        assert all(call[0] is frames and len(call) == 3 for call in calls[1:])
        handed = [i for _, start, stop in calls[1:] for i in range(start, stop)]
        assert handed == [i for i in range(2, 8) if not dropped[i]]
        assert medium.frames_dropped == sum(dropped)

    def test_a_plain_true_answer_closes_the_entry_to_batches(self):
        medium = Medium()
        calls = []
        frames = tuple(distinct_frames(4))
        a = medium.attach("a", MAC_A)
        # The entry is checked once, after its first frame answered true.
        medium.attach("b", MAC_B, self.answering(calls, [True, BATCH, BATCH, BATCH]))
        a.send(frames)
        medium.run_until_idle()
        assert calls == [(frame,) for frame in frames]


class TestAgainstReference:
    """The record-per-entry log against the event-per-tuple drain in medium_reference.py."""

    @given(traffic=traffic_strategy())
    # Uniform entries whose copies after the first form a run: one to an
    # unowned MAC, with no receiver, and a tap's broadcast teardown, which
    # runs once both "runs" stations have answered a copy true.
    @example(traffic=(0.3, 1, ["runs"], [], [[(0, [teardown(STATION_MACS[0], UNOWNED_MAC)] * 6)]]))
    @example(
        traffic=(
            0.3, 1, [None, "runs", "runs"], [False], [[(3, [teardown(UNOWNED_MAC, BROADCAST)] * 6)]]
        )
    )
    # A batch: the station answers the first teardown ``BATCH``, and the
    # rest of the entry, all for it, is handed over in stretches.
    @example(
        traffic=(
            0.3,
            5,
            ["batches", True],
            [],
            [[(1, [teardown(STATION_MACS[1], STATION_MACS[0])] + [
                bytes([code]) + STATION_MACS[1] + STATION_MACS[0] + bytes(2) + bytes([n])
                for n, code in enumerate([PING, TEARDOWN, PONG, TEARDOWN, PING] * 2)
            ])]],
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_same_events_drains_bytes_and_callbacks(self, traffic):
        loss, seed, stations, taps, drains = traffic
        results = []
        for medium in (
            Medium(loss_probability=loss, seed=seed),
            ReferenceMedium(loss_probability=loss, seed=seed),
        ):
            handles, seen = build_topology(medium, stations, taps)
            drained = []
            for sends in drains:
                for sender, frames in sends:
                    handles[sender % len(handles)].send(tuple(frames))
                drained.append(medium.run_until_idle())
            results.append((medium, drained, seen))
        (medium, drained, seen), (reference, ref_drained, ref_seen) = results

        assert read_events(medium.events) == reference.events
        assert len(medium.events) == len(reference.events)
        assert [read_events(view) for view in drained] == ref_drained
        assert [len(view) for view in drained] == [len(events) for events in ref_drained]
        stream, ref_stream = io.StringIO(), io.StringIO()
        write_event_log(medium.events, stream)
        reference_write_event_log(reference.events, ref_stream)
        assert stream.getvalue() == ref_stream.getvalue()
        for view, ref_events in zip(drained, ref_drained):
            stream, ref_stream = io.StringIO(), io.StringIO()
            write_event_log(view, stream)
            reference_write_event_log(ref_events, ref_stream)
            assert stream.getvalue() == ref_stream.getvalue()
        # A run reaches each receiver in turn, so only the order of calls
        # across receivers may differ, and only when some receiver takes runs.
        assert calls_by_receiver(seen) == calls_by_receiver(ref_seen)
        if "runs" not in stations and "batches" not in stations:
            assert seen == ref_seen
        assert (medium.frames_sent, medium.frames_dropped) == (
            reference.frames_sent,
            reference.frames_dropped,
        )


class TestTickLimit:
    def test_endless_echo_hits_the_guard(self):
        medium = Medium()
        handles = {}

        def echo(name, frame):
            handles[name].send((frame,))

        handles["a"] = medium.attach("a", MAC_A, lambda _, f: echo("a", f))
        handles["b"] = medium.attach("b", MAC_B, lambda _, f: echo("b", f))
        handles["a"].send((bare_frame(src=MAC_A, dst=MAC_B),))
        with pytest.raises(TickLimitExceeded):
            medium.run_until_idle(max_ticks=50)

    def test_message_counts_queued_frames_not_send_calls(self):
        medium = Medium()
        a = medium.attach("a", MAC_A)
        # b answers every frame with two copies in one send call.
        b = medium.attach("b", MAC_B, lambda _, f: b.send((f, f)))
        a.send((bare_frame(), bare_frame(), bare_frame()))
        with pytest.raises(TickLimitExceeded, match=r"^6 frames still queued after 1 ticks$"):
            medium.run_until_idle(max_ticks=1)

    def test_budget_is_per_call(self):
        medium = Medium()
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        a.send((bare_frame(),))
        medium.run_until_idle(max_ticks=1)
        a.send((bare_frame(),))
        medium.run_until_idle(max_ticks=1)
        assert len(medium.events) == 2
