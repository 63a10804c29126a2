"""Medium semantics: determinism, conservation, loss, routing, limits."""

import io
import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from deauthsim.frames import (
    BROADCAST,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    encode_frame,
)
from deauthsim.medium import (
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
PING, PONG = 0x10, 0x11


def build_topology(medium, stations, taps):
    """Attach ``stations`` (reply flags) and ``taps`` (callback flags); return handles and a trace.

    A replying station answers every ``PING`` frame with one ``PONG`` to
    the frame's claimed source, so drains span several ticks.
    """
    seen = []
    handles = []

    def station(i, replies):
        def receive(src, frame):
            seen.append((i, src, frame))
            if replies and frame[:1] == bytes([PING]):
                handles[i].send((bytes([PONG]) + STATION_MACS[i] + frame[1:7] + bytes(2),))

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

    A send is a sender index and its frames, some of them one object
    repeated.
    """
    macs = st.sampled_from(STATION_MACS + [BROADCAST, UNOWNED_MAC])
    whole = st.builds(
        lambda code, src, dst, tail: bytes([code]) + src + dst + bytes(2) + tail,
        st.sampled_from([PING, PONG, 0x0C]),
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
        draw(st.lists(st.sampled_from([None, False, True]), min_size=1, max_size=3)),
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
        assert (a.medium, a.endpoint_id, a.receive, a.injector) == (medium, "a", got, False)
        assert medium._mac_owner[MAC_A] is a
        assert medium._tap_ids == ("tap",)


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
    def test_delivery_pattern_matches_independent_bernoulli_stream(self):
        # One random() draw per processed frame, dropped when the draw
        # falls below the loss probability; replay the stream directly.
        loss, seed, sends = 0.3, 2024, 10_000
        medium = Medium(loss_probability=loss, seed=seed)
        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B)
        frame = bare_frame()
        for _ in range(sends):
            a.send((frame,))
        events = read_events(medium.run_until_idle())
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
        [(tick, _, _, _, frames, _)] = medium._records
        assert (tick, frames) == (1, step) and frames is step, "kept as is, not copied"


class TestCallbacksDuringADrain:
    """Where the record-per-entry log differs from storing one event at a time."""

    def test_a_tap_attached_mid_entry_observes_from_the_next_entry(self):
        medium = Medium()
        late = Collector()
        a = medium.attach("a", MAC_A)

        def attach_late(src, frame):
            if not attached:
                attached.append(medium.attach("late", None, late, injector=True))

        attached = []

        medium.attach("b", MAC_B, attach_late)
        first, second, third = distinct_frames(3)
        a.send((first, second))
        a.send((third,))
        events = read_events(medium.run_until_idle())
        assert [(kind, frame) for _, kind, _, _, frame in events] == [
            ("delivered", first),
            ("delivered", second),
            ("sniffed", third),
            ("delivered", third),
        ], "the tap misses the rest of the entry it was attached in"
        assert late.events == [("a", third)], "its callback sees what its log lines show"

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
    def test_a_broadcast_receiver_may_attach_an_endpoint(self, medium_class):
        medium = medium_class()
        got_b, got_d, got_late = Collector(), Collector(), Collector()

        def attach_late(src, frame):
            got_b(src, frame)
            medium.attach("late", MacAddress.parse("02:00:00:00:00:0e"), got_late)

        a = medium.attach("a", MAC_A)
        medium.attach("b", MAC_B, attach_late)
        medium.attach("d", MacAddress.parse("02:00:00:00:00:0d"), got_d)
        a.send((bare_frame(dst=BROADCAST),))
        medium.run_until_idle()
        assert got_b.events == got_d.events == [("a", bare_frame(dst=BROADCAST))], (
            "the owners that existed when delivery began each get the frame"
        )
        assert got_late.events == [], "the new endpoint hears the next frame on"

    @pytest.mark.parametrize(
        "medium_class", [Medium, ReferenceMedium], ids=["library", "reference"]
    )
    def test_a_repeated_frame_is_routed_again_until_its_mac_is_owned(self, medium_class):
        medium = medium_class()
        mac_c = MacAddress.parse("02:00:00:00:00:0c")
        got_c = Collector()
        frame = bare_frame(dst=mac_c)

        def attach_c(src, data):
            if not attached:
                attached.append(medium.attach("c", mac_c, got_c))

        attached = []
        a = medium.attach("a", MAC_A)
        medium.attach("tap", None, attach_c, injector=True)
        # One object three times, as a flood sends it.
        a.send((frame,) * 3)
        medium.run_until_idle()
        assert [(kind, to) for _, kind, _, to, _ in logged(medium) if kind != "sniffed"] == [
            ("delivered", "02:00:00:00:00:0c"),
            ("delivered", "c"),
            ("delivered", "c"),
        ], "the first copy was routed before the tap attached its MAC"
        assert got_c.events == [("a", frame)] * 2


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


class TestAgainstReference:
    """The record-per-entry log against the event-per-tuple drain in medium_reference.py."""

    @given(traffic=traffic_strategy())
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
