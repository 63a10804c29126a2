"""Shared test helpers: station builders with no medium, the log reader,
and a fresh interpreter."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import deauthsim
from deauthsim.frames import FrameSubtype, MacAddress, ManagementFrame, encode_frame
from deauthsim.medium import write_event_log
from deauthsim.stations import AccessPoint, ClientStation

AP_MAC = MacAddress.parse("02:00:00:00:00:01")
CLIENT_MAC = MacAddress.parse("02:00:00:00:00:02")
OTHER_MAC = MacAddress.parse("02:00:00:00:00:99")


def make_pair(protected: bool = True, seed: int = 7):
    """A client and AP with independent seeded randomness."""
    client = ClientStation(CLIENT_MAC, protected=protected, rng=Random(seed))
    ap = AccessPoint(AP_MAC, protected=protected, rng=Random(seed + 1))
    return client, ap


def auth_success(client: ClientStation, ap: AccessPoint) -> None:
    """Deliver the opaque authentication-succeeded event to both sides."""
    ap.receive_frame(
        encode_frame(
            ManagementFrame(FrameSubtype.AUTH_REQUEST, client.mac, ap.mac, 0)
        )
    )
    client.receive_frame(
        encode_frame(
            ManagementFrame(FrameSubtype.AUTH_RESPONSE, ap.mac, client.mac, 0)
        )
    )


def complete_handshake(client: ClientStation, ap: AccessPoint):
    """Run the full join; returns (request, response) frames."""
    auth_success(client, ap)
    request, _pending = client.begin_association(ap.mac)
    response, _verdict = ap.handle_assoc_request(request)
    client.handle_assoc_response(response)
    return request, response


def read_events(view):
    """A medium log view's events, read back from the JSON Lines it writes.

    Each event is the tuple ``(tick, kind, from, to, frame)``, the frame
    as ``bytes``, in log order.
    """
    stream = io.StringIO()
    write_event_log(view, stream)
    stream.seek(0)
    return [
        (doc["tick"], doc["kind"], doc["from"], doc["to"], bytes.fromhex(doc["frame"]))
        for doc in map(json.loads, stream)
    ]


def run_fresh(code: str, stdin: str = "") -> str:
    """Run ``code`` in a fresh interpreter that imports this deauthsim; return its stdout."""
    src = str(Path(deauthsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout
