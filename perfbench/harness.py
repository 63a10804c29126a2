"""Closed-loop timed runs of one workload, and the metrics derived from them.

One run is ``ScenarioRun(cfg).execute()`` (what ``run_scenario`` does),
plus ``write_event_log`` into memory on workloads that write their log.
Runs are serial: the next starts only after the previous one finished and
its garbage was collected, so every run starts from the same heap.  A
``Pace`` samples the host's speed during each timed call (pace.py), and
rates are reported at the reference speed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from deauthsim import AttackKind
from deauthsim.scenario import ScenarioRun
from pace import Pace
from tracing import Span, Tracer
from workloads import Workload, check, write_log

REPLAY_KINDS = frozenset({AttackKind.ASSOC_REPLAY, AttackKind.DEAUTH_REPLAY})


def rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class GcClock:
    """Counts cyclic-GC collections and their pause time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_ns = 0
        self._started = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.collections += 1
            self.pause_ns += time.perf_counter_ns() - self._started

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


@dataclass
class Run:
    """What one timed run measured, and what it got wrong."""

    wall_s: float = 0.0
    norm_wall_s: float = 0.0
    tick_ns: float = 0.0
    frames: int = 0
    build_s: float = 0.0
    log_s: float = 0.0
    events_retained: int = 0
    captures_retained: int = 0
    captures_used: int = 0
    steps: int = 0
    peak_rss_mib: float = 0.0
    gc: GcClock | None = None
    spans: dict[str, Span] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def frames_per_s(self) -> float:
        """Frames per second of the timed call, at the reference host speed."""
        return self.frames / self.norm_wall_s

    @property
    def raw_frames_per_s(self) -> float:
        return self.frames / self.wall_s


def run_once(workload: Workload, *, traced: bool = False, gc_clock: bool = False) -> Run:
    """Time one run of ``workload`` and check its outcome."""
    gc.collect()
    result = Run(gc=GcClock() if gc_clock else None, steps=len(workload.config.script))
    tracer = Tracer()
    pace = Pace()
    try:
        with tracer.installed() if traced else nullcontext(), result.gc or nullcontext(), pace:
            start = time.perf_counter()
            run = ScenarioRun(workload.config)
            built = time.perf_counter()
            outcome, events = run.execute()
            log = None
            if workload.writes_log:
                log_start = time.perf_counter()
                log = write_log(events)
            end = time.perf_counter()
        result.wall_s = end - start
        result.norm_wall_s = pace.normalise(result.wall_s)
        result.tick_ns = pace.tick_ns
        if workload.writes_log:
            result.log_s = end - log_start
        elif traced:
            log_start = time.perf_counter()
            write_log(events)
            result.log_s = time.perf_counter() - log_start
        result.build_s = built - start
        result.frames = outcome.frames_sent
        result.events_retained = len(run.medium.events)
        result.captures_retained = sum(len(adv.captures) for adv in run.adversaries)
        result.captures_used = sum(adv.cfg.kind in REPLAY_KINDS for adv in run.adversaries)
        result.spans = tracer.spans
        result.problems = check(workload, outcome, events, log)
    except Exception:
        result.problems = [traceback.format_exc()]
    result.peak_rss_mib = rss_mib()
    return result


def measure(
    workload: Workload, seconds: float, trace: bool, after_round=None
) -> tuple[list[Run], list[Run]]:
    """Run for about ``seconds``: untraced runs, alternating with traced ones if ``trace``.

    ``after_round``, if given, is called after each round.  At least one run of each
    kind; no round starts once the last round's duration would carry it past
    the budget.
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        untraced.append(run_once(workload, gc_clock=trace))
        if trace:
            traced.append(run_once(workload, traced=True))
        if after_round is not None:
            after_round()
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return untraced, traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def frames_per_s(runs: list[Run]) -> float:
    """Median throughput of the runs, at the reference host speed."""
    return statistics.median(run.frames_per_s for run in runs)


def _traced_metrics(run: Run) -> dict[str, tuple[float, str]]:
    def span(name: str) -> Span:
        return run.spans.get(name, Span())

    decode, encode = span("frames.decode"), span("frames.encode")
    digest, draw = span("tokens.hash"), span("tokens.generate")
    receive, verify = span("stations.receive"), span("stations.verify")
    handshake, drain = span("stations.handshake"), span("medium.drain")
    attack, execute = span("adversary.frames"), span("scenario.execute")
    return {
        "frames.decode.calls": (decode.calls, "count"),
        "frames.decode.ns_per_call": (_ratio(decode.total_ns, decode.calls), "ns"),
        "frames.decode.errors": (decode.errors, "count"),
        "frames.encode.calls": (encode.calls, "count"),
        "frames.encode.ns_per_call": (_ratio(encode.total_ns, encode.calls), "ns"),
        "tokens.hash.calls": (digest.calls, "count"),
        "tokens.hash.ns_per_call": (_ratio(digest.total_ns, digest.calls), "ns"),
        "tokens.generate.calls": (draw.calls, "count"),
        "tokens.generate.ns_per_call": (_ratio(draw.total_ns, draw.calls), "ns"),
        "stations.receive.calls": (receive.calls, "count"),
        "stations.receive.self_ns_per_call": (_ratio(receive.self_ns, receive.calls), "ns"),
        "stations.verify.calls": (verify.calls, "count"),
        "stations.verify.accepted": (verify.items, "count"),
        "stations.handshake.calls": (handshake.calls, "count"),
        "stations.handshake.ns_per_call": (_ratio(handshake.total_ns, handshake.calls), "ns"),
        "medium.drain.calls": (drain.calls, "count"),
        "medium.drain.self_ns_per_frame": (_ratio(drain.self_ns, run.frames), "ns"),
        "medium.drain.copied_events": (drain.items, "count"),
        "medium.events_retained": (run.events_retained, "count"),
        "medium.events_per_frame": (_ratio(run.events_retained, run.frames), "ratio"),
        "medium.log_write.ns_per_event": (_ratio(run.log_s * 1e9, run.events_retained), "ns"),
        "adversary.frames.ns_per_frame": (_ratio(attack.total_ns, attack.items), "ns"),
        "adversary.captures_retained": (run.captures_retained, "count"),
        # Nothing kept means nothing wasted.
        "adversary.capture_use_ratio": (
            _ratio(run.captures_used, run.captures_retained) if run.captures_retained else 1.0,
            "ratio",
        ),
        "scenario.build_s": (run.build_s, "s"),
        "scenario.execute.self_s": (execute.self_ns / 1e9, "s"),
        "scenario.steps": (run.steps, "count"),
    }


def layer_metrics(untraced: list[Run], traced: list[Run]) -> dict[str, tuple[float, str]]:
    """Per-layer medians: span figures from traced runs, GC from untraced ones."""
    per_run = [_traced_metrics(run) for run in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_run), unit)
        for name, (_, unit) in per_run[0].items()
    }
    metrics["gc.collections"] = (statistics.median(r.gc.collections for r in untraced), "count")
    metrics["gc.pause_s"] = (statistics.median(r.gc.pause_ns / 1e9 for r in untraced), "s")
    metrics["gc.pause_share"] = (
        statistics.median(r.gc.pause_ns / 1e9 / r.wall_s for r in untraced),
        "ratio",
    )
    metrics["trace.overhead"] = (frames_per_s(untraced) / frames_per_s(traced), "ratio")
    return metrics
