"""Closed-loop client emulation and the traffic-driver contract.

The paper drives RUBiS with 1000 clients external to the testbed, each
with a 7-second mean think time.  A :class:`ClientSession` is a closed
loop: think, walk the transition matrix one step, send the request, wait
for the response, think again.  The :class:`ClientPopulation` owns all
sessions, staggers their start (ramp-up), and fires the burst waves that
synchronize thinking clients to build tier backlog (the RAM-jump
mechanism of Figures 2 and 6).

A deployment accepts any *traffic driver* in place of the population:
an object with ``start()``, a ``stats`` :class:`SessionStats`, and
``active_session_count()`` (what the tier memory models scale with).
Both engines share one base per loop, so only how a session is stepped
differs: :class:`ClosedLoopBase` (ramp check, ``throughput_estimate``,
burst waves) under :class:`ClientPopulation` and
:class:`~repro.rubis.batched.BatchedClosedDriver`, and the
:class:`~repro.traffic.driver.OpenLoopBase` ledger under
:class:`~repro.traffic.driver.OpenLoopDriver` and
:class:`~repro.rubis.batched.BatchedOpenDriver`.  Drivers record into
:class:`SessionStats` one request at a time (classic) or a cohort at
once (batched), always through its methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.apps.requests import Request
from repro.errors import ConfigurationError
from repro.rubis.transitions import TransitionMatrix
from repro.rubis.workload import SessionType, WorkloadMix
from repro.sim.engine import Simulator
from repro.sim.events import Event

#: ``send_fn(session, interaction_name, on_response)`` — implemented by
#: the deployment; delivers the response by calling ``on_response``.
SendFn = Callable[["ClientSession", str, Callable[[Request], None]], None]


@dataclass
class SessionStats:
    """Aggregate counters across sessions."""

    #: Cap on the retained response-time sample (reservoir for SLA work).
    MAX_SAMPLES = 200_000

    requests_sent: int = 0
    responses_received: int = 0
    total_response_time_s: float = 0.0
    per_interaction: Dict[str, int] = field(default_factory=dict)
    #: Individual response times (capped at MAX_SAMPLES), used by the
    #: SLA evaluation workflow the paper motivates.
    response_times_s: List[float] = field(default_factory=list)
    #: Live subscribers (see :meth:`add_window_sink`): unlike the
    #: capped reservoir above, sinks receive *every* response time, so
    #: windowed consumers (the elastic controller's signal tap) never
    #: go blind on long runs.
    _window_sinks: List[list] = field(default_factory=list, repr=False)

    def add_window_sink(self, sink: list) -> None:
        """Subscribe a list to receive every future response time.

        The caller owns draining it (``clear()`` — the registered
        reference must stay alive).  Appending to a plain list draws
        no randomness and schedules nothing, so subscribing never
        perturbs a run.
        """
        self._window_sinks.append(sink)

    def record_request(self, interaction: str) -> None:
        self.requests_sent += 1
        self.per_interaction[interaction] = (
            self.per_interaction.get(interaction, 0) + 1
        )

    def record_response(self, request: Request) -> None:
        self.responses_received += 1
        response_time = request.response_time
        if response_time is not None:
            self.total_response_time_s += response_time
            times = self.response_times_s
            if len(times) < self.MAX_SAMPLES:
                times.append(response_time)
            if self._window_sinks:
                for sink in self._window_sinks:
                    sink.append(response_time)

    def record_requests(self, names, indices: np.ndarray) -> None:
        """Count a cohort of sends at once (``indices`` into ``names``)."""
        self.requests_sent += indices.size
        counts = np.bincount(indices, minlength=len(names))
        per = self.per_interaction
        for i in np.nonzero(counts)[0]:
            name = names[i]
            per[name] = per.get(name, 0) + int(counts[i])

    def record_responses(self, times: np.ndarray) -> None:
        """Record a cohort of response times at once (bulk
        :meth:`record_response`)."""
        self.responses_received += times.size
        self.total_response_time_s += float(times.sum())
        reservoir = self.response_times_s
        room = self.MAX_SAMPLES - len(reservoir)
        if room > 0:
            reservoir.extend(times[:room].tolist())
        if self._window_sinks:
            values = times.tolist()
            for sink in self._window_sinks:
                sink.extend(values)

    @property
    def mean_response_time_s(self) -> float:
        if self.responses_received == 0:
            return 0.0
        return self.total_response_time_s / self.responses_received


class ClientSession:
    """One emulated browser in a closed loop."""

    __slots__ = ("sim", "session_id", "session_type", "matrix",
                 "think_time_s", "rng", "send_fn", "stats", "state",
                 "_think_event", "requests_sent")

    def __init__(
        self,
        sim: Simulator,
        session_id: int,
        session_type: SessionType,
        matrix: TransitionMatrix,
        think_time_s: float,
        rng: np.random.Generator,
        send_fn: SendFn,
        stats: SessionStats,
    ) -> None:
        if think_time_s <= 0:
            raise ConfigurationError("think_time_s must be positive")
        self.sim = sim
        self.session_id = session_id
        self.session_type = session_type
        self.matrix = matrix
        self.think_time_s = float(think_time_s)
        self.rng = rng
        self.send_fn = send_fn
        self.stats = stats
        self.state = matrix.initial_state
        self._think_event: Optional[Event] = None
        self.requests_sent = 0

    @property
    def thinking(self) -> bool:
        """True while the session waits out a think time."""
        return self._think_event is not None

    def start(self, delay: float = 0.0) -> None:
        """Begin the loop: first request after ``delay`` seconds."""
        self._think_event = self.sim.schedule(delay, self._send_next)

    def trigger_now(self) -> None:
        """Burst hook: cut the current think time short."""
        if self._think_event is None:
            return
        self.sim.cancel(self._think_event)
        self._think_event = self.sim.schedule(0.0, self._send_next)

    def _send_next(self) -> None:
        self._think_event = None
        self.state = self.matrix.next_state(self.rng, self.state)
        self.requests_sent += 1
        self.stats.record_request(self.state)
        self.send_fn(self, self.state, self._on_response)

    def _on_response(self, request: Request) -> None:
        sim = self.sim
        request.completed_at = sim.now
        self.stats.record_response(request)
        think = float(self.rng.exponential(self.think_time_s))
        self._think_event = sim.schedule(think, self._send_next)


class ClosedLoopBase:
    """What every closed-loop driver shares, whatever its engine.

    A fixed population of ``mix.clients`` sessions, all always active,
    started over a ramp and synchronized by per-session-type burst
    waves.  Subclasses draw from ``self.rng`` and implement
    ``_fire_burst(session_type, fraction)``.
    """

    rng: np.random.Generator

    def __init__(
        self, sim: Simulator, mix: WorkloadMix, ramp_s: float
    ) -> None:
        if ramp_s < 0:
            raise ConfigurationError("ramp_s must be non-negative")
        self.sim = sim
        self.mix = mix
        self.stats = SessionStats()
        self._ramp_s = float(ramp_s)
        self.burst_times: Dict[SessionType, tuple] = {}

    def active_session_count(self) -> int:
        """Driver interface: closed-loop sessions are all always active."""
        return self.mix.clients

    @property
    def throughput_estimate(self) -> float:
        """Long-run requests/s implied by the closed-loop population."""
        return self.mix.clients / self.mix.think_time_s

    def _arm_bursts(self) -> None:
        """Draw each session type's burst times and schedule the waves."""
        for session_type in SessionType:
            schedule = self.mix.burst_schedule(session_type)
            times = schedule.sample_times(self.rng)
            self.burst_times[session_type] = times
            for burst_time in times:
                self.sim.schedule_at(
                    burst_time,
                    self._fire_burst,
                    session_type,
                    schedule.fraction,
                )


class ClientPopulation(ClosedLoopBase):
    """All emulated clients for one experiment run (classic engine)."""

    def __init__(
        self,
        sim: Simulator,
        mix: WorkloadMix,
        send_fn: SendFn,
        rng: np.random.Generator,
        matrices: Dict[SessionType, TransitionMatrix],
        ramp_s: float = 10.0,
    ) -> None:
        super().__init__(sim, mix, ramp_s)
        self.rng = rng
        self.sessions: List[ClientSession] = []
        for session_id in range(mix.clients):
            session_type = mix.session_type(rng)
            self.sessions.append(
                ClientSession(
                    sim,
                    session_id,
                    session_type,
                    matrices[session_type],
                    mix.think_time_s,
                    rng,
                    send_fn,
                    self.stats,
                )
            )

    def start(self) -> None:
        """Stagger session starts over the ramp and arm the burst waves."""
        for session in self.sessions:
            delay = float(self.rng.uniform(0.0, max(self._ramp_s, 1e-9)))
            session.start(delay)
        self._arm_bursts()

    def _fire_burst(self, session_type: SessionType, fraction: float) -> None:
        candidates = [
            s
            for s in self.sessions
            if s.session_type is session_type and s.thinking
        ]
        count = int(len(candidates) * fraction)
        if count <= 0:
            return
        chosen = self.rng.choice(len(candidates), size=count, replace=False)
        for index in chosen:
            candidates[int(index)].trigger_now()

    def sessions_of_type(self, session_type: SessionType) -> List[ClientSession]:
        return [s for s in self.sessions if s.session_type is session_type]
