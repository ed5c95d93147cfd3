"""Self-healing for the gateway tier: heartbeats, detection, failover.

Two pieces turn PR 8's manual ``crash_runtime``/``restart_runtime``
chaos hooks into a closed loop (docs/GATEWAY.md, docs/RESILIENCE.md):

* :class:`LinkFailureDetector` — one per
  :class:`~repro.gateway.node.RuntimeLink`, a deterministic timeout-style
  (simplified phi-accrual) detector fed by every delivery attempt.  A
  link is ``up`` while deliveries succeed, ``suspect`` from the first
  failed delivery, and ``down`` once failures have persisted unbroken
  for ``down_after_seconds``.  The clock is injectable, so tests drive
  the state machine without sleeping.
* :class:`ClusterSupervisor` — the control loop over a
  :class:`~repro.gateway.cluster.GatewayCluster`.  Each tick it sends an
  in-band heartbeat (:func:`repro.service.protocol.format_heartbeat`,
  riding the same control-line channel as watermarks) down every link —
  guaranteeing delivery attempts, and therefore detector signal, even on
  an idle cluster — then checks every runtime's links.  A runtime whose
  link is ``down`` on any gateway is restarted through the cluster's
  chaos hooks with seeded, capped backoff between successive restarts of
  the same runtime; a restarted runtime binds a fresh ephemeral port and
  every link re-dials it, which is also how the cluster escapes a
  network partition pinned to the old endpoint
  (:mod:`repro.transport.chaosnet`).  Every heal is recorded as an
  incident with measured detection and failover latency (the MTTR
  evidence ``benchmarks/drills.py partition-drill`` prints).

Heartbeats never touch watermark clocks, the journal, or the scanner —
the runtime counts and discards them — so supervision leaves the merged
feed's byte-identity contract untouched.
"""

import asyncio
import contextlib
import time

from repro import obs
from repro.resilience.retry import BackoffPolicy
from repro.service.protocol import format_heartbeat

#: Link states, healthiest first.
LINK_STATES = ("up", "suspect", "down")

#: Unbroken failure duration after which a link is declared ``down``.
DEFAULT_DOWN_AFTER_SECONDS = 2.0

#: Backoff between successive restarts of the *same* runtime — a runtime
#: that keeps dying is retried slower, never hot-looped (deterministic:
#: a pure function of the restart count, like every policy in the tree).
RESTART_BACKOFF = BackoffPolicy(
    initial_seconds=0.05, multiplier=2.0, max_seconds=1.0, max_attempts=6
)


class LinkFailureDetector:
    """Deterministic ``up``/``suspect``/``down`` classifier for one link.

    Fed by the link's delivery loop: :meth:`record_failure` on every
    failed connect/send, :meth:`record_success` on every delivered line.
    One success heals the detector completely — the suspicion window
    measures *unbroken* failure, the timeout analogue of phi-accrual's
    decaying suspicion.
    """

    def __init__(
        self,
        down_after_seconds: float = DEFAULT_DOWN_AFTER_SECONDS,
        clock=time.monotonic,
    ):
        if down_after_seconds <= 0:
            raise ValueError(
                f"down_after_seconds must be positive: {down_after_seconds}"
            )
        self.down_after_seconds = down_after_seconds
        self.clock = clock
        #: Clock reading of the first failure of the current streak.
        self.first_failure_at: float | None = None
        #: Consecutive failures of the current streak.
        self.consecutive_failures = 0

    def record_success(self) -> None:
        self.first_failure_at = None
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.first_failure_at is None:
            self.first_failure_at = self.clock()

    def reset(self) -> None:
        """Forget the current streak (after a supervised restart, the old
        endpoint's failures say nothing about the new incarnation)."""
        self.record_success()

    def state(self) -> str:
        if self.first_failure_at is None:
            return "up"
        elapsed = self.clock() - self.first_failure_at
        return "down" if elapsed >= self.down_after_seconds else "suspect"

    def snapshot(self) -> dict:
        return {
            "state": self.state(),
            "consecutive_failures": self.consecutive_failures,
            "down_after_seconds": self.down_after_seconds,
        }


class ClusterSupervisor:
    """Closed-loop self-healing over one :class:`GatewayCluster`.

    ``interval_seconds`` paces both the heartbeat fan-out and the health
    check; :meth:`run` repeats the two.  :meth:`tick` and
    :meth:`check_once` are public so unit tests can drive one
    deterministic step at a time against a stub cluster.
    """

    def __init__(
        self,
        cluster,
        interval_seconds: float = 0.05,
        policy: BackoffPolicy = RESTART_BACKOFF,
        clock=time.monotonic,
    ):
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive: {interval_seconds}"
            )
        self.cluster = cluster
        self.interval_seconds = interval_seconds
        self.policy = policy
        self.clock = clock
        self.heartbeats_sent = 0
        #: One entry per completed heal, in order — the MTTR evidence.
        self.incidents: list[dict] = []
        self._seq = 0
        self._healing: set[int] = set()
        self._restarts: dict[int, int] = {}
        self._task: asyncio.Task | None = None
        self._stopped = False

    # ------------------------------------------------------------------
    # one supervision step (deterministically drivable)
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Send one heartbeat from every gateway down every link."""
        self._seq += 1
        for node in self.cluster.nodes:
            line = format_heartbeat(node.name, self._seq)
            for link in node.links:
                link.send(line, control=True)
                self.heartbeats_sent += 1
        obs.count(
            "gateway.supervisor.heartbeats",
            len(self.cluster.nodes) * len(self.cluster.supervisors),
        )

    def link_states(self, index: int) -> list[str]:
        """Every gateway's detector state for runtime ``index``'s link."""
        return [
            node.links[index].detector.state() for node in self.cluster.nodes
        ]

    async def check_once(self) -> list[int]:
        """Heal every runtime some gateway sees as ``down``; returns the
        indices healed this pass."""
        healed = []
        for index in range(len(self.cluster.supervisors)):
            if index in self._healing:
                continue
            if "down" in self.link_states(index):
                await self._heal(index)
                healed.append(index)
        return healed

    async def _heal(self, index: int) -> None:
        self._healing.add(index)
        try:
            detected_at = self.clock()
            first_failure = min(
                (
                    node.links[index].detector.first_failure_at
                    for node in self.cluster.nodes
                    if node.links[index].detector.first_failure_at is not None
                ),
                default=detected_at,
            )
            attempt = self._restarts.get(index, 0)
            if attempt:
                # This runtime died before: back off before restarting
                # again rather than hot-looping a crash-looping shard.
                await asyncio.sleep(
                    self.policy.delay_for(
                        min(attempt, self.policy.max_attempts)
                    )
                )
            self._restarts[index] = attempt + 1
            if not self.cluster.is_crashed(index):
                # A live-but-unreachable runtime (partition, wedged
                # socket): demote it to a clean crash first so the
                # restart path is the one journal-replay already proves.
                await self.cluster.crash_runtime(index)
            await self.cluster.restart_runtime(index)
            for node in self.cluster.nodes:
                node.links[index].detector.reset()
            healed_at = self.clock()
            incident = {
                "runtime": index,
                "detection_seconds": detected_at - first_failure,
                "failover_seconds": healed_at - detected_at,
                "restarts": self._restarts[index],
            }
            self.incidents.append(incident)
            obs.count("gateway.supervisor.restarts")
            obs.observe(
                "gateway.supervisor.detection_seconds",
                incident["detection_seconds"],
            )
            obs.observe(
                "gateway.supervisor.failover_seconds",
                incident["failover_seconds"],
            )
        finally:
            self._healing.discard(index)

    # ------------------------------------------------------------------
    # background loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self.run())

    async def run(self) -> None:
        while not self._stopped:
            self.tick()
            await self.check_once()
            await asyncio.sleep(self.interval_seconds)

    async def stop(self) -> None:
        self._stopped = True
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    def snapshot(self) -> dict:
        """Supervisor vitals for the cluster ``/healthz``."""
        return {
            "heartbeats_sent": self.heartbeats_sent,
            "restarts": dict(self._restarts),
            "healing": sorted(self._healing),
            "incidents": list(self.incidents),
        }
