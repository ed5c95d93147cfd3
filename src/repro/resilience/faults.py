"""Deterministic fault injection at named sites.

Chaos testing is only worth anything when a failing run can be replayed
exactly: a :class:`FaultPlan` is an explicit, serializable list of
"fire fault *kind* at the *n*-th hit of *site*" rules, either written by
hand, parsed from a compact spec string (the ``--chaos`` CLI flag), or
generated deterministically from a seed.  The production code marks its
failure-prone spots with :func:`fault_point`, which is a single global
``None`` check when no injector is installed — the hooks cost nothing in
normal operation.

Spec string grammar (``--chaos``)::

    site:kind@hit[:arg][,site:kind@hit[:arg]...]

``hit`` is 1-based ("the 3rd time this site is reached"); ``arg`` is the
delay in seconds for ``delay`` faults and the heal delay for
``chaosnet.partition``.  Example: ``mod.write:error@3,service.slide:delay@2:0.5``.
The named sites and the kinds each one interprets are :data:`SITES`.
"""

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import obs

#: ``error`` and ``delay`` are fired by the injector itself (it raises,
#: it sleeps); every other kind is returned to the fault point's
#: caller, which interprets it (``drop``, ``crash``, ``corrupt``).
KNOWN_KINDS = ("error", "delay", "drop", "crash", "corrupt")

#: The one declaration of the fault sites: every ``fault_point("…")``
#: call names one key with a string literal, every key is named by a
#: call (tests/resilience/test_faults.py walks the tree for both), and
#: ``--chaos`` rejects a site or a kind not listed here.
SITES: dict[str, tuple[str, ...]] = {
    # A sentence a gateway forwards to its runtime (drop: never queued).
    "gateway.link": ("drop",),
    # A received ingest line (drop: severs the connection mid-stream).
    "service.ingest.socket": ("drop",),
    # A pipeline slide (crash: the in-process stand-in for ``kill -9``).
    "service.slide": ("delay", "error", "crash"),
    # A MOD staging write.
    "mod.write": ("error",),
    # A trip reconstruction pass.
    "mod.reconstruct": ("error",),
    # A WAL record append (corrupt: garbles the record's tail).
    "wal.append": ("corrupt",),
    # A chaos-wrapped dial (drop: the dial fails with TransportError).
    "chaosnet.connect": ("drop",),
    # A chaos-wrapped outbound message (drop: fails, session intact).
    "chaosnet.send": ("drop",),
    # A chaos-wrapped inbound read (drop: fails, session intact).
    "chaosnet.receive": ("drop",),
    # A chaos-wrapped dial severs its endpoint (arg: seconds until it
    # heals by itself, 0 = until healed by hand).
    "chaosnet.partition": ("drop",),
}

#: Kinds safe to draw blindly into a seeded plan: they perturb timing or
#: sever connections and never violate the durability contract a smoke
#: run asserts afterwards (``corrupt``, ``crash`` are for targeted
#: drills, not blind sampling).
SEEDABLE_KINDS = ("drop", "delay", "error")

#: Sites excluded from blind seeded plans even though their kinds are
#: seedable.  ``chaosnet.partition`` without an auto-heal ``arg`` severs
#: an endpoint *permanently* — fine for a staged drill that heals it,
#: fatal for a smoke run drawing faults blindly.  A subset of
#: :data:`SITES` (tests/transport/test_chaosnet.py).
UNSEEDED_SITES = frozenset({"chaosnet.partition"})


def seedable_sites() -> dict[str, tuple[str, ...]]:
    """The :data:`SITES` subset usable by ``FaultPlan.seeded``.

    Sites keep only their :data:`SEEDABLE_KINDS`; sites with none left
    (``wal.append``) and the explicitly excluded
    :data:`UNSEEDED_SITES` are omitted entirely.
    """
    filtered = {
        site: tuple(kind for kind in kinds if kind in SEEDABLE_KINDS)
        for site, kinds in SITES.items()
        if site not in UNSEEDED_SITES
    }
    return {site: kinds for site, kinds in filtered.items() if kinds}


class InjectedFault(RuntimeError):
    """An error deliberately raised by the fault injector."""

    def __init__(self, site: str, hit: int):
        super().__init__(f"injected fault at {site} (hit {hit})")
        self.site = site
        self.hit = hit


class SimulatedCrash(RuntimeError):
    """An in-process stand-in for ``kill -9``: the component owning the
    fault point abandons everything mid-flight — no drain, no flush, no
    finalize — exactly like a process death, but testable in pytest."""

    def __init__(self, site: str, hit: int):
        super().__init__(f"simulated crash at {site} (hit {hit})")
        self.site = site
        self.hit = hit


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: at the ``at``-th hit of ``site``, fire ``kind``."""

    site: str
    kind: str
    at: int = 1
    #: Kind-specific argument: seconds for ``delay``, heal seconds for
    #: ``chaosnet.partition``.
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {KNOWN_KINDS}"
            )
        if self.at < 1:
            raise ValueError(f"fault hit index is 1-based, got {self.at}")

    def to_spec(self) -> str:
        """The compact ``site:kind@hit[:arg]`` form of this fault."""
        base = f"{self.site}:{self.kind}@{self.at}"
        return f"{base}:{self.arg:g}" if self.arg else base


@dataclass
class FaultPlan:
    """A replayable set of planned faults."""

    specs: list = field(default_factory=list)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the compact ``--chaos`` grammar (see module docstring)."""
        specs = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                site, _, rest = chunk.partition(":")
                kind_at, _, arg = rest.partition("@")
                if not _:
                    raise ValueError("missing '@hit'")
                hit, _, extra = arg.partition(":")
                specs.append(FaultSpec(
                    site=site,
                    kind=kind_at,
                    at=int(hit),
                    arg=float(extra) if extra else 0.0,
                ))
            except (ValueError, TypeError) as exc:
                raise ValueError(
                    f"bad fault spec {chunk!r} "
                    f"(want site:kind@hit[:arg]): {exc}"
                ) from exc
        return cls(specs)

    @classmethod
    def seeded(
        cls,
        seed: int,
        sites: dict,
        count: int = 3,
        max_hit: int = 8,
    ) -> "FaultPlan":
        """A deterministic plan drawn from ``seed``.

        ``sites`` maps a site name to the tuple of kinds allowed there;
        ``count`` faults are drawn with hit indices in ``[1, max_hit]``.
        The same seed always yields the same plan, so a chaos run is
        replayable by seed alone.
        """
        rng = random.Random(seed)
        names = sorted(sites)
        specs = []
        for _ in range(count):
            site = rng.choice(names)
            kind = rng.choice(tuple(sites[site]))
            specs.append(FaultSpec(site=site, kind=kind,
                                   at=rng.randint(1, max_hit)))
        return cls(specs)

    def to_spec(self) -> str:
        """The whole plan in the ``--chaos`` grammar, for replay logs."""
        return ",".join(spec.to_spec() for spec in self.specs)

    def __len__(self) -> int:
        return len(self.specs)


class FaultInjector:
    """Counts site hits and fires the plan's faults deterministically.

    Thread-safe: fault points are reached from the event loop, the
    pipeline executor thread, and (in principle) worker processes' parent
    threads concurrently.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._armed: dict[str, dict[int, FaultSpec]] = {}
        for spec in plan.specs:
            self._armed.setdefault(spec.site, {})[spec.at] = spec
        self.hits: dict[str, int] = {}
        #: Every fault actually fired, in order — the replay proof.
        self.fired: list[FaultSpec] = []
        self._lock = threading.Lock()

    def check(self, site: str) -> FaultSpec | None:
        """Advance ``site``'s hit counter; fire any fault armed for it.

        ``error`` faults raise :class:`InjectedFault`, ``delay`` faults
        sleep; every other kind is returned for the caller to interpret.
        """
        with self._lock:
            hit = self.hits.get(site, 0) + 1
            self.hits[site] = hit
            spec = self._armed.get(site, {}).get(hit)
            if spec is None:
                return None
            self.fired.append(spec)
        obs.count("resilience.faults.fired")
        obs.count(f"resilience.faults.{site}.fired")
        if spec.kind == "error":
            raise InjectedFault(site, hit)
        if spec.kind == "delay":
            time.sleep(spec.arg)
            return None
        return spec

    def snapshot(self) -> dict:
        """Hit counters and fired faults, for assertions and health."""
        with self._lock:
            return {
                "plan": self.plan.to_spec(),
                "hits": dict(self.hits),
                "fired": [spec.to_spec() for spec in self.fired],
            }


#: The process-global injector; ``None`` means fault points are no-ops.
_INJECTOR: FaultInjector | None = None


def install(plan: FaultPlan | FaultInjector) -> FaultInjector:
    """Install a plan (or prepared injector) as the global injector."""
    global _INJECTOR
    if isinstance(plan, FaultPlan):
        plan = FaultInjector(plan)
    _INJECTOR = plan
    return plan


def uninstall() -> None:
    """Remove the global injector; fault points become no-ops again."""
    global _INJECTOR
    _INJECTOR = None


def get_injector() -> FaultInjector | None:
    """The currently installed injector, if any."""
    return _INJECTOR


def fault_point(site: str) -> FaultSpec | None:
    """Production-side hook: one ``None`` check when chaos is off."""
    if _INJECTOR is None:
        return None
    return _INJECTOR.check(site)


@contextmanager
def inject(plan: FaultPlan):
    """Scope an injector to a ``with`` block (tests use this)."""
    injector = install(plan)
    try:
        yield injector
    finally:
        uninstall()
