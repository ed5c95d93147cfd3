"""MMSI-hash routing of raw ``!AIVDM`` sentences to backend runtimes.

The cluster's byte-identity contract rests on one invariant: every
sentence of a vessel reaches the *same* backend runtime, in order.  The
router decides ownership from the MMSI in the header of any AIS payload
(its first 7 armored characters, read through the layout table of
:mod:`repro.ais.messages`) without decoding the rest of the message, and
hashes it with :func:`shard_for_mmsi`.  A payload with an invalid
character past the header still routes by its MMSI; the owning
backend's scanner rejects it exactly as a single node's would.

The router reads the framing (:func:`~repro.ais.nmea.frame_aivdm`) but
does not verify the checksum: the owning backend's scanner is the one
checksum per sentence, so the runtime still trusts nothing it receives.
A sentence with a bad checksum therefore routes by the MMSI its header
carries, and that backend quarantines it as ``bad_checksum``.

The router moves batches: :meth:`SentenceRouter.route_many` frames every
single-fragment sentence of the usual shape with one regular-expression
match and reads all of their MMSI headers together
(:func:`~repro.ais.messages.decode_mmsis`); fragments, fill bits and any
other framing go through the per-sentence path, in order.
:meth:`SentenceRouter.route` is the one-item form.

Multi-fragment messages only carry the MMSI in their first fragment, so
the router remembers the group key
(:attr:`~repro.ais.nmea.AivdmSentence.group_key`) of an opened fragment
group and steers the continuation fragments to the same backend — the
backend's own fragment assembler keys groups the same way, so it sees
the complete group exactly as a single node would.  Anything unroutable
(broken framing, truncated payload, an orphan continuation) goes
deterministically to backend 0, counted, where the backend's dead-letter
machinery classifies it just like a single node's would.
"""

import re

from repro.ais.messages import decode_mmsi, decode_mmsis
from repro.ais.nmea import frame_aivdm
from repro.obs.registry import MetricsRegistry

#: Open fragment groups remembered at once; beyond this the oldest is
#: evicted (and counted) — an abandoned group must not leak memory.
PENDING_FRAGMENT_CAPACITY = 1024

#: Knuth's multiplicative constant (2^32 / phi), for MMSI mixing; spreads
#: consecutive MMSIs (fleets are often numbered in blocks) evenly.
_MIX = 2654435761
_MASK = 0xFFFFFFFF

#: A single-fragment sentence of the usual shape: ``1,1`` framing, a
#: payload without fill bits and two hex checksum digits, with no ``*``
#: and no surrounding whitespace.  :func:`~repro.ais.nmea.frame_aivdm`
#: reads such a sentence as exactly this payload and fill 0; every other
#: sentence is framed by it one at a time.
_SINGLE = re.compile(
    r"!AIVD[MO],1,1,[^,*]*,[^,*]*,([^,*]+),0\*[0-9A-Fa-f]{2}", re.ASCII
).fullmatch


def shard_for_mmsi(mmsi: int, shards: int) -> int:
    """The backend runtime owning a vessel in a gateway cluster;
    deterministic across processes."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return ((mmsi * _MIX) & _MASK) % shards


def mmsi_of_payload(payload: str, fill_bits: int) -> int | None:
    """MMSI from the header of an AIS payload, or ``None`` if unreadable."""
    try:
        return decode_mmsi(payload, fill_bits)
    except ValueError:
        return None


class SentenceRouter:
    """Stateful, fragment-aware sentence → backend-index routing."""

    def __init__(self, backends: int, registry: MetricsRegistry):
        if backends < 1:
            raise ValueError(f"backends must be >= 1: {backends}")
        self.backends = backends
        self.registry = registry
        #: Group key → backend of an open fragment group.
        self._pending: dict[tuple[str, str, int], int] = {}

    def route(self, sentence: str) -> int:
        """The backend index owning this sentence (0 when unroutable)."""
        return self.route_many([sentence])[0]

    def route_many(self, sentences: list[str]) -> list[int]:
        """:meth:`route` of each sentence, in order, with the same
        counters: single-fragment sentences are framed by one match each
        and their MMSIs read together; the rest take :meth:`_route_one`."""
        routes = [0] * len(sentences)
        singles: list[int] = []
        payloads: list[str] = []
        for index, sentence in enumerate(sentences):
            match = _SINGLE(sentence)
            if match is None:
                routes[index] = self._route_one(sentence)
            else:
                singles.append(index)
                payloads.append(match[1])
        for index, mmsi in zip(singles, decode_mmsis(payloads)):
            if mmsi is None:
                routes[index] = self._unroutable("short_payload")
            else:
                routes[index] = shard_for_mmsi(mmsi, self.backends)
        return routes

    def _route_one(self, sentence: str) -> int:
        """One sentence, framed by :func:`~repro.ais.nmea.frame_aivdm`."""
        try:
            parsed = frame_aivdm(sentence)
        except ValueError:
            return self._unroutable("unparseable")
        if parsed.fragment_count > 1 and parsed.fragment_number > 1:
            key = parsed.group_key
            if parsed.fragment_number == parsed.fragment_count:
                backend = self._pending.pop(key, None)
            else:
                backend = self._pending.get(key)
            if backend is None:
                return self._unroutable("orphan_fragment")
            return backend
        mmsi = mmsi_of_payload(parsed.payload, parsed.fill_bits)
        if mmsi is None:
            return self._unroutable("short_payload")
        backend = shard_for_mmsi(mmsi, self.backends)
        if parsed.fragment_count > 1:
            self._remember(parsed.group_key, backend)
        return backend

    def _remember(self, key: tuple[str, str, int], backend: int) -> None:
        self._pending[key] = backend
        if len(self._pending) > PENDING_FRAGMENT_CAPACITY:
            # Drop the stalest abandoned group — counted, never silent.
            oldest = next(iter(self._pending))
            del self._pending[oldest]
            self.registry.inc("gateway.route.fragment_groups_dropped")

    def _unroutable(self, reason: str) -> int:
        """Deterministic fallback: backend 0 quarantines it (counted)."""
        self.registry.inc("gateway.route.unroutable")
        self.registry.inc(f"gateway.route.unroutable.{reason}")
        return 0
