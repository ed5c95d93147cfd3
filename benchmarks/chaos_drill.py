"""The out-of-process chaos drill: ``kill -9`` the live service mid-stream.

The in-process crash-recovery tests (``tests/service/test_recovery.py``)
prove byte-identical replay with an injected :class:`SimulatedCrash`;
this drill proves the same durability story against a *real* process
death, end to end over the CLI surface:

1. start ``python -m repro --serve --wal-dir ...`` on ephemeral ports;
2. stream the first part of an encoded AIS sentence stream at it and
   wait (via ``/healthz``) until slides have been processed;
3. ``SIGKILL`` the server — no drain, no journal truncation;
4. restart on the same WAL directory and require the
   ``recovered N journaled sentences`` announcement with ``N > 0``;
5. stream the rest, ``SIGINT``, and require a clean ``service drained``
   exit 0 that discharges the journal.

Run directly (``python benchmarks/chaos_drill.py``) or from the chaos
CI job.  Exit code 0 means the drill passed.  See docs/RESILIENCE.md.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src"

VESSELS = 15
HOURS = 4
SEED = 7

UP_LINE = re.compile(
    r"live service up: ingest=(\d+) feed=(\d+) http=(\d+)"
)
RECOVERED_LINE = re.compile(r"recovered (\d+) journaled sentences")


def build_sentences() -> list[str]:
    """Encode the same fleet the server recognizes into raw AIVDM lines."""
    sys.path.insert(0, str(SRC))
    from harness import encode_sentences

    from repro.simulator import FleetSimulator, build_aegean_world

    simulator = FleetSimulator(
        build_aegean_world(), seed=SEED, duration_seconds=HOURS * 3600
    )
    fleet = simulator.build_mixed_fleet(VESSELS)
    return [
        f"{receive_time}\t{sentence}\n"
        for receive_time, sentence in encode_sentences(simulator.positions(fleet))
    ]


def start_server(wal_dir: Path, log_path: Path) -> tuple:
    """Launch ``--serve`` and return (process, ports, recovered_count)."""
    log = open(log_path, "ab")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "--serve", "--port", "0",
         "--vessels", str(VESSELS), "--hours", str(HOURS),
         "--seed", str(SEED), "--wal-dir", str(wal_dir)],
        stdout=log, stderr=subprocess.STDOUT, env=env, cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        text = log_path.read_text(errors="replace")
        match = UP_LINE.search(text)
        if match:
            recovered = RECOVERED_LINE.search(text)
            ports = {
                "ingest": int(match.group(1)),
                "feed": int(match.group(2)),
                "http": int(match.group(3)),
            }
            return process, ports, int(recovered.group(1)) if recovered else 0
        if process.poll() is not None:
            raise RuntimeError(f"server died at startup:\n{text}")
        time.sleep(0.1)
    process.kill()
    raise RuntimeError("server never announced its ports")


def send(port: int, lines: list[str]) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall("".join(lines).encode("ascii"))


def healthz(port: int) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/healthz", timeout=5
    ) as response:
        return json.loads(response.read())


def wait_for(predicate, timeout: float = 60.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.2)
    raise RuntimeError(f"timed out waiting for {what}")


def main() -> int:
    sentences = build_sentences()
    split = len(sentences) * 2 // 3
    print(f"drill stream: {len(sentences)} sentences, killing after {split}")

    with tempfile.TemporaryDirectory(prefix="chaos-drill-") as tmp:
        wal_dir = Path(tmp) / "wal"
        log1 = Path(tmp) / "run1.log"
        log2 = Path(tmp) / "run2.log"

        # Run 1: feed two thirds of the stream, then kill -9 mid-flight.
        process, ports, recovered = start_server(wal_dir, log1)
        assert recovered == 0, "a fresh WAL dir must recover nothing"
        send(ports["ingest"], sentences[:split])
        health = wait_for(
            lambda: (h := healthz(ports["http"]))["queue_depth"] == 0
            and h["slides"] > 0 and h,
            what="run 1 to consume the stream",
        )
        print(f"run 1: {health['slides']} slides, "
              f"{health['ingested']} ingested — SIGKILL")
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        segments = list(wal_dir.glob("*.wal"))
        assert segments, "the killed run must leave journal segments behind"

        # Run 2: same WAL dir — must announce recovery, then drain clean.
        process, ports, recovered = start_server(wal_dir, log2)
        print(f"run 2: recovered {recovered} journaled sentences")
        assert recovered > 0, "restart must replay the journal"
        assert recovered <= split, "cannot recover more than was sent"
        send(ports["ingest"], sentences[split:])
        wait_for(
            lambda: healthz(ports["http"])["queue_depth"] == 0,
            what="run 2 to consume the tail",
        )
        process.send_signal(signal.SIGINT)
        returncode = process.wait(timeout=120)
        log_text = log2.read_text(errors="replace")
        assert returncode == 0, f"unclean drain (exit {returncode}):\n{log_text}"
        assert "service drained" in log_text, log_text
        leftovers = list(wal_dir.glob("*.wal"))
        assert not leftovers, f"clean drain must discharge the journal: {leftovers}"

    print("chaos drill passed: kill -9 -> recovery -> clean drain")
    return 0


if __name__ == "__main__":
    sys.exit(main())
