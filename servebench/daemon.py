"""Launch, drive and stop one ``repro serve`` process.

The benchmark talks to the daemon the way any user would: over HTTP, one
request in flight, a fresh connection per request (the server speaks
HTTP/1.0).  Request bodies are encoded before the timed phase, so a
measured latency is the round trip from sending the request to reading
the last byte of the response.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
LAUNCHER = BENCH_DIR / "launcher.py"
HEALTH_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


class DaemonError(RuntimeError):
    """The daemon could not be started or answered nonsense."""


class Daemon:
    """One running ``repro serve`` (optionally under the tracing launcher)."""

    def __init__(
        self,
        src: Path,
        database: Path,
        serve_args: Sequence[str],
        log_path: Path,
        spans_path: Optional[Path] = None,
    ) -> None:
        if spans_path is None:
            entry = [sys.executable, "-m", "repro.cli"]
        else:
            entry = [sys.executable, str(LAUNCHER), str(spans_path)]
        command = entry + ["serve", str(database), "--port", "0", *serve_args]
        env = dict(os.environ, PYTHONPATH=str(src))
        self.database = database
        self._log_path = log_path
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], HEALTH_TIMEOUT)
            banner = self.process.stdout.readline().decode("utf-8", "replace") if ready else ""
            if " on http://" not in banner:
                raise DaemonError(f"repro serve did not start: {banner!r}{self._log_tail()}")
            address = banner.split(" on http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        #: Spawn to first healthy answer, in seconds; a caller with lazy
        #: set-up to finish (the shard-pool fork) extends it.
        self.setup_s = time.perf_counter() - self.started

    def _log_tail(self) -> str:
        try:
            return "\n" + self._log_path.read_bytes()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + HEALTH_TIMEOUT
        while True:
            try:
                status, _, _ = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise DaemonError(f"repro serve never answered /healthz{self._log_tail()}")
            time.sleep(0.005)

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        request_id: Optional[int] = None,
    ) -> Tuple[int, bytes, float]:
        """One round trip: ``(status, raw response body, seconds)``.

        Raises:
            OSError / http.client.HTTPException: on a transport failure.
        """
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if request_id is not None:
            headers["X-Request-Id"] = str(request_id)
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            started = time.perf_counter()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - started
            return response.status, raw, elapsed
        finally:
            connection.close()

    def json(self, method: str, path: str, payload: Optional[dict] = None) -> Dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        status, raw, _ = self.request(method, path, body)
        if status >= 300:
            raise DaemonError(f"{method} {path} answered {status}: {raw[:200]!r}")
        return json.loads(raw)

    def pids(self) -> List[int]:
        """The server and every process it forked (the shard workers)."""
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            for task in Path(f"/proc/{pid}/task").glob("*"):
                try:
                    frontier.extend(int(child) for child in (task / "children").read_text().split())
                except OSError:
                    continue
        return found

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the server and its workers, in MiB."""
        total_kb = 0
        for pid in self.pids():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """Ask for a clean shutdown (SIGINT), then make sure the group is gone."""
        if self.process.poll() is None:
            try:
                os.killpg(self.process.pid, signal.SIGINT)
                self.process.wait(timeout=STOP_TIMEOUT)
            except (ProcessLookupError, subprocess.TimeoutExpired):
                pass
        _kill_group(self.process.pid)
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left of the session and wait for it to vanish."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + STOP_TIMEOUT
    while time.monotonic() < deadline:
        alive = [
            stat for stat in Path("/proc").glob("[0-9]*/stat") if _in_group(stat, pgid)
        ]
        if not alive:
            return
        time.sleep(0.02)


def _in_group(stat: Path, pgid: int) -> bool:
    try:
        fields = stat.read_text().rsplit(")", 1)[1].split()
    except OSError:
        return False
    # fields[0] is the state, fields[2] the process group; zombies are gone.
    return fields[0] != "Z" and int(fields[2]) == pgid
