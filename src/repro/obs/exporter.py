"""The live observability plane: in-run HTTP exposition + event log.

The run manifest and metrics are post-hoc: they land on disk after the
study exits.  This module makes the same registry data visible
*while the study runs*:

* :class:`ObservabilityServer` — a stdlib ``ThreadingHTTPServer`` on a
  daemon thread serving ``/metrics`` (Prometheus text),
  ``/progress`` (JSON), ``/healthz``, and ``/events`` (recent ring).

* :class:`LivePlane` — the one observer of a running study.  It takes
  one stream of event records (the engine's own, and each running
  shard's per-day pushes with a metrics ``snapshot_delta``) and turns
  it into progress (a :class:`~repro.obs.progress.ProgressTracker`,
  whose snapshots also go to an optional ``on_progress`` callable, the
  CLI's stderr status line), the live metrics snapshot, each running
  shard's records for its checkpoint, the event log, and (optionally)
  the HTTP server on top.

* :class:`SpoolPush` / :class:`SpoolPoller` — the same push across the
  process boundary.  Pool workers can't call into the parent's plane,
  so each worker drops its pushes as atomic JSON files into a spool
  directory; a parent poller thread hands them to the plane within
  ~0.2 s, and the engine drains the spool itself before it checkpoints
  a finished shard.  The pushed deltas are diagnostics-only: final
  merged metrics still come from the per-shard full-run deltas merged
  in shard order, so study output stays byte-identical whether the
  plane is on or off.

Threading model: HTTP handler threads only *read*, through three
supplier callables that take a lock, copy, and release; the engine and
the poller thread write through :meth:`LivePlane.take`.  ``repro
study`` always builds a plane (it binds a port or opens an event file
only when asked to); a library study without ``live`` builds none,
leaves the event log off and pays zero.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from .events import DEFAULT_CAPACITY, EventWriter, OrderedShardWriter
from .events import SCHEMA as EVENTS_SCHEMA
from .metrics import merge_snapshots
from .progress import ProgressTracker
from .report import render_prometheus

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How many recent events the /events endpoint retains.
RECENT_EVENTS = 256

#: The records that close a shard's batch: its checkpoint was written
#: (a run shard) or read back (a restored one).
SHARD_CLOSED = ("checkpoint.write", "checkpoint.restored")


class _Handler(BaseHTTPRequestHandler):
    """Routes GETs to the server's suppliers; everything else is 404."""

    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                body = render_prometheus(self.server.metrics_supplier())
                self._respond(200, PROMETHEUS_CONTENT_TYPE, body.encode("utf-8"))
            elif path == "/progress":
                self._respond_json(self.server.progress_supplier())
            elif path == "/healthz":
                self._respond_json({
                    "ok": True,
                    "uptime_s": round(time.monotonic() - self.server.started, 3),
                })
            elif path == "/events":
                self._respond_json({
                    "schema": EVENTS_SCHEMA,
                    "recent": self.server.events_supplier(),
                })
            else:
                self._respond(
                    404, "text/plain; charset=utf-8",
                    b"repro-obs endpoints: /metrics /progress /healthz /events\n",
                )
        except Exception as exc:  # pragma: no cover - defensive
            self._respond(
                500, "text/plain; charset=utf-8",
                f"supplier error: {exc}\n".encode("utf-8"),
            )

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, document) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self._respond(200, "application/json; charset=utf-8", body)

    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr chatter."""


class ObservabilityServer:
    """A daemon-thread HTTP server over three read-only suppliers."""

    def __init__(
        self,
        metrics_supplier: Callable[[], dict],
        progress_supplier: Callable[[], dict],
        events_supplier: Optional[Callable[[], list]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.metrics_supplier = metrics_supplier
        self._httpd.progress_supplier = progress_supplier
        self._httpd.events_supplier = events_supplier or (lambda: [])
        self._httpd.started = time.monotonic()
        self._thread: Optional[threading.Thread] = None
        self.host = host
        self.port = self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


class LivePlane:
    """Everything a running study exposes, bundled for the engine.

    Construction is cheap and side-effect free; :meth:`start` opens
    the event file and binds the HTTP port, when asked for.  The caller
    (CLI or test) owns the lifecycle; the engine hands the plane
    records through :meth:`take`.  ``on_progress`` receives the
    ``/progress`` snapshot after every take that moved the progress
    (study start, shard-day, shard end or restore, finish, abort).
    """

    def __init__(
        self,
        serve_port: Optional[int] = None,
        events_path: Optional[str] = None,
        host: str = "127.0.0.1",
        on_progress: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.serve_port = serve_port
        self.events_path = events_path
        self.host = host
        self.on_progress = on_progress
        self.progress = ProgressTracker()
        self.server: Optional[ObservabilityServer] = None
        self._writer: Optional[EventWriter] = None
        self._ordered = OrderedShardWriter(self._write)
        #: Each running shard's records, held until its checkpoint.
        self._running: dict[int, deque] = {}
        self._recent: deque = deque(maxlen=RECENT_EVENTS)
        self._lock = threading.Lock()
        self._live: dict = {"counters": {}, "gauges": {}, "histograms": {}}

    @property
    def url(self) -> Optional[str]:
        return self.server.url if self.server is not None else None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LivePlane":
        if self.events_path is not None:
            self._writer = EventWriter(self.events_path)
        if self.serve_port is not None:
            self.server = ObservabilityServer(
                self.live_snapshot,
                self.progress.snapshot,
                self.recent_events,
                host=self.host,
                port=self.serve_port,
            )
            self.server.start()
        return self

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- the engine's one hook ---------------------------------------------

    def take(
        self, records: list, delta: Optional[dict] = None,
        shard: Optional[int] = None,
    ) -> None:
        """Take ``records`` (oldest first) and a metrics ``delta``.

        Without ``shard`` the records are the study's own and are
        written at once, after any shard batches still held.  With
        ``shard`` they join that shard's buffer (capped at
        :data:`~repro.obs.events.DEFAULT_CAPACITY`, oldest dropped
        first); a trailing ``checkpoint.write``/``checkpoint.restored``
        closes the buffer and releases it to the file in shard order.
        The spool poller thread and the engine's thread both call this,
        so everything, ``on_progress`` included, runs under one lock:
        status lines never interleave and arrive in take order.
        """
        with self._lock:
            if delta:
                self._live = merge_snapshots([self._live, delta])
            if shard is None:
                self._ordered.flush_all()
                self._write(records)
            else:
                buffer = self._running.setdefault(
                    shard, deque(maxlen=DEFAULT_CAPACITY)
                )
                if records and records[-1]["event"] in SHARD_CLOSED:
                    buffer.extend(records[:-1])
                    del self._running[shard]
                    self._ordered.add_shard(shard, [*buffer, records[-1]])
                else:
                    buffer.extend(records)
            if self.progress.fold(records) and self.on_progress is not None:
                self.on_progress(self.progress.snapshot())

    def shard_events(self, shard: int):
        """The records a running shard has pushed so far (its checkpoint
        stores them, so a resumed study replays them)."""
        return self._running.get(shard, ())

    def _write(self, records) -> None:
        """Write records to the event file (which stamps ``seq``) and
        show each, as written, in the ``/events`` ring."""
        for record in records:
            if self._writer is not None:
                record = self._writer.write(record)
            self._recent.append(record)

    # -- suppliers (read side) ---------------------------------------------

    def live_snapshot(self) -> dict:
        """A copy of the merged live metrics (safe across threads)."""
        with self._lock:
            return {
                "counters": dict(self._live["counters"]),
                "gauges": dict(self._live["gauges"]),
                "histograms": {
                    key: dict(value)
                    for key, value in self._live["histograms"].items()
                },
            }

    def recent_events(self) -> list:
        with self._lock:
            return list(self._recent)


# -- cross-process push protocol -------------------------------------------


class SpoolPush:
    """Worker side: drop each push of a shard as an atomic JSON file.

    File names are ``<shard:02d>-<seq:04d>.json`` so the poller can
    process each shard's pushes in order; writes go through a tmp file
    + ``os.replace`` so a concurrent scan never reads a partial file,
    and a push has landed once :meth:`push` returns.
    """

    def __init__(self, directory: str, shard_id: int) -> None:
        self.directory = directory
        self.shard_id = shard_id
        self._seq = 0

    def push(self, events: list, delta: dict) -> None:
        name = f"{self.shard_id:02d}-{self._seq:04d}.json"
        self._seq += 1
        payload = {"shard": self.shard_id, "events": events, "delta": delta}
        fd, tmp = tempfile.mkstemp(
            prefix=f".{name}.", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload))
            os.replace(tmp, os.path.join(self.directory, name))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


class SpoolPoller:
    """Parent side: hand spooled pushes to the plane as they land.

    The engine calls :meth:`drain` itself once a pooled shard's future
    resolves, so the shard's last push is in the plane before its
    checkpoint is written; a lock shared with the polling thread keeps
    any file from being taken twice.
    """

    def __init__(
        self, directory: str, plane: LivePlane, interval: float = 0.2
    ) -> None:
        self.directory = directory
        self.plane = plane
        self.interval = interval
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-spool", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.drain()

    def drain(self) -> None:
        """Take (and delete) every complete spool file present."""
        with self._lock:
            try:
                names = sorted(
                    name for name in os.listdir(self.directory)
                    if name.endswith(".json") and not name.startswith(".")
                )
            except OSError:
                return
            for name in names:
                path = os.path.join(self.directory, name)
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        payload = json.load(fh)
                except (OSError, ValueError):
                    continue
                self.plane.take(
                    payload["events"], payload["delta"], shard=payload["shard"]
                )
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.drain()


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "RECENT_EVENTS",
    "ObservabilityServer",
    "LivePlane",
    "SpoolPush",
    "SpoolPoller",
]
