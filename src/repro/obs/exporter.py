"""The live observability plane: in-run HTTP exposition + event log.

PR 3's telemetry is post-hoc — manifest and metrics land on disk after
the study exits.  This module makes the same registry data visible
*while the study runs*:

* :class:`ObservabilityServer` — a stdlib ``ThreadingHTTPServer`` on a
  daemon thread serving ``/metrics`` (Prometheus text),
  ``/progress`` (JSON), ``/healthz``, and ``/events`` (recent ring).

* :class:`LivePlane` — the one observer of a running study, the bundle
  the engine talks to: a :class:`~repro.obs.progress.ProgressTracker`
  (whose snapshots also go to an optional ``on_progress`` callable,
  the CLI's stderr status line), a merged live metrics snapshot fed by
  per-day ``snapshot_delta`` pushes, the structured event log writer,
  and (optionally) the HTTP server on top.

* :class:`SpoolPush` / :class:`SpoolPoller` — the cross-process push
  protocol.  Pool workers can't call into the parent's plane, so each
  worker drops per-day delta batches as atomic JSON files into a spool
  directory; a parent poller thread folds them into the live snapshot
  within ~0.2 s.  The spool is diagnostics-only: final merged metrics
  still come from the per-shard full-run deltas merged in shard order,
  so study output stays byte-identical whether the plane is on or off.

Threading model: HTTP handler threads only *read*, through three
supplier callables that take the plane's lock, copy, and release; the
engine (or the poller thread) is the only writer.  ``repro study``
always builds a plane (it binds a port or opens an event file only when
asked to); a library study without ``live`` builds none and pays zero.
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

from .events import SCHEMA as EVENTS_SCHEMA
from .events import EventWriter, OrderedShardWriter
from .metrics import merge_snapshots
from .progress import ProgressTracker
from .report import render_prometheus

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How many recent events the /events endpoint retains.
RECENT_EVENTS = 256


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
    (CLI or test) owns the lifecycle — the engine only feeds hooks, all
    of which are no-ops for the parts that weren't requested.
    ``on_progress`` receives the ``/progress`` snapshot after every
    progress update (study start, shard-day, shard, finish, abort).
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
        self._progress_lock = threading.Lock()
        self.server: Optional[ObservabilityServer] = None
        self._writer: Optional[EventWriter] = None
        self._ordered: Optional[OrderedShardWriter] = None
        self._recent: deque = deque(maxlen=RECENT_EVENTS)
        self._lock = threading.Lock()
        self._live: dict = {"counters": {}, "gauges": {}, "histograms": {}}

    @property
    def events_enabled(self) -> bool:
        return self.events_path is not None

    @property
    def url(self) -> Optional[str]:
        return self.server.url if self.server is not None else None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LivePlane":
        if self.events_path is not None:
            self._writer = EventWriter(self.events_path)
            self._ordered = OrderedShardWriter(self._writer)
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
            self._ordered = None

    # -- event plumbing ----------------------------------------------------

    def _write_now(self, event: str, level: str = "info", **fields) -> None:
        """Write a parent-process event immediately (bypasses reorder)."""
        record = {"event": event, "level": level,
                  "ts": round(time.time(), 6), **fields}
        if self._writer is not None:
            record = self._writer.write(record)
        self._recent.append(record)

    def _track(self, update: Callable, *args, **kwargs) -> None:
        """Apply one tracker update and hand the fresh snapshot to
        ``on_progress``.  The spool poller thread and the engine's
        thread both update the tracker; holding the lock across update,
        snapshot and callback keeps their status lines from
        interleaving and delivers snapshots in update order."""
        with self._progress_lock:
            update(*args, **kwargs)
            if self.on_progress is not None:
                self.on_progress(self.progress.snapshot())

    # -- engine hooks ------------------------------------------------------

    def study_started(
        self, shards: int, days: int, workers: int, resumed: bool = False
    ) -> None:
        self._track(self.progress.begin, shards, days)
        self._write_now(
            "study.start", shards=shards, days=days,
            workers=workers, resumed=resumed,
        )

    def day_completed(
        self, shard_id: int, day: int, days: int, grabs: int, delta: dict
    ) -> None:
        """One shard finished one study day (direct call or spool)."""
        self._track(self.progress.day_completed, shard_id, day, days, grabs)
        if delta:
            with self._lock:
                self._live = merge_snapshots([self._live, delta])

    def record_shard(
        self, result, checkpointed: bool = False, restored: bool = False
    ) -> None:
        """A shard finished (or was restored from its checkpoint)."""
        self._track(
            self.progress.shard_completed, result.shard_id,
            getattr(result.stats, "days", None), restored=restored,
        )
        batch = list(getattr(result, "events", []) or [])
        if restored:
            self._recent.append({
                "event": "checkpoint.restored", "level": "info",
                "shard": result.shard_id,
            })
            batch.append({
                "event": "checkpoint.restored", "level": "info",
                "ts": round(time.time(), 6), "shard": result.shard_id,
            })
        elif checkpointed:
            batch.append({
                "event": "checkpoint.write", "level": "info",
                "ts": round(time.time(), 6), "shard": result.shard_id,
            })
        if self._ordered is not None and batch:
            self._ordered.add_shard(result.shard_id, batch)
        for record in batch[-32:]:
            self._recent.append(record)

    def study_finished(self, stats) -> None:
        if self._ordered is not None:
            self._ordered.flush_all()
        self._write_now(
            "study.merge",
            grabs=getattr(stats, "grabs", 0),
            shards=getattr(stats, "shards", 0),
        )
        self._write_now(
            "study.end",
            grabs=getattr(stats, "grabs", 0),
            elapsed_s=round(getattr(stats, "elapsed_seconds", 0.0), 3),
        )
        self._track(self.progress.finish)

    def study_aborted(self, message: str) -> None:
        if self._ordered is not None:
            self._ordered.flush_all()
        self._write_now("study.abort", level="error", message=str(message))
        self._track(self.progress.finish, aborted=True)

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
        return list(self._recent)


# -- cross-process push protocol -------------------------------------------


class SpoolPush:
    """Worker side: drop per-day delta batches as atomic JSON files.

    File names are ``<shard:02d>-<seq:04d>.json`` so the poller can
    process each shard's pushes in order; writes go through a tmp file
    + ``os.replace`` so a concurrent scan never reads a partial file.
    """

    def __init__(self, directory: str, shard_id: int) -> None:
        self.directory = directory
        self.shard_id = shard_id
        self._seq = 0

    def push(self, day: int, days: int, grabs: int, delta: dict) -> None:
        name = f"{self.shard_id:02d}-{self._seq:04d}.json"
        self._seq += 1
        payload = {
            "shard": self.shard_id, "day": day, "days": days,
            "grabs": grabs, "delta": delta,
        }
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
    """Parent side: fold spooled pushes into the plane as they land."""

    def __init__(
        self, directory: str, plane: LivePlane, interval: float = 0.2
    ) -> None:
        self.directory = directory
        self.plane = plane
        self.interval = interval
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

    def drain(self) -> int:
        """Process (and delete) every complete spool file present."""
        try:
            names = sorted(
                name for name in os.listdir(self.directory)
                if name.endswith(".json") and not name.startswith(".")
            )
        except OSError:
            return 0
        processed = 0
        for name in names:
            path = os.path.join(self.directory, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                continue
            self.plane.day_completed(
                payload.get("shard", 0),
                payload.get("day", 0),
                payload.get("days", 0),
                payload.get("grabs", 0),
                payload.get("delta", {}),
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            processed += 1
        return processed

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
