"""Worker-process shard backend: real parallelism for batch advice.

Pure-Python rule evaluation is GIL-bound, so in-process shards cannot
make one batch faster — they only isolate failures.  This backend hosts
each shard's :class:`~repro.policy.service.PolicyService` in its own
interpreter (stdlib ``multiprocessing``) and speaks a tiny pickle RPC
over a pipe: ``(method, args, kwargs)`` in, ``(ok, payload)`` out.
Blocking pipe reads release the GIL, so the router's per-shard dispatch
threads overlap and batch-advice throughput scales with shard count.
The router dispatches from threads whenever it is given its backends,
as this one always is.

Limitations (by design — the DES and chaos tests use the in-process
backend): the worker runs on real time (no simulated clock), and the
router cannot introspect its working memory directly, only through the
RPC ops.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Optional

from repro.policy.model import PolicyConfig
from repro.policy.sharding.shard import (
    ShardUnavailableError,
    disable_local_sweep,
    invoke_on_service,
)

__all__ = ["ProcessShardBackend"]


def _shard_worker(
    conn,
    config,
    journal_dir,
    snapshot_interval: int,
    fsync: bool,
    recover: bool,
) -> None:
    """Worker-process main loop: build the service, serve RPCs until EOF."""

    # Imports happen here too so a "spawn" start method works.
    from repro.policy.journal import PolicyJournal
    from repro.policy.service import PolicyRefusedError, PolicyService

    if recover and journal_dir is not None:
        service = PolicyService.recover(
            journal_dir,
            config=config,
            snapshot_interval=snapshot_interval,
            fsync=fsync,
        )
    else:
        journal = None
        if journal_dir is not None:
            journal = PolicyJournal(
                journal_dir, snapshot_interval=snapshot_interval, fsync=fsync
            )
        service = PolicyService(config, journal=journal)
    disable_local_sweep(service)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        name, args, kwargs = message
        try:
            result = invoke_on_service(service, name, *args, **kwargs)
            reply = (True, result)
        except PolicyRefusedError as exc:
            reply = (False, exc)  # picklable: still a refusal at the router
        except Exception as exc:  # noqa: BLE001 - shipped to the router
            reply = (False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    if service.journal is not None:
        service.journal.close()
    conn.close()


class ProcessShardBackend:
    """Hosts one shard's service in a dedicated worker process."""

    def __init__(
        self,
        config: Optional[PolicyConfig] = None,
        journal_dir=None,
        snapshot_interval: int = 1000,
        fsync: bool = False,
    ) -> None:
        self.config = config if config is not None else PolicyConfig()
        self.journal_dir = journal_dir
        self.snapshot_interval = snapshot_interval
        self.fsync = fsync
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._lock = threading.Lock()
        self._proc = None
        self._conn = None
        self._start(recover=False)

    def _start(self, recover: bool) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                child,
                self.config,
                self.journal_dir,
                self.snapshot_interval,
                self.fsync,
                recover,
            ),
            daemon=True,
        )
        proc.start()
        child.close()
        self._proc = proc
        self._conn = parent

    # ------------------------------------------------------------------ RPC
    def invoke(self, name: str, *args, **kwargs):
        with self._lock:
            if self._proc is None or not self._proc.is_alive():
                raise ShardUnavailableError("shard worker process is not running")
            try:
                self._conn.send((name, args, kwargs))
                ok, payload = self._conn.recv()
            except (BrokenPipeError, EOFError, OSError) as exc:
                raise ShardUnavailableError(
                    f"shard worker pipe failed: {exc}"
                ) from exc
        if ok:
            return payload
        raise payload if isinstance(payload, Exception) else RuntimeError(payload)

    def metrics_text(self) -> str:
        return self.invoke("metrics_text")

    # ------------------------------------------------------------------ faults
    def crash(self) -> None:
        """Kill the worker outright — memory gone, journal on disk."""

        with self._lock:
            if self._proc is not None:
                self._proc.terminate()
                self._proc.join(timeout=5)
                self._proc = None
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def recover(self) -> None:
        """Start a fresh worker that replays the shard journal."""

        with self._lock:
            if self._proc is not None and self._proc.is_alive():
                return
            self._start(recover=self.journal_dir is not None)

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            if self._proc is not None:
                self._proc.join(timeout=5)
                if self._proc.is_alive():
                    self._proc.terminate()
                self._proc = None
            if self._conn is not None:
                self._conn.close()
                self._conn = None
