"""Child-process model client speaking line-delimited JSON.

Wire protocol, one JSON document per line on stdin/stdout:

    request:  {"op": "predict", "instances": [[f64, ...], ...]}
    response: {"labels": [int, ...]}

Labels are the integers 0 and 1; ``true`` and ``false`` are refused.  A
handle owns its child process: requests are serialized (one in flight at
a time) and responses are matched to requests by order.  An I/O thread
writes each request and reads its reply, so the timeout bounds the whole
exchange, sending included.  A request that times out kills the child,
since its late reply would otherwise answer the next request; the handle
is then closed and every later request raises.  The child's stderr goes
to an anonymous temporary file; when the child stops answering, the last
2 KB of it are appended to the error.
"""
from __future__ import annotations

import json
import os
import queue
import shlex
import subprocess
import tempfile
import threading

import numpy as np

from ..errors import ModelError
from .base import BlackBoxModel, check_matrix

_EOF = object()
_REFUSED = object()
_STDERR_TAIL = 2048


class ExternalModel(BlackBoxModel):
    """Black-box adapter around an external prediction process."""

    def __init__(
        self,
        command: str | list[str],
        n_features: int,
        timeout_ms: int = 10_000,
        descriptor: str = "external",
    ):
        self.descriptor = descriptor
        self.n_features = n_features
        self.timeout_ms = timeout_ms
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        # A file, not a pipe: the child can never block on a full stderr
        # and no reader thread is needed.
        self._stderr = tempfile.TemporaryFile(buffering=0)
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                text=True,
            )
        except OSError as exc:
            self._stderr.close()
            raise ModelError(f"cannot launch external model {argv!r}: {exc}") from None
        self._requests: queue.Queue = queue.Queue()
        self._replies: queue.Queue = queue.Queue()
        self._io = threading.Thread(target=self._exchange, daemon=True)
        self._io.start()
        self._lock = threading.Lock()
        self._closed_because: str | None = None

    def _exchange(self) -> None:
        """Write each queued request and queue its reply line, until None."""
        for request in iter(self._requests.get, None):
            try:
                self._proc.stdin.write(request)
                self._proc.stdin.flush()
            except (OSError, ValueError):  # a dead child, or stdin closed
                self._replies.put(_REFUSED)
                continue
            self._replies.put(self._proc.stdout.readline() or _EOF)

    def _failure(self, message: str) -> ModelError:
        """``message`` plus the last bytes the child wrote to stderr."""
        fd = self._stderr.fileno()
        start = max(0, os.fstat(fd).st_size - _STDERR_TAIL)
        # pread leaves the offset the child shares with this descriptor alone.
        tail = os.pread(fd, _STDERR_TAIL, start).decode(errors="replace")
        if tail.strip():
            message += f"; stderr tail:\n{tail.rstrip()}"
        return ModelError(message)

    def predict_labels(self, rows: np.ndarray) -> np.ndarray:
        rows = check_matrix(rows, self.n_features)
        request = json.dumps({"op": "predict", "instances": rows.tolist()})
        with self._lock:
            if self._closed_because is not None:
                raise ModelError(f"external model is closed: {self._closed_because}")
            self._requests.put(request + "\n")
            try:
                line = self._replies.get(timeout=self.timeout_ms / 1000.0)
            except queue.Empty:
                self._proc.kill()
                self._proc.wait()
                self._closed_because = f"a request timed out after {self.timeout_ms} ms"
                raise self._failure(f"external model: {self._closed_because}") from None
            if line is _REFUSED:
                raise self._failure("external model process is not accepting requests")
            if line is _EOF:
                raise self._failure("external model process exited mid-request")
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            raise ModelError(f"malformed external model response: {line!r}") from None
        labels = payload.get("labels") if isinstance(payload, dict) else None
        if not isinstance(labels, list) or len(labels) != rows.shape[0]:
            raise ModelError(
                f"external model response must carry {rows.shape[0]} labels, "
                f"got: {line!r}"
            )
        if not all(type(v) is int and v in (0, 1) for v in labels):
            raise ModelError(f"external model labels must be 0/1 ints, got: {line!r}")
        return np.asarray(labels, dtype=np.int64)

    def close(self) -> None:
        self._closed_because = self._closed_because or "close() was called"
        self._requests.put(None)
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._io.join(timeout=2)
        if not self._io.is_alive():
            self._proc.stdout.close()
        self._stderr.close()

    def __enter__(self) -> "ExternalModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
