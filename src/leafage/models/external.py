"""Child-process model client speaking line-delimited JSON.

Wire protocol, one JSON document per line on stdin/stdout:

    request:  {"op": "predict", "instances": [[f64, ...], ...]}
    response: {"labels": [int, ...]}

Labels are the integers 0 and 1; ``true`` and ``false`` are refused.  A
handle owns its child process, started from ``command``, a non-empty argv
list of strings or paths.  Requests are serialized (one in flight at a
time) and each is answered by exactly one line.  The calling thread polls
the child's stdin and stdout against one deadline, so the timeout bounds
the whole exchange, sending included.  A reply that is not UTF-8 JSON is a
``ModelError``.  A request that times out, or is answered by more than one
line, kills the child, since the late or stray line would otherwise answer
the next request; the handle is then closed and every later request
raises.  The child's stderr goes to an anonymous temporary file; when the
child stops answering, the last 2 KB of it are appended to the error.
"""
from __future__ import annotations

import json
import math
import os
import select
from subprocess import PIPE, Popen, TimeoutExpired
import tempfile
import threading
import time

import numpy as np

from ..data import is_integer, is_real
from ..errors import ModelError
from .base import BlackBoxModel, check_matrix

_STDERR_TAIL = 2048


class ExternalModel(BlackBoxModel):
    """Black-box adapter around an external prediction process."""

    def __init__(
        self,
        command: list[str],
        n_features: int,
        timeout_ms: int = 10_000,
        descriptor: str = "external",
    ):
        # A bare string would run as one program name, whatever its spaces.
        if not (
            isinstance(command, list)
            and command
            and all(isinstance(arg, (str, os.PathLike)) for arg in command)
        ):
            raise ModelError(
                "external model command must be a non-empty list of strings, "
                f"got {command!r}"
            )
        if not (is_integer(n_features) and n_features >= 1):
            raise ModelError(f"n_features must be an integer >= 1, got {n_features!r}")
        if not (is_real(timeout_ms) and 0 < timeout_ms < math.inf):
            raise ModelError(
                f"timeout_ms must be a finite number > 0, got {timeout_ms!r}"
            )
        self.descriptor = descriptor
        self.n_features = n_features
        self.timeout_ms = timeout_ms
        # A file, not a pipe: the child can never block on a full stderr.
        self._stderr = tempfile.TemporaryFile(buffering=0)
        try:
            self._proc = Popen(command, stdin=PIPE, stdout=PIPE, stderr=self._stderr)
        except OSError as exc:
            self._stderr.close()
            raise ModelError(
                f"cannot launch external model {command!r}: {exc}"
            ) from None
        # A write then takes what the pipe has room for and never blocks.
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._lock = threading.Lock()
        self._closed_because: str | None = None

    def _failure(self, message: str) -> ModelError:
        """``message`` plus the last bytes the child wrote to stderr."""
        fd = self._stderr.fileno()
        start = max(0, os.fstat(fd).st_size - _STDERR_TAIL)
        # pread leaves the offset the child shares with this descriptor alone.
        tail = os.pread(fd, _STDERR_TAIL, start).decode(errors="replace")
        if tail.strip():
            message += f"; stderr tail:\n{tail.rstrip()}"
        return ModelError(message)

    def _shut(self, reason: str) -> ModelError:
        """Kill the child and close the handle because of ``reason``."""
        self._proc.kill()
        self._proc.wait()
        self._closed_because = reason
        return self._failure(f"external model: {reason}")

    def _exchange(self, request: bytes) -> bytes:
        """Send ``request``; return its reply line, or at EOF the unterminated rest."""
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        poller = select.poll()
        poller.register(stdout, select.POLLIN)
        # Bytes waiting before the request is sent are a stray line.
        if poller.poll(0) and os.read(stdout, 1):
            raise self._shut("a request was answered by more than one line")
        poller.register(stdin, select.POLLOUT)
        deadline = time.monotonic() + self.timeout_ms / 1000.0
        pending, reply = memoryview(request), bytearray()
        while pending or b"\n" not in reply:
            wait_ms = int((deadline - time.monotonic()) * 1000.0)
            events = dict(poller.poll(wait_ms)) if wait_ms > 0 else {}
            if not events:
                raise self._shut(f"a request timed out after {self.timeout_ms} ms")
            if pending and events.get(stdin):
                try:
                    pending = pending[os.write(stdin, pending) :]
                except BrokenPipeError:
                    raise self._failure(
                        "external model process is not accepting requests"
                    ) from None
                if not pending:
                    poller.unregister(stdin)
            if events.get(stdout):
                chunk = os.read(stdout, 1 << 16)
                if not chunk:
                    if reply:
                        break
                    raise self._failure("external model process exited mid-request")
                reply += chunk
        line, _, stray = bytes(reply).partition(b"\n")
        if stray:
            raise self._shut("a request was answered by more than one line")
        return line

    def predict_labels(self, rows: np.ndarray) -> np.ndarray:
        rows = check_matrix(rows, self.n_features)
        request = json.dumps({"op": "predict", "instances": rows.tolist()}) + "\n"
        with self._lock:
            if self._closed_because is not None:
                raise ModelError(f"external model is closed: {self._closed_because}")
            line = self._exchange(request.encode()).decode(errors="replace")
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
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=2)
        except TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._stderr.close()

    def __enter__(self) -> "ExternalModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
