"""Machine-speed calibration, so that times from a machine whose speed drifts
can be compared between runs.

On a shared virtual machine the same code runs up to a third slower for
seconds to minutes at a time, as other tenants load the host.  Every timed
piece of work (a *segment*: one explain operation, or about 50 ms of a
``run_setting`` call) is therefore followed, outside the timed region, by
:func:`calibrate` samples: a fixed computation that does not touch the
leafage package -- a level-by-level walk of a binary tree over 10k rows with
numpy gathers, an interpreter loop, a JSON round trip and small weighted
least-squares solves, the kinds of work the package's layers do.  A
segment's time at reference speed is its measured time times
``REFERENCE_S`` over the mean of the calibration times just before and just
after it.
A change to the program moves the segment and not the calibration; a change
of machine speed moves both.
"""
from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Reference speed: the calibration taking 5 ms, as it did on a 2-vCPU Xeon
# virtual machine at its fastest.  A time at reference speed equals the
# measured time where the calibration takes this long.
REFERENCE_S = 0.005
# A segment is followed by calibration samples for this share of its own
# time, at least one, so that a long segment's speed is read over a stretch
# of time rather than at one instant.
CALIBRATION_SHARE = 0.25

_rng = np.random.default_rng(20181221)
_NODES = 4095
_INTERNAL = 2047
_FEATURE = np.where(np.arange(_NODES) < _INTERNAL, _rng.integers(0, 2, _NODES), -1)
_THRESHOLD = _rng.standard_normal(_NODES)
_LEFT = np.minimum(2 * np.arange(_NODES) + 1, _NODES - 1)
_RIGHT = np.minimum(2 * np.arange(_NODES) + 2, _NODES - 1)
_ROWS = _rng.standard_normal((10000, 2))
_VALUES = _ROWS[:, 0].tolist()
_PAYLOAD = {"instances": _ROWS[:1000].tolist()}
_DESIGN = _rng.standard_normal((2000, 3))


def _walk() -> int:
    node = np.zeros(_ROWS.shape[0], dtype=np.int64)
    while True:
        feature = _FEATURE[node]
        internal = feature >= 0
        if not internal.any():
            return int(node.sum())
        idx = np.flatnonzero(internal)
        sub = node[idx]
        goes_left = _ROWS[idx, feature[idx]] < _THRESHOLD[sub]
        node[idx] = np.where(goes_left, _LEFT[sub], _RIGHT[sub])


def _loop() -> float:
    total = 0.0
    for value in _VALUES:
        total += value * value
    return total


def _solves() -> float:
    weights = np.ones(_DESIGN.shape[0])
    for _ in range(10):
        hessian = _DESIGN.T @ (_DESIGN * weights[:, None]) + np.eye(3)
        step = np.linalg.solve(hessian, _DESIGN.T @ weights)
        weights = 1.0 / (1.0 + np.exp(-_DESIGN @ step))
    return float(weights.sum())


def calibrate() -> float:
    """Seconds one calibration sample takes on this machine right now."""
    start = time.perf_counter()
    _walk()
    _loop()
    json.loads(json.dumps(_PAYLOAD))
    _solves()
    return time.perf_counter() - start


def typical(samples: list[float]) -> float:
    """Mean of the samples without the slowest tenth: the speed the work
    between them ran at, without the samples the scheduler interrupted."""
    ordered = sorted(samples)
    kept = ordered[: len(ordered) - len(ordered) // 10]
    return sum(kept) / len(kept)


class SpeedMeter:
    """Times work in segments, each followed by untimed calibration.

    Call :meth:`start` before a segment and :meth:`split` at its end;
    ``owner`` says which operation the segment belongs to and ``label``
    what part of it the segment is.  Segments of one operation may be split
    by calibration, whose time is not counted.
    """

    def __init__(self) -> None:
        self.owners: list[int] = []
        self.labels: list[str] = []
        self.seconds: list[float] = []
        self.calibration: list[float] = []
        self._began = 0.0

    def start(self) -> None:
        self._began = time.perf_counter()

    def split(self, owner: int, label: str = "", at_least: float = 0.0) -> None:
        """End the running segment, calibrate and start the next segment;
        do nothing while the segment has run for less than ``at_least``
        seconds."""
        measured = time.perf_counter() - self._began
        if measured < at_least:
            return
        self.seconds.append(measured)
        self.owners.append(owner)
        self.labels.append(label)
        samples = [calibrate()]
        while sum(samples) < CALIBRATION_SHARE * measured:
            samples.append(calibrate())
        self.calibration.append(typical(samples))
        self.start()

    def reference_seconds(self) -> list[float]:
        """Each segment's time at reference speed, its speed read from the
        calibration just before it (the previous segment's) and just after
        it: the machine's speed can change within a second."""
        out = []
        for j, measured in enumerate(self.seconds):
            around = self.calibration[max(0, j - 1) : j + 1]
            out.append(measured * REFERENCE_S * len(around) / sum(around))
        return out

    def totals(self, by: str, reference: bool) -> dict:
        """Time of the segments per owner (``by="owners"``) or per label
        (``by="labels"``), measured or at reference speed."""
        values = self.reference_seconds() if reference else self.seconds
        out: dict = {}
        for key, value in zip(getattr(self, by), values):
            out[key] = out.get(key, 0.0) + value
        return out

    def median_calibration(self) -> float:
        return statistics.median(self.calibration)
