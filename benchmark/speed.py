"""Op timing scaled to a reference machine speed.

The 2-CPU machine this benchmark was built on runs identical code at
speeds up to 2x apart.  The speed changes within a second, independently
on each of its 2 CPUs, because the host is shared.  Raw wall times of one
seed therefore spread by about 30% between runs.  A short reference
kernel is timed right after every op, or after every REF_EVERY_S of
shorter ops, so one reading before and one after bracket each op.  It
does the same kind of work as loxpairs: small complex numpy products and
inverses, and many tiny numpy calls on short vectors as in inner
products.  Each op's wall time is multiplied by the mean of
REF_NOMINAL_S / (reference time) over the two readings.  Reported times
are thus "seconds on a machine where the reference kernel takes
REF_NOMINAL_S".  Raw wall times are kept alongside for the record.
"""

from __future__ import annotations

import re
import time

import numpy as np

REF_NOMINAL_S = 0.75e-3
REF_EVERY_S = 0.01
NUMBER = re.compile(r"[-+]?\d[\d.]*(e[-+]?\d+)?")

_M = np.random.default_rng(0).standard_normal((8, 16)).view(complex)
_H = np.eye(4, dtype=complex)
_U, _W = np.random.default_rng(1).standard_normal((2, 8)).view(complex)


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0j
    for _ in range(15):
        N = _M @ _M
        np.linalg.inv(N)
        acc += complex(np.abs(N).max()) * (1 + 2j)
    for _ in range(30):
        hz = _H @ _U
        acc += complex(np.sum(np.conj(_W) * hz))
        acc += float(np.sqrt(np.max(np.abs(_U) ** 2 + np.abs(_W) ** 2)))
    return time.perf_counter() - t0


def scale_now() -> float:
    """Scale factor for work done just before this call.  Only a reading
    taken right after the work tracks the speed it ran at."""
    return REF_NOMINAL_S / reference_s()


class ScaledClock:
    """Wall time scaled to the reference speed, one segment of at least
    REF_EVERY_S at a time, each by the mean of the readings before and
    after it.  The reference runs themselves are not counted."""

    def __init__(self):
        self.total = 0.0
        self._last = scale_now()
        self._t = time.perf_counter()

    def tick(self, force: bool = False):
        seg = time.perf_counter() - self._t
        if seg >= REF_EVERY_S or force:
            now = scale_now()
            self.total += seg * (self._last + now) / 2
            self._last = now
            self._t = time.perf_counter()


class Tally:
    """Outcomes and scaled times of a sequence of ops."""

    def __init__(self):
        self.raw: list[float] = []
        self.times: list[float] = []
        self.outcomes: list[str] = []
        self.failures: list[str] = []
        self._last = scale_now()
        self._since = time.perf_counter()
        self._pending = 0

    def add(self, label, outcome, dt, detail):
        self.raw.append(dt)
        self.times.append(dt)
        self.outcomes.append(outcome)
        self.failures.append(
            "" if outcome == "ok"
            else f"{label} {outcome} {NUMBER.sub('#', detail)[:56]}")
        self._pending += 1
        if time.perf_counter() - self._since >= REF_EVERY_S:
            self.rescale()

    def rescale(self):
        """Scale the ops run since the last reference reading by the mean
        of that reading and a new one, which brackets them."""
        if not self._pending:
            return
        now = scale_now()
        scale = (self._last + now) / 2
        self._last = now
        for k in range(len(self.times) - self._pending, len(self.times)):
            self.times[k] = self.raw[k] * scale
        self._since = time.perf_counter()
        self._pending = 0

    def scales(self) -> np.ndarray:
        return np.asarray(self.times) / np.asarray(self.raw)
