"""Machine speed, measured alongside the workload, and `setup_s` samples.

The benchmark runs on small shared machines whose speed drifts by 30%
over minutes as other tenants come and go, and by up to 1.8x within
seconds. A fixed reference job, timed between operations, tracks that
drift: on a shared 2-core x86-64 machine, the fastest operation over
the fastest reference varied by about 2% across 3-second windows in
which the fastest operation alone varied by 12%. Reported times are therefore
scaled to a nominal machine on which the reference's fastest run takes
REFERENCE_MS; the raw times and the factor are reported too.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

from workloads import CHILD_TIMEOUT_S

#: Fastest `reference()` time of the nominal machine (a 2-core x86-64
#: machine, Python 3.11, in a quiet spell).
REFERENCE_MS = 12.5
#: The reference runs this often between operations.
REFERENCE_EVERY_S = 0.5
#: `setup_s` times a fresh interpreter this often (and at least
#: SETUP_MIN times), so that its median spans the run's fast and slow
#: spells rather than the few seconds before it.
SETUP_EVERY_S = 5.0
SETUP_MIN = 3


@dataclass(frozen=True)
class _Point:
    frame: int
    bbox: tuple
    confidence: float


_DOCUMENT = json.dumps([
    {"frame": i, "bbox": [i * 1.5, i * 2.5, 40.0, 40.0], "confidence": 0.9, "opacity": "high"}
    for i in range(1500)
])


def reference() -> int:
    """The reference job: the compiler's mix of JSON decoding, frozen
    dataclasses, sorting, float math and JSON encoding, using only the
    standard library, so no change to tracereplay can move it."""
    rows = json.loads(_DOCUMENT)
    points = [_Point(r["frame"], tuple(float(v) for v in r["bbox"]), r["confidence"])
              for r in rows]
    points.sort(key=lambda p: (-p.frame, p.bbox))
    total = sum(math.hypot(p.bbox[0], p.bbox[1]) for p in points)
    text = json.dumps([{"f": p.frame, "b": list(p.bbox), "t": total} for p in points], indent=2)
    return len(text)


def spawn_import(env: dict, flags: list[str]):
    """Wall seconds for a fresh interpreter to `import tracereplay`
    (with `flags`, the child's stderr instead)."""
    start = perf_counter_ns()
    proc = subprocess.run([sys.executable, *flags, "-c", "import tracereplay"],
                          env=env, check=True, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = (perf_counter_ns() - start) / 1e9
    return proc.stderr.decode() if flags else wall


class Clock:
    """Ticked between operations: times the reference every
    REFERENCE_EVERY_S and a fresh `import tracereplay` every SETUP_EVERY_S."""

    def __init__(self, env: dict):
        self.env = env
        self.reference_ms: list[float] = []
        self.setup_s: list[float] = []
        self.reference_due = self.setup_due = 0.0

    def _reference(self) -> None:
        reference()  # warm-up: the operation before left the caches cold
        start = perf_counter_ns()
        reference()
        self.reference_ms.append((perf_counter_ns() - start) / 1e6)
        self.reference_due = perf_counter() + REFERENCE_EVERY_S

    def sample_setup(self) -> None:
        self.setup_s.append(spawn_import(self.env, []))
        self.setup_due = perf_counter() + SETUP_EVERY_S

    def tick(self) -> None:
        now = perf_counter()
        if now >= self.setup_due:
            self.sample_setup()
        if now >= self.reference_due:
            self._reference()

    def finish(self) -> None:
        while len(self.setup_s) < SETUP_MIN:
            self.sample_setup()
        if not self.reference_ms:
            self._reference()

    @property
    def factor(self) -> float:
        """Scale for best-of-run times: nominal over fastest reference."""
        return REFERENCE_MS / min(self.reference_ms)

    @property
    def setup(self) -> float:
        """Median `setup_s`, scaled like every other time."""
        return statistics.median(self.setup_s) * self.factor
