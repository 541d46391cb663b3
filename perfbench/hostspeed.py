"""Host-speed normalisation of measured times.

The benchmark runs on shared hosts whose speed drifts in regimes that
last seconds to minutes: on the reference host a fixed pure-Python
loop takes anywhere from 1.0x to 2.4x its uncontended time, and CPU
time inflates as much as wall time, so neither is steady on its own
(repeated 15-25 s runs of one seed spread by 11-25% interquartile).

So the benchmark times a fixed calibration kernel — pure Python
interpreter work (object creation, attribute and dict traffic), no
``repro`` code — every :data:`CAL_EVERY_S` seconds of measured work,
and rescales each measured interval by how slow the host was around
it::

    normalised = measured * (CAL_REF_S / local calibration time) ** CAL_EXPONENT

``CAL_REF_S`` is the kernel's uncontended time on the reference host,
so normalised figures read as that host would have produced them
undisturbed.  ``CAL_EXPONENT`` is below 1 because contention slows the
simulator less than the small kernel: regressing per-visit times on
calibration times gave 0.7-0.8, and 0.75 halved the run-to-run spread
in every series of runs measured, where 1.0 sometimes over-corrected.  The
kernel shares no code with the simulator, so a change to ``src/``
moves the measured times and not the calibration, and shows in the
normalised figures in full.  The raw figures stay in each run's record.
"""

from __future__ import annotations

import statistics
import time

#: Calibration kernel time (wall = CPU) on the uncontended reference
#: host: 2-CPU x86-64 container, CPython 3.11.
CAL_REF_S = 1.36e-3

#: How strongly measured times follow the calibration (see above).
CAL_EXPONENT = 0.75

#: Measured work between calibrations.
CAL_EVERY_S = 0.05

#: Calibrations on each side of an interval whose median sets its scale.
CAL_NEIGHBOURS = 2


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _kernel() -> int:
    table: dict[int, _Slot] = {}
    total = 0
    for i in range(4000):
        table[i & 255] = _Slot(i, i * 3)
        slot = table.get((i * 7) & 255)
        if slot is not None:
            total += slot.value
    return total


def scale(calibration_s: float) -> float:
    """Factor that takes a time measured beside ``calibration_s`` to
    reference host speed."""
    return (CAL_REF_S / calibration_s) ** CAL_EXPONENT


def calibrate() -> tuple[float, float]:
    """Run the kernel once; ``(wall, cpu)`` seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    _kernel()
    return time.perf_counter() - wall, time.process_time() - cpu


class Timeline:
    """Measured intervals and calibrations, in time order.

    ``add`` records an interval of measured work (``kind`` labels it);
    ``calibrate`` records one kernel run.  :meth:`normalised` rescales
    every interval by :func:`scale` of the median of the
    :data:`CAL_NEIGHBOURS` calibrations before and after it.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[str, float, float]] = []
        self._since_cal = 0.0

    def add(self, kind: str, wall: float, cpu: float) -> None:
        self.entries.append((kind, wall, cpu))
        self._since_cal += wall

    def due(self) -> bool:
        return self._since_cal >= CAL_EVERY_S

    def calibrate(self) -> None:
        wall, cpu = calibrate()
        self.entries.append(("cal", wall, cpu))
        self._since_cal = 0.0

    def calibrations(self) -> list[tuple[float, float]]:
        return [(w, c) for kind, w, c in self.entries if kind == "cal"]

    def normalised(self) -> list[tuple[str, float, float]]:
        """``(kind, wall, cpu)`` per interval, at reference host speed."""
        cal_at = [i for i, entry in enumerate(self.entries) if entry[0] == "cal"]
        if not cal_at:
            raise ValueError("no calibration in the timeline")
        out = []
        k = 0  # calibrations strictly before the current entry
        for kind, wall, cpu in self.entries:
            if kind == "cal":
                k += 1
                continue
            near = cal_at[max(0, k - CAL_NEIGHBOURS): k + CAL_NEIGHBOURS]
            cal_wall = statistics.median(self.entries[j][1] for j in near)
            cal_cpu = statistics.median(self.entries[j][2] for j in near)
            out.append((kind, wall * scale(cal_wall), cpu * scale(cal_cpu)))
        return out
