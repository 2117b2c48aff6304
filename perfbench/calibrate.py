"""A fixed piece of pure-Python work that measures the host's speed.

On a shared machine the same code runs up to 1.5 times slower for
minutes at a time.  Single timed steps follow that drift only loosely,
but over tens of seconds the program and this calibration slow down
together.  ``run.py`` therefore times the calibration just before and
just after each iteration and scales the iteration's times to a fixed
reference speed::

    scaled = measured * REFERENCE_S / mean(calibration before, calibration after)

and reports the median of the scaled times over the run.

The calibration does not touch the program under test, so a change to
the program moves the reported timings exactly as it moves the measured
ones.  Most of its time goes to filling a 200,000-entry dict in fresh
memory: on the tuning host, that part followed the program's drift
best, while a mix led by cache-resident big-integer arithmetic followed
it worse than no scaling at all.  Each measurement runs in a new child
process, so that the table neither shows in the run's peak memory nor
changes the program's heap.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time

#: Seconds the calibration takes at the reference speed: close to its
#: time on a shared 2-core Intel Xeon VM at 2.1 GHz under Python 3.11,
#: where it measured 0.40 to 0.55 s.
REFERENCE_S = 0.45

_MODULUS = (1 << 2048) - 1942289


def work() -> int:
    """The calibration's work; the result only keeps it from being skipped."""
    table = {}
    for i in range(200_000):
        key = f"k{i}"
        table[key] = (i, [i, key])
    total = sum(value[0] for value in table.values())
    del table
    digest = bytes(64)
    for _ in range(100_000):
        digest = hashlib.sha256(digest).digest()
    power = 3
    for i in range(60):
        power = pow(power + i, 65537 * 1000003, _MODULUS)
    spin = 0
    for i in range(500_000):
        spin += i * i % 7
    return total ^ spin ^ (power & 0xFFFF) ^ digest[0]


def _time_work() -> float:
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def measure() -> float:
    """Seconds one run of :func:`work` takes now, in a new child process."""
    completed = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(completed.stdout)


if __name__ == "__main__":
    print(repr(_time_work()))


__all__ = ["REFERENCE_S", "measure", "work"]
