"""Host-speed calibration.

The benchmark's shared 2-vCPU host changes speed by up to about 1.8x over
seconds to minutes. The same code can take 0.9 s in one minute and 1.6 s in
the next. So the measured process runs a fixed calibration kernel right
before and right after every timed stage. That kernel is pure Python over
stdlib json, str, dict and blake2b, which is the pipeline's instruction
mix. Each stage's time is then scaled to a host running the kernel in
REF_S:

    normalized_s = measured_s * REF_S / mean(kernel_before_s, kernel_after_s)

On a host at its usual speed the factor is close to 1. Measured on such a
host (150 s of alternating index builds and featurize passes), it brought
the quartile spread of 15-second medians from 15% down to 1.6%. Raw times
are kept next to the normalized ones in every run's output.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

# the kernel's median time on the development host (Xeon, 2.1 GHz, Python 3.11)
REF_S = 0.005
REPS = 5

_DOC = " ".join(f"Word{i % 97} token{i % 13}" for i in range(240))
_RECORD = json.dumps(
    {"id": "a-00001", "text": _DOC[:200], "label": "fake", "spans": [{"start": i, "end": i + 4} for i in range(12)]}
)


def _kernel() -> int:
    counts: dict[str, int] = {}
    for _ in range(30):
        for tok in _DOC.casefold().split():
            counts[tok] = counts.get(tok, 0) + 1
        for _ in range(12):
            json.loads(_RECORD)
        for tok in list(counts)[:40]:
            hashlib.blake2b(tok.encode(), digest_size=8).digest()
    return len(sorted(counts, key=counts.get))


def calibrate() -> float:
    """Median time of REPS runs of the kernel, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalize(measured_s: float, calib_before: float, calib_after: float) -> float:
    return measured_s * REF_S / ((calib_before + calib_after) / 2)
