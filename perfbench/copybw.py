"""Sustainable copy bandwidth, the memory yardstick for the residual kernel.

    python3 perfbench/copybw.py

Copies one float64 array into another, each at least four times the
last-level cache, and prints one JSON object with both sizes and the median
bandwidth (bytes read plus bytes written, per second).  Runs in its own
process so the arrays never share an address space with a sample.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import time

import numpy as np

REPS = 7
FALLBACK_LLC = 32 * 2**20


def _parse_size(text: str) -> int:
    text = text.strip()
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def last_level_cache() -> tuple[int, str]:
    """(bytes, where it was read) of the highest-level cache of cpu0."""
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(f"{index}/level") as f:
                level = int(f.read())
            with open(f"{index}/size") as f:
                size = _parse_size(f.read())
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    if best is not None:
        return best[1], f"/sys cache index, level {best[0]}"
    size = os.sysconf("SC_LEVEL3_CACHE_SIZE") if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names else 0
    if size > 0:
        return size, "sysconf SC_LEVEL3_CACHE_SIZE"
    return FALLBACK_LLC, "not found; assumed 32 MiB"


def main() -> int:
    llc, source = last_level_cache()
    n = 4 * llc // 8
    src = np.ones(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault in every page before timing
    rates = []
    for _ in range(REPS):
        t = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t) / 1e9)
    print(json.dumps({
        "llc_bytes": llc,
        "llc_source": source,
        "array_bytes": src.nbytes,
        "copy_gbps": statistics.median(rates),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
