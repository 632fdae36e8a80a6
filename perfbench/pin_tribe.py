"""Regenerate the pinned 16-tribe census used by the tribe-null-L16 check.

The pins come from the brute-force oracle, not from the engine, so the
benchmark compares the engine against an independent count.  The oracle
takes a few minutes at L=16.  Run from the repository root:

    python3 perfbench/pin_tribe.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cyclebalance.datasets import load_gahuku_gama  # noqa: E402
from cyclebalance.oracle import brute_force_census  # noqa: E402

MAX_LENGTH = 16
PIN_FILE = HERE / "pins" / "tribe_L16.json"


def main() -> int:
    t0 = time.perf_counter()
    census = brute_force_census(load_gahuku_gama(), MAX_LENGTH)
    pins = {
        "source": "cyclebalance.oracle.brute_force_census(load_gahuku_gama(), 16)",
        "regenerate": "python3 perfbench/pin_tribe.py",
        "max_length": MAX_LENGTH,
        "positive": list(census.positive),
        "negative": list(census.negative),
    }
    PIN_FILE.write_text(json.dumps(pins) + "\n")
    print(f"wrote {PIN_FILE.name} in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
