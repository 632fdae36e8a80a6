import subprocess
import sys
from pathlib import Path

import cyclebalance

SRC = Path(cyclebalance.__file__).resolve().parents[1]


def test_slow_imports_are_deferred():
    # only a download needs urllib.request and only a process pool
    # concurrent.futures: importing the package and its CLI loads neither
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import cyclebalance, cyclebalance.datasets, cyclebalance.cli\n"
            "print(sorted({'urllib.request', 'concurrent.futures'}"
            " & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], text=True,
                         capture_output=True, timeout=60, check=True).stdout
    assert out.split() == ["[]"]
