"""The repo's performance benchmark (see README.md in this directory).

Run it from the repository root::

    python3 -m benchmarks.perf.run [--workload W] [--seed N] [--traced]

The package puts the checkout's ``src/`` on ``sys.path`` itself, so the
command (and the server child process, which imports this package too)
needs no ``PYTHONPATH`` and always measures the source tree it sits in.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
