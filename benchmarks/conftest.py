"""Shared set-up for the benchmark harness."""

from __future__ import annotations

import os
import sys

# Allow running the benchmarks from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
