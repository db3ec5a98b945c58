"""Set-up time of one fresh interpreter: what every CLI command pays before
it solves.

    python3 perfbench/setup_probe.py GRAPH.gr

Times importing the CLI (and with it numpy), reading and parsing the DIMACS
file, and the connectivity check, from before the first import.  Prints
``{"setup_s", "scaled_setup_s", "connected"}``, the second at reference
speed (see ``reference.py``).
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import graphshrink.cli  # noqa: E402,F401
from graphshrink import parse_dimacs  # noqa: E402

connected = parse_dimacs(Path(sys.argv[1]).read_text()).unreachable_pair() is None
seconds = time.perf_counter() - _T0

import json  # noqa: E402

from reference import scaled, speed_sample  # noqa: E402

speed = speed_sample()
print(json.dumps({"setup_s": seconds, "connected": connected,
                  "scaled_setup_s": scaled(seconds, speed, speed)}))
