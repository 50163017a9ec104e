"""Run one CLI invocation with the per-layer tracer installed.

    PYTHONPATH=src python3 perfbench/clitrace.py OUT.json ARGV...

Behaves like `python -m adelicdyn ARGV...` (same stdout, stderr and exit
code) and writes the tracer's totals and spans to OUT.json on exit.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer

from adelicdyn.cli import main

if __name__ == "__main__":
    out_path = Path(sys.argv[1])
    sys.argv = ["adelicdyn", *sys.argv[2:]]
    tracer = Tracer(max_spans=2_000)
    tracer.install()
    try:
        main()
    finally:
        tracer.uninstall()
        out_path.write_text(
            json.dumps({"summary": tracer.summary(), "spans": tracer.spans})
        )
