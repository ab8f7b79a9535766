"""Trace ``repro`` subprocesses started under a traced benchmark run.

The benchmark's tracer puts this directory on ``PYTHONPATH`` only for
the traced run, so the dispatcher's shard subprocesses install the same
per-layer wrappers as the tracer (see ``perfbench/layers.py``).
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers

    layers.install_in_subprocess()
