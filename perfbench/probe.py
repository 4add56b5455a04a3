"""Set-up probe: import ``symlab`` and build one workload's models and specs.

Run as ``python3 perfbench/probe.py <workload>`` by ``run.py``, which times a
fresh process from start until this script prints ``ready``.
"""

import sys

from checkout import load_symlab

load_symlab()

import workloads  # noqa: E402  (needs the checkout's src on sys.path)

workloads.WORKLOADS[sys.argv[1]]()
print("ready", flush=True)
