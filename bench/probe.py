"""Set-up probe: import `mudal`, build one workload's config and dataset, exit.

`run.py` times fresh interpreters running this file for `setup_s`, so it
imports nothing else.

    python3 bench/probe.py <workload> <seed>
"""
import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from mudal import harness
    from workloads import WORKLOADS

    harness.build_dataset(WORKLOADS[sys.argv[1]].config(int(sys.argv[2])))
