"""Set-up as a user pays it: import gpextremes, then load one config and parse its processes.

Run in a fresh interpreter by run.py, which times the whole process.  The
processes go through the program's own parser, the one run_experiment uses.
Exits 0 when the config is valid.

    python3 perfbench/setup_probe.py CONFIG.json
"""
import sys

import gpextremes  # noqa: F401  (the import is part of the set-up being timed)
from gpextremes.experiments import _resolve_process, load_config

if __name__ == "__main__":
    tree = load_config(sys.argv[1])
    for name in tree.get("processes", {}):
        _resolve_process(tree, name, f"processes.{name}")
