"""Shared pieces of the benchmark: environment pinning, workload configs, estimates.

Importing this module pins the BLAS/OpenMP thread pools to one thread and
puts the checkout's ``src`` directory on the import path, so it must be
imported before numpy or gpextremes.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS_FILE = BENCH_DIR / "workloads.json"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Set up this process and its children: one BLAS/OpenMP thread, src on the path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_workloads() -> dict:
    with open(WORKLOADS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def derive_seed(*parts) -> int:
    """63-bit master seed from the benchmark seed and a purpose tag; same parts, same seed."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def build_config(workload: dict, master_seed: int) -> dict:
    """The experiment tree the program sees: the workload's template plus a master seed."""
    tree = copy.deepcopy(workload["config"])
    tree["seed"] = int(master_seed)
    return tree


def estimates(records) -> dict:
    """{key: (value, se)} for every estimate row; ladder rungs are keyed by their S."""
    out = {}
    for rec in records:
        if rec.get("verdict") == "error" or rec.get("value") is None:
            continue
        key = rec["regime"]
        notes = rec.get("notes") or ""
        if notes.startswith("S="):
            key = f"{key}@{notes}"
        out[key] = (float(rec["value"]), float(rec["se"]) if rec.get("se") is not None else 0.0)
    return out


def pool(samples) -> tuple:
    """Mean and standard error of the mean of equally sized independent estimates."""
    k = len(samples)
    mean = sum(v for v, _ in samples) / k
    se = math.sqrt(sum(s * s for _, s in samples)) / k
    return mean, se
