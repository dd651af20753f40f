"""Direct calls into single layers at the sizes the ROADMAP baseline quotes.

Inputs are drifted Brownian clouds xi(t) = sqrt(2) B(t) - t on [0, 1] at
step 1/512 (m = 513), the shape the window estimators feed to the EWV.  A
probe whose function no longer exists reports 0 and is listed as missing.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

import gpextremes.orthants as orthants
import gpextremes.sampling as sampling

STEP = 1.0 / 512.0
M = 513
N3_CLOUDS = 20  # the ROADMAP quotes R = 200 (6.8 s); 20 keeps the traced run short

# name -> the size it measures, recorded beside the value in the result file
SIZES = {
    "sampling.probe_fgn_k1_ms": "FgnSampler(kappa=1).increments, 2048 x 512",
    "sampling.probe_fgn_k15_ms": "FgnSampler(kappa=1.5).increments, 2048 x 512",
    "orthants.probe_ewv_n2_ms": "ewv_batch, R=2048, m=513, n=2 (exact staircase)",
    "orthants.probe_ewv_n3_ms": f"ewv_batch, R={N3_CLOUDS}, m=513, n=3 (MC fallback, budget 2048)",
    "orthants.probe_pareto_ms": "_pareto_mask, one cloud, m=513, n=3",
}


def _clouds(gen, R, n):
    t = STEP * np.arange(M)
    inc = np.sqrt(STEP) * gen.standard_normal((R, M - 1, n))
    paths = np.concatenate([np.zeros((R, 1, n)), np.cumsum(inc, axis=1)], axis=1)
    return np.sqrt(2.0) * paths - t[None, :, None]


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def run_probes(seed: int):
    """({probe name: median milliseconds}, [missing functions])."""
    gen = np.random.default_rng(seed)
    cloud2 = _clouds(gen, 2048, 2)
    cloud3 = _clouds(gen, N3_CLOUDS, 3)
    fgn = getattr(sampling, "FgnSampler", None)
    ewv = getattr(orthants, "ewv_batch", None)
    pareto = getattr(orthants, "_pareto_mask", None)
    calls = {
        "sampling.probe_fgn_k1_ms": (fgn, lambda: fgn1.increments(2048, gen), 5),
        "sampling.probe_fgn_k15_ms": (fgn, lambda: fgn15.increments(2048, gen), 5),
        "orthants.probe_ewv_n2_ms": (ewv, lambda: ewv(cloud2), 5),
        "orthants.probe_ewv_n3_ms": (ewv, lambda: ewv(cloud3, gen=gen), 1),
        "orthants.probe_pareto_ms": (pareto, lambda: pareto(cloud3[0]), 5),
    }
    if fgn is not None:
        fgn1 = fgn(1.0, STEP, M - 1)
        fgn15 = fgn(1.5, STEP, M - 1)
    out, missing = {}, []
    for name, (fn, call, reps) in calls.items():
        if fn is None:
            missing.append(name)
            out[name] = 0.0
        else:
            out[name] = _median_ms(call, reps)
    return out, missing
