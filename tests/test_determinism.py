"""The determinism contract across numpy's run-time SIMD targets.

numpy picks its kernels when it loads, and its AVX-512 float64 ``exp``
and ``log`` round differently from its other paths. So results are
byte-identical only for one (platform, numpy/scipy build, SIMD target).
Across targets every status, success count, p0_lower and radius must be
identical, every other float within ``ULPS`` ulps, and every standard
error within ``SE_ULPS`` (see the README's Determinism section).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath as _simd
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _simd

ULPS = 8
SE_ULPS = 1024
EXACT = {"p0_lower", "radius", "accuracy", "acc_se"}  # counts and what follows from them
STANDARD_ERRORS = {"std_error", "robustness_se"}
AVX512 = [f for f in _simd.__cpu_dispatch__ if "AVX512" in f or f == "X86_V4"]

# one small config per command and ray: l2 (l2_power_tail) and the linf
# vertex ray (mixed_norm), in process, at workers 2
_L2 = {"variant": "l2_power_tail", "dim": 8, "k": 2.0, "sigma": 1.0}
_MIXED = {"variant": "mixed_norm", "dim": 8, "k": 2.0, "sigma": 0.5}
_COMMON = {"seed": 11, "workers": 2, "counts": {"n1": 20_000, "n2": 20_000},
           "budget": {"alpha_total": 0.001}}
CONFIGS = {
    "certify-l2": {**_COMMON, "command": "certify", "family": _L2,
                   "threat": {"norm": "l2", "radius": 0.3},
                   "classifier": {"kind": "ball", "norm": "l2", "center": [0.0] * 8,
                                  "radius": 4.0},
                   "inputs": {"vectors": [[0.0] * 8, [1.5] + [0.0] * 7, [3.0] + [0.0] * 7]}},
    "certify-mixed": {**_COMMON, "command": "certify", "family": _MIXED,
                      "threat": {"norm": "linf", "radius": 0.02},
                      "classifier": {"kind": "ball", "norm": "linf", "center": [0.0] * 8,
                                     "radius": 1.2},
                      "inputs": {"vectors": [[0.0] * 8, [0.5] * 8]}},
    "radius-l2": {**_COMMON, "command": "radius", "family": _L2,
                  "search": {"norm": "l2", "r_max": 2.0},
                  "classifier": {"kind": "ball", "norm": "l2", "center": [0.0] * 8,
                                 "radius": 4.0},
                  "inputs": {"vectors": [[0.5] + [0.0] * 7]}},
    "radius-mixed": {**_COMMON, "command": "radius", "family": _MIXED,
                     "search": {"norm": "linf", "r_max": 0.2},
                     "classifier": {"kind": "ball", "norm": "linf", "center": [0.0] * 8,
                                    "radius": 1.2},
                     "inputs": {"vectors": [[0.0] * 8]}},
    "pareto": {"seed": 11, "workers": 2, "command": "pareto", "pareto": {
        "dim": 5, "n": 20_000, "threat": {"norm": "linf", "radius": 0.3},
        "grids": [{"variant": "mixed_norm", "k_values": [0.0, 3.0], "scale_values": [0.4, 2.0]},
                  {"variant": "l2_power_tail", "k_values": [0.0, 3.0],
                   "scale_values": [0.4, 2.0]}]}},
}

# runs every config through the CLI and prints the result.json bodies,
# out masked, with the SIMD targets this interpreter's numpy enabled
_RUNNER = """
import json, sys, tempfile
from pathlib import Path
from smoothcert.cli import run
try:
    from numpy._core import _multiarray_umath as simd
except ImportError:
    from numpy.core import _multiarray_umath as simd
bodies = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, cfg in json.loads(sys.argv[1]).items():
        out = Path(tmp) / name
        assert run({**cfg, "out": str(out)}) == 0, name
        body = json.loads((out / "result.json").read_text())
        body["config"].pop("out")
        bodies[name] = body
print(json.dumps({"enabled": [f for f, on in simd.__cpu_features__.items() if on],
                  "bodies": bodies}))
"""


def _run(disabled: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    done = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(CONFIGS)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def _ulps(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / float(np.spacing(max(abs(a), abs(b))))


def _compare(a, b, path, gaps):
    """Assert the contract between two result trees; collect each float's gap."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _compare(a[key], b[key], path + (key,), gaps)
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _compare(x, y, path + (i,), gaps)
    elif isinstance(a, float) and isinstance(b, float) and path[-1] not in EXACT:
        gap = _ulps(a, b)
        gaps.append((gap, path))
        assert gap <= (SE_ULPS if path[-1] in STANDARD_ERRORS else ULPS), (path, a, b)
    else:  # statuses, flags, ints, strings, null, and the exact floats
        assert a == b, (path, a, b)


@pytest.mark.skipif(
    not _simd.__cpu_features__.get("AVX512F") or not AVX512,
    reason="no AVX-512F on this host (or no AVX-512 kernels in this numpy): the default run and "
           "the run with AVX-512 disabled would take the same path, so there is nothing to compare",
)
def test_results_hold_the_contract_with_avx512_disabled():
    default, narrow = _run([]), _run(AVX512)
    assert set(AVX512) & set(default["enabled"])
    assert not set(AVX512) & set(narrow["enabled"])  # the second run took the other kernels
    gaps = []
    _compare(default["bodies"], narrow["bodies"], (), gaps)
    differing = sorted((g for g in gaps if g[0]), reverse=True)
    print(f"{len(differing)} of {len(gaps)} floats differ; largest gaps (ulps): "
          + ", ".join(f"{g:.0f} at {'/'.join(map(str, p))}" for g, p in differing[:5]))
