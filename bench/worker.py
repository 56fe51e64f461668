"""One workload process: validates the inputs, warms up, then runs rounds
of ``driftscope sweep`` through ``driftscope.cli.main`` for a fixed time.

    python3 worker.py PLAN.json

PLAN.json names the sweeps of one round, the warm-up sweep, the seconds
to measure, whether to trace, and where to write the result.  The
result holds every sweep's exit code, wall time (also rescaled to the
reference speed by ``speed.SpeedSampler``), output digests and messages,
the process's peak RSS and the machine facts.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import driftscope.cli as cli
from speed import SpeedSampler, scaled

MIN_ROUNDS = 2


def _call(argv) -> tuple[object, str, str]:
    """Run the CLI in-process; a crash is reported, not raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:
            code = "exception"
            err.write(traceback.format_exc(limit=3))
    return code, out.getvalue(), err.getvalue()


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _blas_threads() -> int | None:
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    cases = plan["cases"]
    validation = []
    for case in cases:
        code, _, err = _call(["validate", "--descriptor", case["descriptor"], "--data", case["data"]])
        validation.append({"label": case["label"], "code": code, "message": err.strip()})
    valid = [c for c, v in zip(cases, validation) if v["code"] == 0]
    _call(plan["warmup"])

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    first_digest = {}
    rounds = []
    began = perf_counter()
    last = 0.0
    while len(rounds) < MIN_ROUNDS or perf_counter() - began + last <= plan["seconds"]:
        if tracer is not None and rounds:
            tracer.next_round()
        round_began = perf_counter()
        sweeps = []
        for case in valid:
            out = Path(case["out"])
            with SpeedSampler() as sampler:
                t0 = perf_counter()
                code, stdout, stderr = _call([*case["argv"], "--out", str(out)])
                seconds = perf_counter() - t0
            digest = None
            if code == 0:
                digest = [_digest(out / "curves.csv"), _digest(out / "verdicts.json")]
            first = first_digest.setdefault(case["label"], digest)
            sweeps.append({
                "label": case["label"], "code": code, "seconds": seconds,
                "loop_s": sampler.loop_s(), "scaled_seconds": scaled(seconds, sampler.loop_s()),
                "stdout": stdout.strip(), "message": stderr.strip(), "digest": digest,
                "repeatable": digest == first,
                "bytes_written": sum(p.stat().st_size for p in out.iterdir()) if code == 0 else 0,
            })
        rounds.append({"sweeps": sweeps})
        last = perf_counter() - round_began

    result = {
        "machine": machine(),
        "validation": validation,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(plan["spans"])
        for r, layers in zip(rounds, tracer.rounds()):
            r["layers"] = layers
        result["absent"] = tracer.absent
    Path(plan["result"]).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
