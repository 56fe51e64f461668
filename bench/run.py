"""Benchmark of ``driftscope sweep``: seeded inputs, a timed run through
``driftscope.cli.main``, an independent output check, and the metrics.

    python3 bench/run.py --workload long-history --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` one worker process runs rounds of sweeps for
``--seconds`` and the end-to-end metrics are reported.  With ``--trace 1``
an untraced and a traced worker each run for half the time, and the
per-layer metrics come from spans taken around calls into each module.

Every time reported is rescaled to the reference machine speed measured
by ``speed.SpeedSampler`` during that very measurement; the raw wall
times are printed beside them.  Every
figure is also written, with its quartiles and sample count and the
machine facts, to ``.bench_work/<workload>/result.json``.  The last line
of standard output is one JSON object: correct, attempted, failed and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads
from speed import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11

END_TO_END = {
    "sweep_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "fraction",
}
# Per-layer metrics read from the traced rounds.
LAYERS = (
    "kernels.weights_for_target.s", "kernels.weights_for_target.calls", "kernels.weights",
    "stats.relative_error.s", "stats.relative_error.calls",
    "stats.predict.s", "stats.predict.calls",
    "stats.weighted_least_squares.s", "stats.weighted_least_squares.calls",
    "stats.build_design_matrix.s", "stats.build_design_matrix.calls",
    "stats.build_design_matrix.rows",
    "datasets.load_dataset.s", "datasets.load_dataset.rows",
    "chronology.build_split_plan.s", "chronology.splits",
    "chronology.train_rows", "chronology.test_rows",
    "analysis.run_sweep.s", "analysis.run_sweep.self_s", "analysis.cells",
    "analysis.summarize.s", "analysis.verdicts",
    "cli.cmd_sweep.s", "cli.cmd_sweep.self_s", "cli.bytes_written",
)
# Self times that together cover a traced sweep, for the share table.
SHARES = (
    "kernels.weights_for_target", "stats.relative_error", "stats.predict",
    "stats.weighted_least_squares", "stats.build_design_matrix", "datasets.load_dataset",
    "chronology.build_split_plan", "analysis.summarize", "analysis.run_sweep", "cli.cmd_sweep",
)


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "cli.bytes_written":
        return "bytes"
    if name.endswith(("_per_cell", "_per_record")):
        return "ratio"
    return "count"


def _stats(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


SETUP_CODE = f"""
import sys, time
sys.path.append({str(HERE)!r})
from speed import SpeedSampler
with SpeedSampler() as speed:
    import driftscope.cli
    done = time.monotonic()
print(repr(done), repr(speed.loop_s()))
"""


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until ``import
    driftscope.cli`` returns, raw and at the reference speed; the first,
    cache-filling start is dropped."""
    wall, rescaled = [], []
    for _ in range(SETUP_SAMPLES + 1):
        began = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        finished, loop_s = done.stdout.split()[-2:]
        seconds = float(finished) - began
        wall.append(seconds)
        rescaled.append(scaled(seconds, None if loop_s == "None" else float(loop_s)))
    return wall[1:], rescaled[1:]


def run_worker(cases, warmup, work: Path, tag: str, seconds: float, trace: bool, env) -> dict:
    plan = {
        "cases": [{"label": c.label, "argv": list(c.argv), "descriptor": c.descriptor,
                   "data": c.data, "out": str(work / f"out-{tag}" / c.label)} for c in cases],
        "warmup": [*warmup, "--out", str(work / "out-warmup")],
        "seconds": seconds,
        "trace": trace,
        "result": str(work / f"worker-{tag}.json"),
        "spans": str(work / f"spans-{tag}.npz"),
    }
    plan_path = work / f"plan-{tag}.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)], env=env,
                   cwd=ROOT, check=True, timeout=seconds + 60)
    result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    result["outs"] = {c["label"]: Path(c["out"]) for c in plan["cases"]}
    return result


def check_outputs(cases, result, seed: int) -> dict:
    """Check each case's first successful output against the reference."""
    checks = {}
    for i, case in enumerate(cases):
        done = [s for r in result["rounds"] for s in r["sweeps"]
                if s["label"] == case.label and s["code"] == 0]
        if not done:
            continue
        out = result["outs"][case.label]
        found = re.search(r"(\d+) cells", done[0]["stdout"])
        problems, figures = reference.check(
            case.spec, out, int(found.group(1)) if found else None,
            np.random.default_rng([seed, 100 + i]))
        with open(out / "curves.csv", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        checks[case.label] = {"problems": problems, "rows": rows, **figures}
    return checks


def tally(results, checks) -> tuple[list[dict], list[dict]]:
    """Per-sweep outcome, and the failures grouped by case and reason."""
    outcomes, failures = [], {}
    for result in results:
        for v in result["validation"]:
            if v["code"] != 0:
                key = (v["label"], f"validate exit {v['code']}")
                failures.setdefault(key, [v["message"], 0])[1] += len(result["rounds"])
        for r in result["rounds"]:
            for s in r["sweeps"]:
                check = checks.get(s["label"])
                reason = None
                if s["code"] != 0:
                    reason = (f"exit {s['code']}", s["message"])
                elif check is None:
                    reason = ("output check", "no untraced output to check against")
                elif check["problems"]:
                    reason = ("output check", "; ".join(check["problems"][:3]))
                elif not s["repeatable"]:
                    reason = ("output check", "outputs differ from the first round's")
                s["ok"] = reason is None
                outcomes.append(s)
                if reason:
                    failures.setdefault((s["label"], reason[0]), [reason[1], 0])[1] += 1
    grouped = [{"label": label, "reason": reason, "message": m, "count": n}
               for (label, reason), (m, n) in failures.items()]
    return outcomes, grouped


def sweep_metrics(result, checks, key: str) -> dict:
    """Per round: seconds (``key`` names raw or rescaled) of the mean
    successful sweep, and curve rows written per such second."""
    sweep_s, cells_per_s = [], []
    for r in result["rounds"]:
        ok = [s for s in r["sweeps"] if s["ok"]]
        if ok:
            seconds = sum(s[key] for s in ok)
            sweep_s.append(seconds / len(ok))
            cells_per_s.append(sum(checks[s["label"]]["rows"] for s in ok) / seconds)
    return {"sweep_s": sweep_s, "cells_per_s": cells_per_s}


def _round_seconds(result, key: str) -> list[float]:
    return [sum(s[key] for s in r["sweeps"]) for r in result["rounds"]]


def layer_metrics(untraced, traced) -> tuple[dict, list[str], list[dict]]:
    """Per-layer samples, one per traced round; span times are rescaled by
    the round's speed factor."""
    per_round = []
    for r, wall, rescaled in zip(traced["rounds"], _round_seconds(traced, "seconds"),
                                 _round_seconds(traced, "scaled_seconds")):
        layers = {k: v * rescaled / wall if k.endswith(("_s", ".s")) else v
                  for k, v in r["layers"].items()}
        layers["cli.bytes_written"] = sum(s["bytes_written"] for s in r["sweeps"])
        per_round.append(layers)
    samples = {name: [l[name] for l in per_round] for name in LAYERS if name in per_round[0]}
    absent = [name for name in LAYERS if name not in samples]
    for name, num, den in (
        ("stats.wls_per_cell", "stats.weighted_least_squares.calls", "analysis.cells"),
        ("stats.design_rows_per_record", "stats.build_design_matrix.rows",
         "datasets.load_dataset.rows"),
    ):
        if all(num in l and l.get(den) for l in per_round):
            samples[name] = [l[num] / l[den] for l in per_round]
        else:
            absent.append(name)
    samples["memory.peak_rss_mb"] = [traced["peak_rss_mb"]]
    samples["memory.untraced_peak_rss_mb"] = [untraced["peak_rss_mb"]]
    samples["trace.overhead_s"] = [
        statistics.median(_round_seconds(traced, "scaled_seconds"))
        - statistics.median(_round_seconds(untraced, "scaled_seconds"))]
    return samples, absent + traced.get("absent", []), per_round


def shares(per_round) -> list[tuple[str, float]]:
    """Median share of each layer's self time in the traced sweep time."""
    out = []
    for name in SHARES:
        key = f"{name}.self_s"
        rounds = [l for l in per_round if key in l and l.get("cli.cmd_sweep.s")]
        if rounds:
            out.append((name, statistics.median(l[key] / l["cli.cmd_sweep.s"] for l in rounds)))
    return sorted(out, key=lambda kv: -kv[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "driftscope" / "cli.py").is_file():
        print(f"bench: no driftscope sources under {src}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    cases = workloads.build(args.workload, args.seed, work / "inputs")
    warmup = workloads.warmup(work / "inputs")

    samples: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    if args.trace:
        untraced = run_worker(cases, warmup, work, "untraced", args.seconds / 2, False, env)
        traced = run_worker(cases, warmup, work, "traced", args.seconds / 2, True, env)
        results = [untraced, traced]
    else:
        wall["setup_s"], samples["setup_s"] = measure_setup(env)
        untraced = run_worker(cases, warmup, work, "untraced", args.seconds, False, env)
        results = [untraced]

    checks = check_outputs(cases, untraced, args.seed)
    outcomes, failures = tally(results, checks)
    mismatched = []
    if args.trace:
        first = {s["label"]: s["digest"] for r in untraced["rounds"] for s in r["sweeps"]}
        mismatched = sorted({s["label"] for r in traced["rounds"] for s in r["sweeps"]
                             if s["digest"] != first.get(s["label"])})
    attempted = len(outcomes) + sum(f["count"] for f in failures if f["reason"].startswith("validate"))
    failed = sum(not s["ok"] for s in outcomes) + attempted - len(outcomes)
    correct = not any(c["problems"] for c in checks.values()) and not mismatched

    if args.trace:
        layers, absent, per_round = layer_metrics(untraced, traced)
        samples.update(layers)
    else:
        samples.update(sweep_metrics(untraced, checks, "scaled_seconds"))
        wall.update(sweep_metrics(untraced, checks, "seconds"))
        samples["peak_rss_mb"] = [untraced["peak_rss_mb"]]
        samples["success_frac"] = [(attempted - failed) / attempted]
        absent = [name for name in END_TO_END if not samples.get(name)]
    wall["speed_sample_s"] = [s["loop_s"] for result in results for r in result["rounds"]
                              for s in r["sweeps"] if s["loop_s"]]
    summary = {name: _stats(v) for name, v in samples.items() if v}
    wall_summary = {name: _stats(v) for name, v in wall.items() if v}

    machine = untraced["machine"]
    about = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key in ("why", "stresses", "bypasses"):
        print(f"  {key}: {about[key]}")
    print(f"  machine: nproc {machine['nproc']} (usable {machine['cpus_usable']}), "
          f"python {machine['python']}, numpy {machine['numpy']}, blas {machine['blas']}, "
          f"blas threads {machine['blas_threads']}, env {machine['blas_env']}")
    print(f"  sweeps: {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.4f}")
    for f in failures:
        print(f"  FAILED {f['label']} x{f['count']}: {f['reason']}: {f['message']}")
    for label, c in checks.items():
        print(f"  check {label}: {c['rows']} curve rows, {c.get('cells_recomputed', 0)} cells "
              f"recomputed, worst RE rel diff {c.get('worst_re_rel_diff', float('nan')):.2e} "
              f"(tolerance {reference.RE_RTOL:g}), {len(c['problems'])} problems")
    if mismatched:
        print(f"  MISMATCH traced outputs differ from untraced for {', '.join(mismatched)}")
    print(f"  {'metric (times at reference speed)':<36}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for name, s in summary.items():
        print(f"  {name:<36}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>4}  {_unit(name)}")
    print("  raw wall-clock figures:")
    for name, s in wall_summary.items():
        print(f"  {name:<36}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>4}  {_unit(name)}")
    if args.trace:
        print("  self-time shares of the traced sweep:")
        for name, share in shares(per_round):
            print(f"    {name:<34}{100 * share:6.1f}%")
    for name in absent:
        print(f"  absent: {name}")

    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "dev_seed": workloads.DEV_SEED,
        "confirm_seed": workloads.CONFIRM_SEED, "machine": machine,
        "attempted": attempted, "failed": failed, "failures": failures, "checks": checks,
        "traced_outputs_identical": not mismatched, "metrics": summary, "wall": wall_summary,
        "units": {name: _unit(name) for name in summary}, "absent": absent,
    }, indent=1), encoding="utf-8")
    metrics = {name: {"value": s["median"], "unit": _unit(name)} for name, s in summary.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
