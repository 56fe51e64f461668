# Command-line surface.  Exit codes are a stable contract:
#   0 success, 1 usage error, 2 input validation failure,
#   3 computation (sweep) failure.

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import AnalysisConfig, SweepCell, SweepError, run_sweep, summarize
from .datasets import (
    BUILTIN_NAMES,
    DataError,
    DatasetDescriptor,
    SynthConfig,
    builtin_descriptor,
    load_dataset,
    synthesize,
    write_csv,
)
from .kernels import Granularity, KernelKind, grid_size, min_bandwidth

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3

CURVE_COLUMNS = [
    "dataset", "split", "kernel", "bandwidth",
    "re_train_nu", "re_test_nu", "re_train_u", "re_test_u",
]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_descriptor(name_or_path: str) -> DatasetDescriptor:
    if name_or_path.lower() in BUILTIN_NAMES:
        return builtin_descriptor(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise DataError(
            f"{name_or_path!r} is neither a built-in descriptor "
            f"({', '.join(BUILTIN_NAMES)}) nor a descriptor file"
        )
    return DatasetDescriptor.from_json(path.read_text(encoding="utf-8"))


def _parse_kernels(text: str) -> tuple[KernelKind, ...]:
    kinds = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            kind = KernelKind(part)
        except ValueError:
            raise _UsageError(
                f"unknown kernel {part!r}; choose from "
                + ", ".join(k.value for k in KernelKind)
            ) from None
        if kind in kinds:
            raise _UsageError(f"kernel {part!r} given twice")
        kinds.append(kind)
    if not kinds:
        raise _UsageError("no kernels given")
    return tuple(kinds)


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
        grid_size(lo, hi, step)  # the grid rules, before any value is made
    except ValueError as exc:
        raise _UsageError(f"bad --grid: {exc}") from None
    return lo, hi, step


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest(descriptor: DatasetDescriptor, result, input_bytes: bytes) -> dict:
    config = result.config
    return {
        "tool": "driftscope",
        "version": __version__,
        "descriptor_digest": _digest(descriptor.to_json().encode()),
        "input_digest": _digest(input_bytes),
        "config": {
            "epsilon": config.epsilon,
            "theta": config.theta,
            "grid": f"{config.grid_lo:g}:{config.grid_hi:g}:{config.grid_step:g}",
            "kernels": [k.value for k in result.grids],
            "overrides": list(descriptor.overrides) if descriptor.overrides else None,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


# --- commands --------------------------------------------------------------


def cmd_describe(args) -> int:
    descriptor = _resolve_descriptor(args.descriptor)
    print(f"dataset:     {descriptor.name}")
    print(f"granularity: {descriptor.granularity.value}")
    print(f"chronology:  {descriptor.chronology.value}")
    print(f"formula:     {descriptor.formula.describe()}")
    print(f"columns:     {json.dumps(descriptor.columns)}")
    if descriptor.filters:
        print(f"filters:     {json.dumps(list(descriptor.filters))}")
    if descriptor.derived_products:
        for name, sources in descriptor.derived_products.items():
            print(f"derived:     {name} = product({', '.join(sources)})")
    if descriptor.overrides:
        print(f"overrides:   {list(descriptor.overrides)}")
    if descriptor.expected_rows is not None:
        print(f"expected:    {descriptor.expected_rows} rows after filtering")
    print("grid rules:  finite-support kernels start above the dataset's")
    print("             elapsed span; e.g. minimum admissible bandwidths for")
    for kind in (KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR):
        b = min_bandwidth(kind, 16.0, 1.0)
        print(f"             a 16-period span: {kind.value} >= {b:g}")
    return 0


def cmd_validate(args) -> int:
    descriptor = _resolve_descriptor(args.descriptor)
    dataset = load_dataset(descriptor, args.data)
    first, last = int(dataset.keys.min()), int(dataset.keys.max())
    if descriptor.granularity is Granularity.MONTHLY:  # absolute month numbers
        first, last = (f"{k // 12}-{k % 12 + 1:02d}" for k in (first, last))
    print(f"{descriptor.name}: {len(dataset.records)} records, {first} .. {last}")
    return 0


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _curves_text(result) -> str:
    """curves.csv, written one (split, kernel) block at a time.  The bytes
    are those of ``csv.writer`` row by row; only the dataset name can need
    quoting, since int, kernel and float reprs never do."""
    name = _csv_field(result.dataset)
    bandwidths = {
        kind: [repr(b) for b in grid] for kind, grid in result.grids.items()
    }
    blocks = [",".join(CURVE_COLUMNS) + "\r\n"]
    for curve in result.curves.values():
        head = f"{name},{curve.split},{curve.kernel.value},"
        train_u = repr(curve.re_train_u)
        if curve.re_test_nu is None:
            rows = (
                f"{head}{b},{train_nu!r},,{train_u},\r\n"
                for b, train_nu in zip(bandwidths[curve.kernel], curve.re_train_nu)
            )
        else:
            test_u = repr(curve.re_test_u)
            rows = (
                f"{head}{b},{train_nu!r},{test_nu!r},{train_u},{test_u}\r\n"
                for b, train_nu, test_nu in zip(
                    bandwidths[curve.kernel], curve.re_train_nu, curve.re_test_nu
                )
            )
        blocks.append("".join(rows))
    return "".join(blocks)


def read_curves(path) -> list[SweepCell]:
    """Parse a curves.csv back into sweep cells (exact round trip)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CURVE_COLUMNS:
            raise DataError(f"unexpected curve columns: {reader.fieldnames}")
        cells = []
        for row in reader:
            if None in row:  # DictReader's key for fields past the header's
                raise DataError(
                    f"{path}, line {reader.line_num}: "
                    f"{len(CURVE_COLUMNS) + len(row[None])} fields, the header has "
                    f"{len(CURVE_COLUMNS)}"
                )
            try:
                cells.append(
                    SweepCell(
                        split=int(row["split"]),
                        kernel=KernelKind(row["kernel"]),
                        bandwidth=float(row["bandwidth"]),
                        re_train_nu=float(row["re_train_nu"]),
                        re_test_nu=float(row["re_test_nu"]) if row["re_test_nu"] else None,
                        re_train_u=float(row["re_train_u"]),
                        re_test_u=float(row["re_test_u"]) if row["re_test_u"] else None,
                    )
                )
            except (TypeError, ValueError) as exc:  # a bad field, or a short row's None
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return cells


def cmd_sweep(args) -> int:
    descriptor = _resolve_descriptor(args.descriptor)
    if args.overrides:
        try:
            overrides = tuple(int(p) for p in args.overrides.split(","))
        except ValueError:
            raise _UsageError(f"bad overrides {args.overrides!r}") from None
        descriptor = dataclasses.replace(descriptor, overrides=overrides)
    lo, hi, step = _parse_grid(args.grid)
    try:
        config = AnalysisConfig(
            epsilon=args.epsilon, theta=args.theta, grid_lo=lo, grid_hi=hi, grid_step=step
        )
    except ValueError as exc:
        raise _UsageError(exc) from None
    kernels = _parse_kernels(args.kernels)

    # one read: the manifest's digest describes the very bytes analyzed
    input_bytes = Path(args.data).read_bytes()
    text = io.StringIO(input_bytes.decode("utf-8"), newline="")
    dataset = load_dataset(descriptor, text)
    result = run_sweep(dataset, kernels, config)
    summary = summarize(result)

    out = Path(args.out)
    _atomic_write(out / "curves.csv", _curves_text(result))
    verdicts = {
        f"{v.split}:{v.kernel.value}": {
            "classification": v.classification.value,
            "bandwidth": v.convergence.bandwidth if v.convergence else None,
            # null beside a bandwidth: the kernel never decays (uniform)
            "horizon": None if v.horizon in (None, math.inf) else v.horizon,
            "span": v.train_span,
        }
        for v in summary.verdicts
    }
    doc = {
        "dataset": result.dataset,
        "kernel_agreement": summary.kernel_agreement,
        "verdicts": verdicts,
    }
    _atomic_write(out / "verdicts.json", json.dumps(doc, indent=2) + "\n")
    manifest = _manifest(descriptor, result, input_bytes)
    _atomic_write(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(
        f"{result.dataset}: {len(result.plan.splits)} splits, "
        f"{sum(len(c.bandwidths) for c in result.curves.values())} cells -> {out}"
    )
    return 0


_PALETTE = {
    "train": "#d62728",
    "test": "#1f77b4",
    "train global": "#2ca02c",
    "test global": "#9467bd",
}


def _svg_chart(series: dict, title: str) -> str:
    """Minimal static SVG: relative error against bandwidth."""
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 40, 50
    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        f'stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">bandwidth</text>',
        f'<text x="16" y="{height / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2})">relative error</text>',
    ]
    for i, frac in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
        yv = y_lo + frac * (y_hi - y_lo)
        xv = x_lo + frac * (x_hi - x_lo)
        parts.append(
            f'<text x="{left - 6}" y="{sy(yv) + 4}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yv:.2f}</text>'
        )
        parts.append(
            f'<text x="{sx(xv)}" y="{height - bottom + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{xv:g}</text>'
        )
    legend_y = top
    for label, pts in series.items():
        color = _PALETTE[label]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        parts.append(
            f'<line x1="{width - right - 120}" y1="{legend_y}" '
            f'x2="{width - right - 96}" y2="{legend_y}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - right - 90}" y="{legend_y + 4}" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    cells = read_curves(args.curves)
    try:
        kind = KernelKind(args.kernel.lower())
    except ValueError:
        raise _UsageError(f"unknown kernel {args.kernel!r}") from None
    slice_ = [c for c in cells if c.split == args.split and c.kernel == kind]
    if not slice_:
        raise DataError(
            f"no rows for split {args.split}, kernel {kind.value} in {args.curves}"
        )
    series = {
        "train": [(c.bandwidth, c.re_train_nu) for c in slice_],
        "train global": [(c.bandwidth, c.re_train_u) for c in slice_],
    }
    if slice_[0].re_test_nu is not None:
        series["test"] = [(c.bandwidth, c.re_test_nu) for c in slice_]
        series["test global"] = [(c.bandwidth, c.re_test_u) for c in slice_]
    title = f"split {args.split}, {kind.value} kernel"
    _atomic_write(Path(args.out), _svg_chart(series, title))
    print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    if args.config:
        config = SynthConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    else:
        config = SynthConfig()
    if args.seed is not None:
        config = SynthConfig(**{**config.__dict__, "seed": args.seed})
    dataset = synthesize(config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(dataset, out)
    descriptor_path = out.with_suffix(".descriptor.json")
    _atomic_write(descriptor_path, dataset.descriptor.to_json() + "\n")
    print(f"wrote {out} and {descriptor_path} ({len(dataset.records)} records)")
    return 0


# --- entry point -----------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="driftscope", description="Stationarity analysis for chronological effort datasets")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="show a descriptor's schema and formula")
    p.add_argument("descriptor", help="built-in name or descriptor JSON path")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("validate", help="load and validate a CSV against a descriptor")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="run the bandwidth sweep and write curves + verdicts")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kernels", default="gaussian,epanechnikov,triangular")
    p.add_argument("--grid", default="1:100:1", help="lo:hi:step")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--overrides", default=None, help="comma list of training sizes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="render one (split, kernel) slice as SVG")
    p.add_argument("--curves", required=True)
    p.add_argument("--split", type=int, required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--config", default=None, help="SynthConfig JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"driftscope: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError, json.JSONDecodeError) as exc:
        print(f"driftscope: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SweepError, ValueError, RuntimeError) as exc:
        print(f"driftscope: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
