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
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import AnalysisConfig, Curve, SweepError, run_sweep, summarize
from .datasets import (
    BUILTIN_NAMES,
    DataError,
    DatasetDescriptor,
    SynthConfig,
    builtin_descriptor,
    csv_text,
    load_dataset,
    synthesize,
)
from .kernels import Granularity, KernelKind, grid_size, grid_text

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


def _read_text(path, parse=str):
    """``parse`` of input file ``path`` read as UTF-8 text (by default the
    text itself); undecodable bytes, or JSON that ``json.loads`` refuses
    (malformed, or an integer of more than 4300 digits), are an input
    error naming the file.  ``parse``'s own ``DataError`` passes
    unchanged."""
    try:
        return parse(Path(path).read_bytes().decode("utf-8"))
    except DataError:
        raise
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _resolve_descriptor(name_or_path: str) -> DatasetDescriptor:
    if name_or_path.lower() in BUILTIN_NAMES:
        return builtin_descriptor(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise DataError(
            f"{name_or_path!r} is neither a built-in descriptor "
            f"({', '.join(BUILTIN_NAMES)}) nor a descriptor file"
        )
    return _read_text(path, DatasetDescriptor.from_json)


def _kernel(name: str) -> KernelKind:
    """The kernel ``name`` names, read without case or surrounding blanks."""
    name = name.strip().lower()
    try:
        return KernelKind(name)
    except ValueError:
        raise _UsageError(
            f"unknown kernel {name!r}; choose from " + ", ".join(k.value for k in KernelKind)
        ) from None


def _parse_kernels(text: str) -> tuple[KernelKind, ...]:
    kinds = []
    for part in text.split(","):
        if not part.strip():
            continue
        kind = _kernel(part)
        if kind in kinds:
            raise _UsageError(f"kernel {kind.value!r} given twice")
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


def _grid_text(config: AnalysisConfig) -> str:
    return grid_text(config.grid_lo, config.grid_hi, config.grid_step)


def _atomic_write(path: Path, chunks) -> None:
    """Write the strings of iterable ``chunks`` to ``path``, whole or not
    at all: a failure, in writing or in making a chunk, leaves the
    previous file as it was and no temporary file beside it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # a new file under a random hidden name beside the target, created
    # 0o666 less the umask, as open() would create it
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest(descriptor: DatasetDescriptor, result, text: str) -> dict:
    config = result.config
    return {
        "tool": "driftscope",
        "version": __version__,
        "descriptor_digest": _digest(descriptor.to_json().encode()),
        # strict UTF-8 decoding is one-to-one: these are the file's bytes
        "input_digest": _digest(text.encode("utf-8")),
        "config": {
            "epsilon": config.epsilon,
            "theta": config.theta,
            "grid": _grid_text(config),
            "kernels": [k.value for k in result.curves],
            "overrides": list(descriptor.overrides) if descriptor.overrides else None,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


# --- commands --------------------------------------------------------------


def cmd_describe(args) -> int:
    # the text synth writes and from_json reads: copy it to make a descriptor
    print(_resolve_descriptor(args.descriptor).to_json())
    return 0


def cmd_validate(args) -> int:
    descriptor = _resolve_descriptor(args.descriptor)
    dataset = load_dataset(descriptor, _read_text(args.data))
    first, last = int(dataset.keys.min()), int(dataset.keys.max())
    if descriptor.granularity is Granularity.MONTHLY:  # absolute month numbers
        first, last = (f"{k // 12}-{k % 12 + 1:02d}" for k in (first, last))
    print(f"{descriptor.name}: {len(dataset.ids)} records, {first} .. {last}")
    return 0


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _curves_text(result):
    """Yield curves.csv: its header, then one block of text per (split,
    kernel), with empty test fields on the plan's final split.  The bytes
    are those of ``csv.writer`` row by row; only the dataset name can
    need quoting, since int, kernel and float reprs never do."""
    name = _csv_field(result.dataset)
    yield ",".join(CURVE_COLUMNS) + "\r\n"
    bandwidths = {kind: [repr(b) for b in c.bandwidths] for kind, c in result.curves.items()}
    for i, split in enumerate(result.plan.splits):
        for kind, c in result.curves.items():
            head = f"{name},{split.ordinal},{kind.value},"
            # Python floats: repr(np.float64(1.0)) is "np.float64(1.0)"
            train_u, test_u = c.re_train_u[i].item(), c.re_test_u[i].item()
            if split.is_final:
                tests, tail = [""] * len(c.bandwidths), f",{train_u!r},\r\n"
            else:
                tests, tail = map(repr, c.re_test_nu[i].tolist()), f",{train_u!r},{test_u!r}\r\n"
            rows = zip(bandwidths[kind], c.re_train_nu[i].tolist(), tests)
            yield "".join(f"{head}{b},{re!r},{test}{tail}" for b, re, test in rows)


def read_curves(path) -> dict:
    """Parse a curves.csv back into its curves, {KernelKind: Curve} as
    ``SweepResult.curves`` is (exact round trip).  Each kernel's splits
    must run 1, 2, ... in order, each on the bandwidths of its first, with
    test fields on every split but the last; the rows of one split must
    agree on its unweighted values."""
    rows = csv.reader(io.StringIO(_read_text(path), newline=""))
    if (header := next(rows, None)) != CURVE_COLUMNS:
        raise DataError(f"unexpected curve columns: {header}")
    splits = {}  # kernel -> per split: its first line, unweighted texts, rows' values
    for fields in filter(None, rows):  # blank lines skipped
        where = f"{path}, line {rows.line_num}"
        if len(fields) != len(CURVE_COLUMNS):
            raise DataError(f"{where}: {len(fields)} fields, the header has {len(CURVE_COLUMNS)}")
        _, split, kernel, bandwidth, train_nu, test_nu, train_u, test_u = fields
        try:
            split, kind = int(split), KernelKind(kernel)
            values = (
                float(bandwidth), float(train_nu), float(test_nu or "nan"),
                float(train_u), float(test_u or "nan"),
            )
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from None
        if bool(test_nu) != bool(test_u):
            raise DataError(f"{where}: re_test_nu and re_test_u must both be given or both be empty")
        seen = splits.setdefault(kind, [])
        if split == len(seen) + 1:
            seen.append((rows.line_num, (train_u, test_u), []))
        elif not seen or split != len(seen):
            raise DataError(f"{where}: split {split} of kernel {kernel} is out of order")
        if seen[-1][1] != (train_u, test_u):
            raise DataError(
                f"{where}: re_train_u and re_test_u differ from those of the first row "
                f"of split {split}, kernel {kernel}"
            )
        seen[-1][2].append(values)
    curves = {}
    for kind, seen in splits.items():
        bandwidths = [values[0] for values in seen[0][2]]
        for ordinal, (line, (_, test_u), block) in enumerate(seen, 1):
            where = f"{path}, line {line}: split {ordinal} of kernel {kind.value}"
            if not np.array_equal([values[0] for values in block], bandwidths, equal_nan=True):
                raise DataError(f"{where} has other bandwidths than split 1")
            if bool(test_u) == (ordinal == len(seen)):
                rule = (
                    "the last, so its test fields must be empty" if test_u
                    else "not the last, so its test fields must be given"
                )
                raise DataError(f"{where} is {rule}")
        table = np.array([block for *_, block in seen])  # [split, bandwidth, field]
        curves[kind] = Curve(
            tuple(bandwidths), table[..., 1], table[..., 2], table[:, 0, 3], table[:, 0, 4]
        )
    return curves


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

    # one read: the manifest's digest describes the very text analyzed
    text = _read_text(args.data)
    dataset = load_dataset(descriptor, text)
    result = run_sweep(dataset, kernels, config)
    summary = summarize(result)

    out = Path(args.out)
    _atomic_write(out / "curves.csv", _curves_text(result))
    verdicts = {
        f"{v.split}:{v.kernel.value}": {
            "classification": v.classification.value,
            "bandwidth": v.convergence.bandwidth if v.convergence else None,
            "horizon": v.horizon,
            "span": v.train_span,
        }
        for v in summary.verdicts
    }
    doc = {
        "dataset": result.dataset,
        "kernel_agreement": summary.kernel_agreement,
        "verdicts": verdicts,
    }
    _atomic_write(out / "verdicts.json", [json.dumps(doc, indent=2) + "\n"])
    manifest = _manifest(descriptor, result, text)
    _atomic_write(out / "manifest.json", [json.dumps(manifest, indent=2) + "\n"])
    print(
        f"{result.dataset}: {len(result.plan.splits)} splits, "
        f"{sum(c.re_train_nu.size for c in result.curves.values())} cells -> {out}"
    )
    return 0


_PALETTE = {
    "train": "#d62728",
    "test": "#1f77b4",
    "train global": "#2ca02c",
    "test global": "#9467bd",
}


def _svg_chart(bandwidths, series: dict, title: str) -> str:
    """Minimal static SVG: each series' relative errors against
    ``bandwidths``."""
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 40, 50
    ys = [y for values in series.values() for y in values]
    x_lo, x_hi = min(bandwidths), max(bandwidths)
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
    for label, values in series.items():
        color = _PALETTE[label]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(zip(bandwidths, values)))
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
    kind = _kernel(args.kernel)
    curve = read_curves(args.curves).get(kind)
    if curve is None or not 1 <= args.split <= len(curve.re_train_u):
        raise DataError(f"no rows for split {args.split}, kernel {kind.value} in {args.curves}")
    i, n = args.split - 1, len(curve.bandwidths)
    series = {"train": curve.re_train_nu[i], "train global": np.repeat(curve.re_train_u[i], n)}
    if args.split < len(curve.re_train_u):  # the last split has no test records
        series |= {"test": curve.re_test_nu[i], "test global": np.repeat(curve.re_test_u[i], n)}
    if not np.isfinite([curve.bandwidths, *series.values()]).all():
        raise DataError(
            f"split {args.split}, kernel {kind.value} in {args.curves} holds a "
            f"non-finite bandwidth or relative error, which cannot be plotted"
        )
    title = f"split {args.split}, {kind.value} kernel"
    _atomic_write(Path(args.out), [_svg_chart(curve.bandwidths, series, title)])
    print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    config = _read_text(args.config, SynthConfig.from_json) if args.config else SynthConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    dataset = synthesize(config)
    out = Path(args.out)
    _atomic_write(out, [csv_text(dataset)])
    descriptor_path = out.with_suffix(".descriptor.json")
    _atomic_write(descriptor_path, [dataset.descriptor.to_json() + "\n"])
    print(f"wrote {out} and {descriptor_path} ({len(dataset.ids)} records)")
    return 0


# --- entry point -----------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="driftscope", description="Stationarity analysis for chronological effort datasets")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print a descriptor as JSON")
    p.add_argument("descriptor", help="built-in name or descriptor JSON path")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("validate", help="load and validate a CSV against a descriptor")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_validate)

    defaults = AnalysisConfig()
    p = sub.add_parser("sweep", help="run the bandwidth sweep and write curves + verdicts")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kernels", default="gaussian,epanechnikov,triangular")
    p.add_argument("--grid", default=_grid_text(defaults), help="lo:hi:step")
    p.add_argument("--epsilon", type=float, default=defaults.epsilon)
    p.add_argument("--theta", type=float, default=defaults.theta)
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
    except (DataError, OSError, UnicodeError) as exc:
        print(f"driftscope: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SweepError, ValueError, RuntimeError) as exc:
        print(f"driftscope: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
