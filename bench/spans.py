"""Spans around calls into driftscope's modules, recorded from outside the
package: each wrapper is installed where callers look the name up, so
nothing inside ``src/`` is instrumented.

Spans (name, parent, start, end, round) stay in memory as flat arrays and
are written once, at the end; self times are derived from them.  A
wrapped function a later version no longer has is reported as absent.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _design_rows(counts, result):
    counts["stats.build_design_matrix.rows"] += result.matrix.shape[0]


def _plan_rows(counts, result):
    counts["chronology.splits"] += len(result.splits)
    counts["chronology.train_rows"] += sum(len(s.train_ids) for s in result.splits)
    counts["chronology.test_rows"] += sum(len(s.test_ids) for s in result.splits)


# (module the caller looks the name up in, attribute, span name, counter)
TARGETS = (
    ("cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("cli", "load_dataset", "datasets.load_dataset",
     lambda c, r: c.update({"datasets.load_dataset.rows": len(r.records)})),
    ("cli", "run_sweep", "analysis.run_sweep",
     lambda c, r: c.update({"analysis.cells": len(r.cells)})),
    ("cli", "summarize", "analysis.summarize",
     lambda c, r: c.update({"analysis.verdicts": len(r.verdicts)})),
    ("analysis", "build_split_plan", "chronology.build_split_plan", _plan_rows),
    ("analysis", "weights_for_target", "kernels.weights_for_target",
     lambda c, r: c.update({"kernels.weights": len(r)})),
    ("stats", "build_design_matrix", "stats.build_design_matrix", _design_rows),
    ("stats", "weighted_least_squares", "stats.weighted_least_squares", None),
    ("stats", "predict", "stats.predict", None),
    ("stats", "relative_error", "stats.relative_error", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: list[Counter] = [Counter()]
        self.absent: list[str] = []  # span or counter names that could not be recorded
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span, counter in TARGETS:
            try:
                module = importlib.import_module(f"driftscope.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            self.names.append(span)
            setattr(module, attr, self._wrap(original, len(self.names) - 1, counter))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def next_round(self) -> None:
        self.counts.append(Counter())

    def _wrap(self, fn, name_id: int, counter):
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.round.append(len(self.counts) - 1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    counter(self.counts[-1], result)
                except (AttributeError, TypeError):
                    self.absent.append(f"counter of {self.names[name_id]}")
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), round=np.asarray(self.round),
            start=np.asarray(self.start), end=np.asarray(self.end),
        )

    def rounds(self) -> list[dict]:
        """Per round: total seconds, self seconds and calls of every span
        name, plus the round's counters.  A span's self time is its
        duration minus that of its direct children."""
        n_names, n_rounds = len(self.names), len(self.counts)
        name_id = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        key = np.asarray(self.round) * n_names + name_id
        size = n_rounds * n_names
        total = np.bincount(key, weights=dur, minlength=size).reshape(n_rounds, n_names)
        self_s = np.bincount(key, weights=dur - children, minlength=size).reshape(n_rounds, n_names)
        calls = np.bincount(key, minlength=size).reshape(n_rounds, n_names)
        out = []
        for r in range(n_rounds):
            layer = dict(self.counts[r])
            for j, name in enumerate(self.names):
                layer[f"{name}.s"] = float(total[r, j])
                layer[f"{name}.self_s"] = float(self_s[r, j])
                layer[f"{name}.calls"] = int(calls[r, j])
            out.append(layer)
        return out
