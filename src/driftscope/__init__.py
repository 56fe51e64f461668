"""Stationarity analysis for chronologically ordered software-project
datasets: kernel-weighted regression over accumulating training sets,
bandwidth sweeps, and per-split stationarity verdicts."""

__version__ = "0.1.0"
