"""Experiment harness: one module per paper table/figure.

* :mod:`repro.experiments.table1` — the parameter table;
* :mod:`repro.experiments.fig6` — frequency of dispatches;
* :mod:`repro.experiments.fig7` — policy throughput comparison;
* :mod:`repro.experiments.fig8` — memory-fraction sweep;
* :mod:`repro.experiments.fig9` — per-enhancement ablation;
* :mod:`repro.experiments.report` — run everything.
"""

from .charts import bar_chart, grouped_bar_chart, sparkline
from .common import (
    FULL,
    QUICK,
    ExperimentScale,
    format_table,
    gain,
    loaded_workload,
    run_comparison,
)
from .fig6 import Fig6Row, run_fig6
from .fig7 import Fig7Row, run_fig7, run_fig7_backend_sweep
from .fig8 import Fig8Row, run_fig8
from .fig9 import Fig9Row, run_fig9
from .report import run_all
from .runner import Cell, CellResult, run_grid
from .table1 import run_table1

__all__ = [
    "bar_chart", "grouped_bar_chart", "sparkline",
    "FULL", "QUICK", "ExperimentScale", "format_table", "gain",
    "loaded_workload", "run_comparison",
    "Cell", "CellResult", "run_grid",
    "Fig6Row", "run_fig6",
    "Fig7Row", "run_fig7", "run_fig7_backend_sweep",
    "Fig8Row", "run_fig8",
    "Fig9Row", "run_fig9",
    "run_all", "run_table1",
]
