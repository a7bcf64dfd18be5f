"""Parallel experiment runner: declarative cell grids over shared models.

Every figure experiment is a grid of independent simulation runs —
(workload × policy × n_backends × cache-fraction × seed).  This module
executes such grids with two structural guarantees:

1. **One mining pass per workload.**  The offline web-log mining
   (dependency graph, bundle table, rank table) is a pure function of
   the training log and the mining parameters, so the runner mines once
   per distinct workload in the grid (:class:`~repro.core.system.MinedModels`)
   and stamps cheap per-run state (:meth:`MinedModels.runtime`) for each
   cell, instead of re-mining inside every policy run.
2. **Parallel ≡ serial.**  Cells share no mutable state: each one gets
   a private deep-copied navigation model and a fresh simulator, so a
   :class:`concurrent.futures.ProcessPoolExecutor` fan-out produces
   results bit-identical to the in-process loop (``jobs=0``), in cell
   order.

The grid also records per-cell wall-clock (``CellResult.wall_clock_s``),
which :func:`~repro.obs.manifest.build_manifest` stores in the run
manifest.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..core.config import SimulationParams
from ..core.system import (
    MINING_POLICY_NAMES,
    MinedModels,
    run_policy,
)
from ..logs.workloads import Workload
from ..mining.modelcache import ModelCache, cached_mine_models
from ..sim.cluster import SimulationResult
from .common import ExperimentScale, loaded_workload

__all__ = [
    "Cell",
    "CellResult",
    "run_grid",
    "resolve_jobs",
]


@dataclass(frozen=True, slots=True)
class Cell:
    """One point of an experiment grid.

    ``None`` fields fall back to the scale's defaults at execution time
    (``n_backends``/``cache_fraction``) or to the workload preset's base
    seed (``seed_offset``); ``seed_offset=0`` explicitly requests the
    base seed.
    """

    workload: str
    policy: str
    n_backends: int | None = None
    cache_fraction: float | None = None
    seed_offset: int | None = None

    @property
    def workload_key(self) -> tuple[str, int | None]:
        """Cells sharing this key share one workload + mining pass."""
        return (self.workload, self.seed_offset)


@dataclass(frozen=True, slots=True)
class CellResult:
    """One executed cell: spec, resolved knobs, result, and timing."""

    cell: Cell
    result: SimulationResult
    #: resolved cache fraction (the cell's, or the scale default)
    cache_fraction: float
    #: simulation wall-clock for this cell (per-run state + run), seconds
    wall_clock_s: float


@dataclass(slots=True)
class _GridContext:
    """Everything a worker needs: immutable inputs, shipped once."""

    scale: ExperimentScale
    base_params: SimulationParams | None
    entries: dict[tuple[str, int | None],
                  tuple[Workload, MinedModels | None]]
    #: attach a strict SimulationAuditor to every cell's run
    audit: bool = False
    #: attach a Telemetry recorder to every cell's run
    telemetry: bool = False


#: Per-process context installed by the pool initializer (workers only).
_WORKER_CONTEXT: _GridContext | None = None


def _init_worker(ctx: _GridContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ctx


def _execute_cell(ctx: _GridContext, cell: Cell) -> CellResult:
    """Run one cell — the single code path for serial and parallel."""
    workload, models = ctx.entries[cell.workload_key]
    scale = ctx.scale
    params = ctx.base_params or SimulationParams(n_backends=scale.n_backends)
    if cell.n_backends is not None and params.n_backends != cell.n_backends:
        params = params.with_overrides(n_backends=cell.n_backends)
    fraction = (scale.cache_fraction if cell.cache_fraction is None
                else cell.cache_fraction)
    start = time.perf_counter()
    mining = models.runtime(params) if models is not None else None
    result = run_policy(
        workload, cell.policy, params,
        mining=mining,
        cache_fraction=fraction,
        warmup_fraction=scale.warmup_fraction,
        window_s=scale.duration_s,
        audit=ctx.audit,
        telemetry=ctx.telemetry,
    )
    return CellResult(
        cell=cell,
        result=result,
        cache_fraction=fraction,
        wall_clock_s=time.perf_counter() - start,
    )


def _run_in_worker(cell: Cell) -> CellResult:
    assert _WORKER_CONTEXT is not None, "pool initializer did not run"
    return _execute_cell(_WORKER_CONTEXT, cell)


def _build_context(
    cells: Sequence[Cell],
    scale: ExperimentScale,
    params: SimulationParams | None,
    workloads: Mapping[str, Workload] | None,
    audit: bool = False,
    telemetry: bool = False,
    model_cache: ModelCache | str | None = None,
) -> _GridContext:
    """Generate workloads and mine models — once per distinct key."""
    mining_params = params or SimulationParams(n_backends=scale.n_backends)
    entries: dict[tuple[str, int | None],
                  tuple[Workload, MinedModels | None]] = {}
    needs_mining = {
        cell.workload_key for cell in cells
        if cell.policy in MINING_POLICY_NAMES
    }
    for cell in cells:
        key = cell.workload_key
        if key in entries:
            continue
        if workloads is not None and cell.workload in workloads:
            if cell.seed_offset is not None:
                raise ValueError(
                    "seed_offset cannot reseed an explicitly supplied "
                    f"workload {cell.workload!r}"
                )
            workload = workloads[cell.workload]
        else:
            workload = loaded_workload(cell.workload, scale,
                                       seed_offset=cell.seed_offset)
        models = (cached_mine_models(workload, mining_params,
                                     cache=model_cache)
                  if key in needs_mining else None)
        entries[key] = (workload, models)
    return _GridContext(scale=scale, base_params=params, entries=entries,
                        audit=audit, telemetry=telemetry)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: None → all cores, else max(0, n)."""
    if jobs is None:
        return os.cpu_count() or 1
    return max(0, jobs)


def run_grid(
    cells: Iterable[Cell],
    scale: ExperimentScale,
    *,
    jobs: int = 0,
    params: SimulationParams | None = None,
    workloads: Mapping[str, Workload] | None = None,
    audit: bool = False,
    telemetry: bool = False,
    model_cache: ModelCache | str | None = None,
) -> list[CellResult]:
    """Execute a grid of cells; results come back in cell order.

    Parameters
    ----------
    cells:
        The grid.  Cells sharing a ``workload_key`` share one workload
        build and exactly one mining pass (done up-front, in this
        process, so workers never mine).
    jobs:
        ``0`` or ``1`` runs in-process (serial); ``N >= 2`` fans out
        over a process pool of ``N`` workers.  Either way the same
        per-cell code runs on the same inputs, so results are
        bit-identical across ``jobs`` values.
    params:
        Base :class:`SimulationParams`; per-cell ``n_backends``
        overrides are applied on top.  Defaults to the scale's backend
        count.
    workloads:
        Pre-built workloads keyed by cell ``workload`` name, bypassing
        :func:`loaded_workload` (used by :func:`run_comparison`, which
        receives an already-generated workload).
    audit:
        Attach a strict :class:`~repro.sim.audit.SimulationAuditor` to
        every cell's run.  The audit hook is pure observation, so the
        results (reports included) are bit-identical to ``audit=False``;
        any invariant violation raises
        :class:`~repro.sim.audit.AuditError`.
    telemetry:
        Attach a :class:`~repro.obs.telemetry.Telemetry` recorder to
        every cell's run; each :class:`CellResult`'s result then carries
        a picklable :class:`~repro.obs.telemetry.TelemetrySummary`.
        Pure observation like the auditor, so reports stay bit-identical
        and serial/parallel telemetry agree on their deterministic view.
    model_cache:
        A :class:`~repro.mining.modelcache.ModelCache` (or directory
        path) that persists the per-workload mining pass across
        processes: a rerun of an unchanged grid loads the mined models
        from disk instead of re-mining.  Results are bit-identical with
        and without the cache.
    """
    cells = list(cells)
    if not cells:
        return []
    ctx = _build_context(cells, scale, params, workloads, audit=audit,
                         telemetry=telemetry, model_cache=model_cache)
    jobs = resolve_jobs(jobs)
    if jobs >= 2 and len(cells) >= 2:
        n_workers = min(jobs, len(cells))
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_worker,
            initargs=(ctx,),
        ) as pool:
            return list(pool.map(_run_in_worker, cells))
    return [_execute_cell(ctx, cell) for cell in cells]
