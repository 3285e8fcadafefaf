"""Schedule invariants checked without the simulator's bookkeeping.

``ScheduleResult.verify_capacity`` sweeps final job records only, so it
cannot see attempts that node failures killed. This check rebuilds every
execution attempt from the public result alone: one per finished
``JobRecord`` plus one per ``PreemptionRecord`` (the killed attempt ran
from ``start_time`` to ``time`` on ``nodes`` nodes). Job sizes and submit
times come from the generated input, not from the engine's copies.

Capacity net of offline nodes is deliberately not checked: the result
does not record which failures the pool absorbed, so that needs the
engine's own telemetry.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class ScheduleError(Exception):
    """A schedule broke an invariant."""


def check_schedule(jobs: Sequence, result) -> int:
    """Raise :class:`ScheduleError` unless *result* is a valid schedule
    of *jobs*; return the peak number of busy nodes.

    Checked: every submitted job finishes exactly once; no attempt starts
    before its job was submitted or ends before it starts; a killed
    attempt holds exactly its job's nodes; and busy nodes and memory,
    counting killed attempts, never exceed the cluster at any instant.
    """
    by_id = {job.job_id: job for job in jobs}
    finished = [rec.job.job_id for rec in result.records]
    if len(finished) != len(by_id) or set(finished) != set(by_id):
        raise ScheduleError(
            f"{len(finished)} finished record(s) for {len(by_id)} submitted "
            "job(s): every job must finish exactly once"
        )
    ids = finished + [p.job_id for p in result.preemptions]
    starts = np.array(
        [rec.start_time for rec in result.records]
        + [p.start_time for p in result.preemptions],
        dtype=float,
    )
    ends = np.array(
        [rec.end_time for rec in result.records]
        + [p.time for p in result.preemptions],
        dtype=float,
    )
    for p in result.preemptions:
        if p.job_id not in by_id or p.nodes != by_id[p.job_id].nodes:
            raise ScheduleError(
                f"killed attempt of job {p.job_id} holds {p.nodes} node(s), "
                "not its job's request"
            )
    submits = np.array([by_id[i].submit_time for i in ids], dtype=float)
    nodes = np.array([by_id[i].nodes for i in ids], dtype=np.int64)
    memory = np.array([by_id[i].memory_gb for i in ids], dtype=float)

    early = np.flatnonzero(starts < submits - 1e-9)
    if early.size:
        i = early[0]
        raise ScheduleError(
            f"job {ids[i]} started at {starts[i]} before its submission "
            f"at {submits[i]}"
        )
    backwards = np.flatnonzero(ends < starts)
    if backwards.size:
        raise ScheduleError(f"job {ids[backwards[0]]} ended before it started")

    # Half-open intervals: at equal times, releases sort before starts.
    times = np.concatenate([ends, starts])
    is_start = np.concatenate([np.zeros(len(ends)), np.ones(len(starts))])
    order = np.lexsort((is_start, times))
    busy_nodes = np.cumsum(np.concatenate([-nodes, nodes])[order])
    busy_memory = np.cumsum(np.concatenate([-memory, memory])[order])
    peak_nodes = int(busy_nodes.max(initial=0))
    if peak_nodes > result.total_nodes:
        raise ScheduleError(
            f"{peak_nodes} nodes busy at once on a {result.total_nodes}-node "
            "cluster"
        )
    peak_memory = float(busy_memory.max(initial=0.0))
    if peak_memory > result.total_memory_gb + 1e-6:
        raise ScheduleError(
            f"{peak_memory:g} GB busy at once on a "
            f"{result.total_memory_gb:g} GB cluster"
        )
    return peak_nodes
