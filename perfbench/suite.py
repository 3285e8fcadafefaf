"""The four benchmark workloads and the instrumentation of the traced run.

Each workload builds its inputs from the run seed in ``setup``, warms up
untimed, and then runs *cycles*: one cycle is a fixed unit of work (a
sweep pass, one draw under each policy, one streamed session), on a
fresh draw of the inputs except in ``service``. Timing wraps only calls
into the program; the correctness checks run between them. Every timing
is scaled to reference seconds by the host speed sampled around it
(``calibrate.py``). The schedules of the first ``quality_cycles``
cycles, which always run, define the quality guards and the pinned
digests, so those depend on the seed alone and never on how fast the
machine is.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

import repro.experiments.parallel as parallel
import repro.experiments.runner as runner
import repro.service.protocol as protocol
import repro.service.session as session_mod
import repro.sim.engine as engine
from repro.core.agent import ReActSchedulingAgent
from repro.experiments.parallel import expand_cells, run_cells
from repro.experiments.runner import DEFAULT_SCHEDULERS
from repro.experiments.storage import ShardedStore
from repro.experiments.storage.sharded import shard_index
from repro.experiments.store import WHERE_FIELDS, StoredRun, cell_key_str
from repro.schedulers.registry import create_scheduler
from repro.service.embedded import EmbeddedServer
from repro.service.session import Session
from repro.sim.cluster import ResourcePool
from repro.sim.constraints import ConstraintChecker
from repro.sim.disruptions import DisruptionSpec
from repro.sim.events import ArrayCalendar
from repro.sim.schedule import ScheduleResult
from repro.sim.simulator import simulate
from repro.workloads import generate_workload
from repro.workloads.scenarios import PAPER_JOB_COUNTS, PAPER_SCENARIOS
from repro.workloads.transforms import with_scaled_arrivals

import calibrate
from oracle import check_schedule
from spans import Tracer

#: Nodes of the default cluster every workload runs on.
CLUSTER_NODES = ResourcePool().total_nodes


def quality_guards(metrics: dict[str, float], jobs) -> dict[str, float]:
    """Quality guards of one schedule.

    Makespan and wait are also given relative to the input: makespan over
    its lower bound (the later of the last job's earliest finish and the
    total node-seconds spread over the whole cluster), and mean wait over
    mean job runtime. The ratios keep the guards steady across seeds,
    where the absolute values swing with how congested the draw is.
    """
    first = min(j.submit_time for j in jobs)
    bound = max(
        max(j.submit_time + j.duration for j in jobs) - first,
        sum(j.duration * j.nodes for j in jobs) / CLUSTER_NODES,
    )
    runtime = sum(j.duration for j in jobs) / len(jobs)
    return {
        "quality.makespan_ratio": metrics["makespan"] / bound,
        "quality.wait_ratio": metrics["avg_wait_time"] / runtime,
        "quality.node_utilization": metrics["node_utilization"],
        "quality.wait_fairness": metrics["wait_fairness"],
        "quality.makespan_s": metrics["makespan"],
        "quality.avg_wait_s": metrics["avg_wait_time"],
    }


def subseed(seed: int, *path: int) -> int:
    """Independent 32-bit seed for input *path* of run *seed*."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Measurement:
    """What one phase of a run observed.

    ``busy_s`` is program time in plain seconds and sets how long a run
    measures; the rates and latencies are in reference seconds (see
    :meth:`scale`).
    """

    busy_s: float = 0.0
    #: Seconds of each reference sample :meth:`scale` took.
    ref_s: list[float] = field(default_factory=list)
    #: Cells and jobs per reference second, one rate per cycle (per
    #: stretch of batches for the service's ``run_cell`` requests). The
    #: median is the run's rate: a burst of load on the host moves at
    #: most a few of them.
    cell_rates: list[float] = field(default_factory=list)
    job_rates: list[float] = field(default_factory=list)
    submit_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    quality: list[dict[str, float]] = field(default_factory=list)
    llm_overhead_s: float = 0.0
    digests: list[str] = field(default_factory=list)
    peak_nodes: int = 0
    #: ``(batches, digest)`` of every schedule the service served.
    served: list[tuple[int, str]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Results of the phase, kept only for the traced phase's counters.
    results: Optional[list[ScheduleResult]] = None

    def merge(self, other: dict[str, Any]) -> None:
        """Add another part's measurement (as :meth:`as_dict` gave it)."""
        for name, value in other.items():
            if name == "peak_nodes":
                self.peak_nodes = max(self.peak_nodes, value)
            elif isinstance(value, list):
                getattr(self, name).extend(
                    tuple(v) if name == "served" else v for v in value
                )
            elif isinstance(value, dict):
                for key, count in value.items():
                    self.count(key, count)
            else:
                setattr(self, name, getattr(self, name) + value)

    def as_dict(self) -> dict[str, Any]:
        out = asdict(self)
        del out["results"]
        return out

    @contextlib.contextmanager
    def check(self, label: str):
        """Correctness check of an operation already counted; any
        exception marks it failed (a failed op is data, not a crash)."""
        try:
            yield
        except Exception as exc:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {type(exc).__name__}: {exc}")

    @contextlib.contextmanager
    def op(self, label: str):
        """One attempted operation, checked like :meth:`check`."""
        self.attempted += 1
        with self.check(label):
            yield

    def scale(self) -> float:
        """Sample the host's speed now; return the factor that turns
        seconds measured since the previous sample into reference
        seconds (nominal reference time over the mean of the two
        samples around them)."""
        now = calibrate.sample()
        before = self.ref_s[-1] if self.ref_s else now
        self.ref_s.append(now)
        return 2 * calibrate.REFERENCE_S / (before + now)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def keep(self, result: ScheduleResult) -> None:
        if self.results is not None:
            self.results.append(result)


class Workload:
    """Shared plumbing; subclasses define setup, warm-up and one cycle."""

    name = ""
    #: Extra untraced pooled phase in the traced run (paper_sweep only).
    pooled = False
    #: Cycles a measurement process runs even when the host is slow:
    #: seven in each of three processes give 21 latency samples, the
    #: fewest whose tail is a percentile above the median (``run.tail``).
    min_cycles = 7
    #: Cycles whose schedules define the quality guards and the pinned
    #: digests: cycles 0-20, which the three processes' first seven
    #: cycles cover, so they run whatever the host's speed. Averaged over
    #: 21 draws the guards barely move from one seed to the next.
    quality_cycles = 21

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer: Optional[Tracer] = None
        self._stores = 0

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def paused(self):
        """Benchmark bookkeeping that the trace must not count."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def new_store(self, template: Optional[ShardedStore] = None) -> ShardedStore:
        """A fresh store: empty, or a copy of *template*."""
        self._stores += 1
        path = self.workdir / f"store{self._stores}"
        if template is not None:
            shutil.copytree(template.path, path)
        store = ShardedStore(path)
        store.ensure_initialized()
        return store

    def begin_cycle(self, inline: bool) -> None:
        """Called before each cycle (fresh store, pooled or inline)."""

    def cache_stats(self) -> dict[str, int]:
        """The service's cache counters (empty elsewhere)."""
        return {}

    def teardown(self) -> None:
        """Release what ``setup`` acquired."""

    def make_inputs(self) -> None:
        """Inputs :meth:`verify` needs, rebuilt from the seed alone."""

    def verify(self, m: Measurement) -> None:
        """Checks over a whole run's results, made after timing (in the
        process that pools the parts)."""

    def generate(self, scenario: str, n_jobs: int, seed: int):
        with self.span("workloads.generate"):
            return generate_workload(scenario, n_jobs, seed=seed)


def keyed_query(path: Path, key) -> tuple[list, float]:
    """One keyed ``iter_runs`` as a fresh reader sees the archive (as a
    report run in another process does): it opens the store and parses
    the one shard the key lives in. Returns the rows and the seconds."""
    t0 = time.perf_counter()
    rows = list(ShardedStore(path).iter_runs(where=dict(zip(WHERE_FIELDS, key))))
    return rows, time.perf_counter() - t0


def combined_digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(f"{part}\n".encode())
    return h.hexdigest()


def schedule_digest(result, metrics) -> str:
    """Full-precision digest of a schedule for the pins.

    Hashes what ``repro.service.protocol.schedule_digest`` hashes, but
    coerces every number to float first: that function raises on the
    integer ``work_saved`` values checkpoint restarts record.
    """
    h = hashlib.sha256()
    for rec in result.records:
        h.update(
            f"{rec.job.job_id},{float(rec.start_time).hex()},"
            f"{float(rec.end_time).hex()},{rec.killed}\n".encode()
        )
    for d in result.decisions:
        h.update(
            f"{float(d.time).hex()},{d.action.kind.value},{d.accepted},"
            f"{len(d.violations)}\n".encode()
        )
    for p in result.preemptions:
        restart = "None" if p.restart_time is None else float(p.restart_time).hex()
        h.update(
            f"{p.job_id},{float(p.time).hex()},{p.reason},"
            f"{float(p.work_saved).hex()},{float(p.work_lost).hex()},"
            f"{restart}\n".encode()
        )
    for k, v in sorted(metrics.items()):
        h.update(f"{k}={float(v).hex()}\n".encode())
    return h.hexdigest()


def record_cell(m: Measurement, run, jobs, got, quality: bool) -> None:
    """Correctness checks and bookkeeping for one finished cell."""
    m.peak_nodes = max(m.peak_nodes, check_schedule(jobs, run.result))
    if got != [StoredRun.from_run(run)]:
        raise ValueError(
            f"store read-back of {cell_key_str(run.key)} differs from the "
            "returned run"
        )
    m.keep(run.result)
    if quality:
        m.quality.append(quality_guards(run.metrics.as_dict(), jobs))
        if run.overhead is not None:
            m.llm_overhead_s += run.overhead.elapsed_s
        m.digests.append(
            f"{cell_key_str(run.key)} "
            + schedule_digest(run.result, run.metrics.as_dict())
        )


# -- paper_sweep --------------------------------------------------------
class PaperSweep(Workload):
    """The paper's scenario x size x scheduler matrix through the pooled
    sweep engine into a fresh sharded store, then one keyed query per
    cell by a fresh reader. One cycle is one pass over the matrix.

    Unlike the other workloads, every pass draws its own workload seed:
    the annealer's cost swings by up to 15 % from one draw of the matrix
    to the next, and a run should average over that."""

    name = "paper_sweep"
    #: Paper sizes 10 and 20: a pass over them takes about half a
    #: second, so a run holds the 21 passes a submit tail needs. With
    #: size 40 a pass took 1.6 s and its slowest draws twice that, so
    #: the tail was the maximum of about twelve passes and spread by
    #: half its value between runs; the 60-100 job annealer cells take
    #: seconds each.
    SIZES = tuple(n for n in PAPER_JOB_COUNTS if n <= 20)
    pooled = True

    def setup(self) -> None:
        self.store = self.new_store()
        self.workers = min(4, nproc())

    def begin_cycle(self, inline: bool) -> None:
        self.store = self.new_store()
        self.workers = 1 if inline else min(4, nproc())

    def cells(self, seed: int, sizes=SIZES):
        return expand_cells(
            PAPER_SCENARIOS, sizes, DEFAULT_SCHEDULERS, workload_seeds=(seed,)
        )

    def warmup(self) -> None:
        cells = self.cells(subseed(self.seed, 0), sizes=(10,))
        run_cells(cells, workers=1, store=self.store)

    def cycle(self, k: int, m: Measurement) -> None:
        failures: list = []
        t0 = time.perf_counter()
        with self.span("experiments.run_cells"):
            runs = run_cells(
                self.cells(subseed(self.seed, 1, k)),
                workers=self.workers,
                store=self.store,
                on_cell_failure="quarantine",
                failures=failures,
            )
        elapsed = time.perf_counter() - t0
        scale = m.scale()
        m.submit_s.append(elapsed * scale)
        m.attempted += len(failures)
        m.failed += len(failures)
        m.errors.extend(f"{f.key}: {f.message}" for f in failures[:5])
        queries = []
        for run in runs:
            with m.op(f"cell {cell_key_str(run.key)}"):
                got, query = keyed_query(self.store.path, run.key)
                queries.append(query)
                jobs = generate_workload(
                    run.scenario, run.n_jobs, seed=run.workload_seed
                )
                record_cell(m, run, jobs, got, k < self.quality_cycles)
        m.busy_s += elapsed + sum(queries)
        # A query is reading the whole pass back, as a report does: one
        # keyed read takes a fifth of a millisecond, and the tail of
        # thousands of them is a few hiccups of the host.
        query = sum(queries) * m.scale()
        m.query_s.append(query)
        busy = elapsed * scale + query
        m.cell_rates.append(len(runs) / busy)
        m.job_rates.append(sum(run.n_jobs for run in runs) / busy)


# -- backlog and churn -----------------------------------------------------
class _Cells(Workload):
    """One ``run_single`` per policy per cycle, appended to a fresh copy
    of an archive and read back by key.

    Every cycle runs its own draw of the scenario: one draw can cost
    15 % more than another, and a run's rate, the median over its
    cycles, should not hang on a single one."""

    SCENARIO = ""
    N_JOBS = 0
    POLICIES: tuple[str, ...] = ()
    WARMUP_JOBS = 0
    #: Cells every shard of the archive holds before a cycle appends its
    #: own (about as many as after the paper sweep), so a keyed query
    #: parses a shard of the size a report meets, whichever shard the
    #: seed's cells hash to.
    ARCHIVE_PER_SHARD = 10

    def cell_kwargs(self) -> dict[str, Any]:
        return {}

    def setup(self) -> None:
        self.input_seed = subseed(self.seed, 2, 0)
        self.jobs = self.generate(self.SCENARIO, self.N_JOBS, self.input_seed)
        self.drawn = 0
        self.archive = self.new_store()
        filler = StoredRun.from_run(
            runner.run_single(
                "homogeneous_short", 10, "fcfs", workload_seed=self.input_seed
            )
        )
        n_shards = self.archive.n_shards
        room = [self.ARCHIVE_PER_SHARD] * n_shards
        seed = 0
        while any(room):
            stored = replace(filler, workload_seed=seed)
            seed += 1
            index = shard_index(stored.key, n_shards)
            if room[index]:
                room[index] -= 1
                self.archive.append(stored)

    def run(self, policy: str, jobs):
        return runner.run_single(
            self.SCENARIO,
            len(jobs),
            policy,
            workload_seed=self.input_seed,
            jobs=jobs,
            **self.cell_kwargs(),
        )

    def warmup(self) -> None:
        for policy in self.POLICIES:
            run = self.run(policy, self.jobs[: self.WARMUP_JOBS])
        keyed_query(self.archive.path, run.key)

    def begin_cycle(self, inline: bool) -> None:
        self.store = self.new_store(template=self.archive)

    def use_draw(self, k: int) -> None:
        """Make cycle *k*'s draw the input (generated untimed and
        untraced; the traced run repeats each cycle)."""
        if self.drawn != k:
            self.input_seed = subseed(self.seed, 2, k)
            self.jobs = generate_workload(
                self.SCENARIO, self.N_JOBS, seed=self.input_seed
            )
            self.drawn = k

    def cycle(self, k: int, m: Measurement) -> None:
        """One draw under every policy. The latencies are per cycle, not
        per cell: the policies differ in cost, and a median over cells
        of two sizes falls in the gap between them."""
        self.use_draw(k)
        fresh = []
        submit = query = 0.0
        for policy in self.POLICIES:
            with m.op(f"{self.SCENARIO}@{self.N_JOBS} {policy}"):
                t0 = time.perf_counter()
                run = self.run(policy, self.jobs)
                self.store.append(run)
                submit += time.perf_counter() - t0
                got, read = keyed_query(self.store.path, run.key)
                query += read
                fresh.append((run, got))
        m.busy_s += submit + query
        scale = m.scale()
        if len(fresh) == len(self.POLICIES):
            # A query is the wait until the cycle's cells can be read
            # back. The keyed read alone takes under a millisecond, and
            # the few a run has between cells that take a second each
            # catch a shared host's load in too few states to be steady.
            busy = (submit + query) * scale
            m.submit_s.append(submit * scale)
            m.query_s.append(busy)
            m.cell_rates.append(len(fresh) / busy)
            m.job_rates.append(len(fresh) * len(self.jobs) / busy)
        for run, got in fresh:
            with m.check(f"cell {cell_key_str(run.key)}"):
                record_cell(m, run, self.jobs, got, k < self.quality_cycles)


class Backlog(_Cells):
    """Deep queues: thousands of jobs waiting at every decision point,
    so view construction and the columnar policy kernels do the work."""

    name = "backlog"
    SCENARIO = "heterogeneous_mix"
    N_JOBS = 2000
    POLICIES = ("fcfs_backfill", "sjf_firstfit")
    WARMUP_JOBS = 1000


class Churn(_Cells):
    """Node failures with checkpoint restarts: the engine's kill,
    requeue and restart path, about 30 kills per job."""

    name = "churn"
    SCENARIO = "checkpoint_stress"
    N_JOBS = 120
    POLICIES = ("fcfs_backfill",)
    WARMUP_JOBS = 60

    def cell_kwargs(self) -> dict[str, Any]:
        return {
            "disruptions": DisruptionSpec(
                mtbf=40_000, mttr=1_200, seed=self.input_seed
            ),
            "restart_policy": "checkpoint",
            "checkpoint_interval": 900,
        }


# -- service ---------------------------------------------------------------
class Service(Workload):
    """One client of an in-process daemon, closed loop: stream a session
    in equal batches with ``get_schedule`` after each, then re-query the
    finished session. After every batch the client also asks
    ``run_cell`` for stored cells, which the warm-up already pulled from
    the store tier into the memory tier."""

    name = "service"
    N_JOBS = 1500
    BATCH = 100
    REPEATS = 3
    #: ``run_cell`` requests after each batch. They take a fraction of a
    #: millisecond, so one burst of them at the end of a session would
    #: catch a shared host's load in a single state; spread over the
    #: session they sample it all along.
    CELLS_PER_BATCH = 18
    #: Batches between two samples of the host's speed; the
    #: ``run_cell`` rate is one sample per such stretch.
    BATCHES_PER_SAMPLE = 3
    #: Each session yields dozens of latency samples, and every
    #: session serves the same schedules.
    min_cycles = 1
    quality_cycles = 1
    #: Arrivals at 10x the scenario's rate, 2.5x what the 256-node
    #: partition can run: the queue grows through the session, so served
    #: schedules have waits, and how long they are barely depends on the
    #: draw (at the scenario's own rate no job ever waits).
    ARRIVAL_SCALE = 0.1

    def make_inputs(self) -> None:
        jobs = self.generate("homogeneous_short", self.N_JOBS, subseed(self.seed, 3))
        self.jobs = with_scaled_arrivals(jobs, self.ARRIVAL_SCALE)
        self.expected: dict[int, str] = {}

    def setup(self) -> None:
        # Client and daemon threads share one CPU, so a request never
        # waits for an idle virtual CPU to be woken: how soon a shared
        # host does that stays out of the sub-millisecond requests.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.make_inputs()
        self.store = self.new_store()
        self.prefilled = []
        for i in range(9):
            run = runner.run_single(
                "homogeneous_short", 10, "fcfs", workload_seed=subseed(self.seed, 4, i)
            )
            self.prefilled.append(self.store.append(run))
        self.prefilled_json = [json.loads(json.dumps(asdict(s))) for s in self.prefilled]
        self.socket = Path(".perfbench") / f"svc{os.getpid()}-{self._stores}.sock"
        self.server = EmbeddedServer(
            socket_path=self.socket,
            store_path=self.store.path,
            store_format="sharded",
            workers=1,
        ).start()
        self.client = self.server.client(timeout=60.0)

    def teardown(self) -> None:
        self.client.close()
        self.server.stop()

    def cache_stats(self) -> dict[str, int]:
        return self.client.stats()["cache"]

    def request(self, op: str, *args):
        with self.span("service.request"):
            return getattr(self.client, op)(*args)

    def warmup(self) -> None:
        sid = self.client.open_session(scheduler="fcfs")
        for b in range(5):
            self.client.submit_jobs(sid, self.batch(b))
            self.client.get_schedule(sid)
        self.client.close_session(sid)
        for stored in self.prefilled:
            self.client.run_cell(self._config(stored))

    @staticmethod
    def _config(stored: StoredRun) -> dict[str, Any]:
        return {
            "scenario": stored.scenario,
            "n_jobs": stored.n_jobs,
            "scheduler": stored.scheduler,
            "workload_seed": stored.workload_seed,
            "scheduler_seed": stored.scheduler_seed,
            "arrival_mode": stored.arrival_mode,
            "disruptions": None,
            "restart_policy": "resubmit",
            "checkpoint_interval": None,
            "topology": None,
            "anneal_window": None,
        }

    def batch(self, b: int):
        return self.jobs[b * self.BATCH : (b + 1) * self.BATCH]

    def _timed(self, samples: list[float], op: str, *args):
        t0 = time.perf_counter()
        reply = self.request(op, *args)
        samples.append(time.perf_counter() - t0)
        return reply

    def cycle(self, k: int, m: Measurement) -> None:
        n_batches = len(self.jobs) // self.BATCH
        sid = None
        with m.op("open_session"):
            sid = self.request("open_session", "fcfs")
        if sid is None:
            return
        served = None
        session_time = 0.0
        submits: list[float] = []
        queries: list[float] = []
        cells: list[float] = []
        m.scale()
        # Pass ``n_batches`` re-queries the finished session.
        for b in range(n_batches + 1):
            if b < n_batches:
                with m.op(f"submit_jobs {b}"):
                    self._timed(submits, "submit_jobs", sid, self.batch(b))
                with m.op(f"get_schedule {b}"):
                    served = self._timed(queries, "get_schedule", sid)
                    m.served.append((b + 1, served["digest"]))
                self.ask_cells(m, b, cells)
            else:
                for _ in range(self.REPEATS):
                    with m.op("get_schedule (repeat)"):
                        served = self._timed(queries, "get_schedule", sid)
                        m.served.append((n_batches, served["digest"]))
            if (b + 1) % self.BATCHES_PER_SAMPLE and b < n_batches - 1:
                continue
            m.busy_s += sum(submits) + sum(queries) + sum(cells)
            scale = m.scale()
            m.submit_s.extend(t * scale for t in submits)
            m.query_s.extend(t * scale for t in queries)
            session_time += (sum(submits) + sum(queries)) * scale
            if cells:
                m.cell_rates.append(len(cells) / (sum(cells) * scale))
            submits.clear()
            queries.clear()
            cells.clear()
        m.job_rates.append(n_batches * self.BATCH / session_time)
        with self.paused():
            stats = self.client.session_stats(sid)
        m.count("service.replays", stats["n_runs"])
        m.count("service.replay_reuses", stats["n_result_reuses"])
        with m.op("close_session"):
            self.request("close_session", sid)
        if k < self.quality_cycles and served is not None:
            m.quality.append(quality_guards(served["metrics"], self.jobs))
            m.digests.append(f"session {served['digest']}")

    def ask_cells(self, m: Measurement, b: int, samples: list[float]) -> None:
        """``CELLS_PER_BATCH`` ``run_cell`` requests, timed into *samples*."""
        for j in range(self.CELLS_PER_BATCH):
            i = (b * self.CELLS_PER_BATCH + j) % len(self.prefilled)
            with m.op("run_cell"):
                reply = self._timed(
                    samples, "run_cell", self._config(self.prefilled[i])
                )
                if reply["run"] != self.prefilled_json[i]:
                    raise ValueError("run_cell served a different run")

    def verify(self, m: Measurement) -> None:
        """Every served digest must equal the digest of a batch
        ``simulate()`` over the same jobs (each prefix simulated once)."""
        for n_batches, digest in m.served:
            if n_batches not in self.expected:
                jobs = self.jobs[: n_batches * self.BATCH]
                result = simulate(jobs, create_scheduler("fcfs", seed=0))
                metrics = runner.compute_metrics(result).as_dict()
                self.expected[n_batches] = protocol.schedule_digest(result, metrics)
                if len(jobs) == len(self.jobs):
                    with m.op("oracle session"):
                        m.peak_nodes = max(
                            m.peak_nodes, check_schedule(jobs, result)
                        )
            if digest != self.expected[n_batches]:
                m.failed += 1
                m.errors.append(
                    f"session after {n_batches} batch(es): served digest "
                    "differs from batch simulate()"
                )


WORKLOADS = {
    cls.name: cls for cls in (PaperSweep, Backlog, Churn, Service)
}


# -- instrumentation ---------------------------------------------------------
def instrument(tracer: Tracer) -> None:
    """Patch every layer boundary with a span; ``tracer.restore()`` undoes it."""
    tracer.patch_call(engine, "run_soa", "sim.run")
    tracer.patch_call(session_mod, "run_soa", "sim.run")
    tracer.patch_call(ScheduleResult, "verify_capacity", "sim.verify")
    tracer.patch_call(runner, "compute_metrics", "metrics.compute")
    tracer.patch_call(session_mod, "compute_metrics", "metrics.compute")
    tracer.patch_call(runner, "generate_workload", "workloads.generate")
    tracer.patch_call(runner, "run_single", "experiments.run_single")
    tracer.patch_call(parallel, "run_single", "experiments.run_single")
    tracer.patch_call(ShardedStore, "append", "storage.append")
    tracer.patch_call(ShardedStore, "get", "storage.get")
    tracer.patch(
        ShardedStore,
        "iter_runs",
        tracer.wrap_generator(ShardedStore.iter_runs, "storage.iter_runs"),
    )
    tracer.patch_call(Session, "ensure_result", "service.replay")
    tracer.patch_call(protocol, "decode", "service.decode")

    counters = tracer.counters
    encode = tracer.wrap(protocol.encode, "service.encode")

    def traced_encode(message):
        data = encode(message)
        if tracer.recording:
            tracer.samples["payload_bytes"].append(len(data))
        return data

    tracer.patch(protocol, "encode", traced_encode)

    validate = tracer.wrap(ConstraintChecker.validate, "constraints.validate")

    def traced_validate(self, action, **kwargs):
        result = validate(self, action, **kwargs)
        if not result.ok:
            counters["constraints.rejected"] += 1
        return result

    tracer.patch(ConstraintChecker, "validate", traced_validate)

    pop_due = ArrayCalendar.pop_due

    def counted_pop_due(self, time_):
        event = pop_due(self, time_)
        if event is not None:
            counters["sim.events"] += 1
        return event

    tracer.patch(ArrayCalendar, "pop_due", counted_pop_due)

    def traced_create(name, seed=0, **kwargs):
        sched = create_scheduler(name, seed=seed, **kwargs)
        llm = isinstance(sched, ReActSchedulingAgent)
        decide = tracer.wrap(
            sched.decide, "core.decide" if llm else "schedulers.decide"
        )

        def traced_decide(view):
            counters["sim.queue_depth_sum"] += len(view.queued)
            return decide(view)

        sched.decide = traced_decide
        if llm:
            sched.prompt_builder.build = tracer.wrap(
                sched.prompt_builder.build, "core.prompt_build"
            )
            sched.backend.complete = tracer.wrap(
                sched.backend.complete, "core.complete"
            )
        return sched

    tracer.patch(runner, "create_scheduler", traced_create)
    tracer.patch(session_mod, "create_scheduler", traced_create)
