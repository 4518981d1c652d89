"""The seven workloads: set-up, the op each one times, and its check.

An *op* is the unit whose host wall time is sampled; the timer surrounds
only the call into the system, the check runs after it.  Inputs and
references live in ``cases.py``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import UCProgram
from repro.bench import workloads as uc
from repro.interp.compile_store import CompileStore
from repro.service import QUEUED, ExecutionService, JobSpec, ServiceConfig

import cases as gen
from cases import FULL, ROOT, SMOKE, Case, CliCase, load_expected, parse_cli_output, program_key
from trace import Tracer

SRC = ROOT / "src"


@dataclass
class Window:
    """What one timed window, or several merged ones, produced."""

    #: per-case op wall times, milliseconds (serve_mix: a "case" is the
    #: k-th block of the job list, its sample the block's median latency)
    samples: List[List[float]]
    #: every op's wall time, milliseconds, in completion order
    raw: List[float]
    #: per case, seconds per unit of work of each op, check included.
    #: Work is counted in instances for batch_lanes, in jobs for serve_mix
    unit_s: List[List[float]]
    attempted: int
    failed: int
    elapsed_s: float

    @classmethod
    def merged(cls, windows: List["Window"]) -> "Window":
        """The windows of one run's epochs as one."""

        def per_case(lists: List[List[List[float]]]) -> List[List[float]]:
            # serve_mix reaches fewer blocks in a slow epoch than in a fast one
            cases = max(len(per_window) for per_window in lists)
            return [sum((pw[i] for pw in lists if i < len(pw)), []) for i in range(cases)]

        return cls(
            per_case([w.samples for w in windows]),
            sum((w.raw for w in windows), []),
            per_case([w.unit_s for w in windows]),
            sum(w.attempted for w in windows),
            sum(w.failed for w in windows),
            sum(w.elapsed_s for w in windows),
        )


class Workload:
    """Set-up, one op, and the check — see the subclasses."""

    name = ""
    #: units of work per op (lanes per run_batch call)
    work_per_op = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer: Tracer) -> None:
        self.seed = seed
        self.sizes = SMOKE if smoke else FULL
        self.workdir = workdir
        self.tracer = tracer
        self.expected = load_expected(self.name, seed, smoke)
        self.cases: List[Any] = []
        #: ms from "nothing compiled" to the first result of the workload's
        #: largest program, one sample per set_up() call
        self.first_run_ms: List[float] = []
        #: construct/first-run facts per program of the newest set-up
        #: (``ctor_ms``, ``execute_ms``, the first ``RunResult.compile``)
        self.first: List[dict] = []
        #: newest result per case (RunResult, list of them, or parsed CLI
        #: output) — the counters the per-layer metrics are read from
        self.last: Dict[int, Any] = {}

    def rng(self):
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])

    # -- overridden --------------------------------------------------------

    def make_inputs(self) -> None:
        """Fill ``cases`` from the seed; the same seed gives the same cases."""
        raise NotImplementedError

    def set_up(self) -> None:
        """Build fresh state for the cases and run one discarded op per
        program.  Called several times; the newest call's state is used."""
        raise NotImplementedError

    def all_cases(self) -> List[Any]:
        """Every distinct (program, input) pair, for references/expected."""
        return self.cases

    def op(self, i: int) -> Tuple[float, bool]:
        """Run op ``i``; returns (wall ms of the call, passed its check)."""
        raise NotImplementedError

    def after_set_up(self) -> None:
        """Untimed follow-up to one set_up() call."""

    def complete(self) -> None:
        """After the windows: make ``last`` cover every case."""

    def programs(self) -> List[UCProgram]:
        """The program objects in use (none when they live in a child)."""
        return []

    def close(self) -> None:
        pass

    # -- shared ------------------------------------------------------------

    def compute_references(self) -> None:
        """NumPy references for every case; outside set-up and windows."""
        for case in self.all_cases():
            case.compute_reference()

    def window(self, seconds: float) -> Window:
        """Whole rounds over the cases until ``seconds`` have passed (at
        least one, so every case has a sample)."""
        n = len(self.cases)
        samples: List[List[float]] = [[] for _ in range(n)]
        unit_s: List[List[float]] = [[] for _ in range(n)]
        raw: List[float] = []
        attempted = failed = 0
        t0 = t = time.perf_counter()
        with self.tracer.span("window", "harness"):
            while not attempted or t - t0 < seconds:
                for i in range(n):
                    with self.tracer.span("op", "harness", op_id=attempted):
                        try:
                            ms, ok = self.op(i)
                        except Exception:  # an op that raises is a failed op
                            traceback.print_exc()
                            ok = False
                        else:
                            samples[i].append(ms)
                            raw.append(ms)
                    attempted += 1
                    failed += not ok
                    t, t_op = time.perf_counter(), t
                    unit_s[i].append((t - t_op) / self.work_per_op)
        return Window(samples, raw, unit_s, attempted, failed, t - t0)


class EngineWorkload(Workload):
    """Warm in-process ``UCProgram.run`` ops through one compile store."""

    #: index of the case whose construct + first run is ``first_run_ms``
    first_run_case = 0

    def set_up(self) -> None:
        self.store = CompileStore()
        self.programs_by_key: Dict[Tuple[str, tuple], UCProgram] = {}
        self.case_program: List[UCProgram] = []
        self.first = []
        for i, case in enumerate(self.cases):
            key = program_key(case)
            prog = self.programs_by_key.get(key)
            if prog is None:
                t0 = time.perf_counter()
                with self.tracer.span("interp.ctor", "interp"):
                    prog = UCProgram(
                        case.source, defines=case.defines, compile_store=self.store
                    )
                ctor_ms = (time.perf_counter() - t0) * 1e3
                self.programs_by_key[key] = prog
                self.case_program.append(prog)
                run_ms, result = self._execute(i, "interp.execute_first")
                self.first.append(
                    {"ctor_ms": ctor_ms, "execute_ms": run_ms, "compile": result.compile}
                )
                if i == self.first_run_case:
                    self.first_run_ms.append(ctor_ms + run_ms)
            else:
                self.case_program.append(prog)

    def programs(self) -> List[UCProgram]:
        return list(self.programs_by_key.values())

    def _execute(self, i: int, span: str = "interp.execute"):
        """prepare + run — exactly what ``UCProgram.run`` does."""
        prog, case = self.case_program[i], self.cases[i]
        t0 = time.perf_counter()
        with self.tracer.span("interp.prepare", "interp"):
            prepared = prog.prepare(case.inputs)
        with self.tracer.span(span, "interp"):
            result = prepared.run()
        return (time.perf_counter() - t0) * 1e3, result

    def op(self, i: int) -> Tuple[float, bool]:
        ms, result = self._execute(i)
        self.last[i] = result
        with self.tracer.span("check", "harness"):
            ok = self.cases[i].check(result, result.fingerprint, self.expected)
        return ms, ok


class ApspDense(EngineWorkload):
    name = "apsp_dense"

    def make_inputs(self) -> None:
        rng, n = self.rng(), self.sizes["apsp_n"]
        self.cases = [
            gen.apsp_case(f"chain-{k}", n, gen.chain_graph(n, rng))
            for k in range(self.sizes["apsp_inputs"])
        ]


class GridFrontier(EngineWorkload):
    name = "grid_frontier"

    def make_inputs(self) -> None:
        rng, r = self.rng(), self.sizes["grid_r"]
        self.cases = [gen.grid_case(f"walls-{k}", r, rng) for k in range(self.sizes["grid_inputs"])]


class MapKernels(EngineWorkload):
    name = "map_kernels"
    first_run_case = 3  # transpose with its map: two permuted operands

    def make_inputs(self) -> None:
        self.cases = gen.kernel_cases(self.sizes, self.rng())


class ConstructMix(EngineWorkload):
    name = "construct_mix"
    first_run_case = 5  # matmul: the largest fuse build of the six

    def make_inputs(self) -> None:
        self.cases = gen.construct_cases(self.sizes, self.rng())


class BatchLanes(Workload):
    """op = one ``run_batch`` of S instances; work is counted in instances."""

    name = "batch_lanes"

    @property
    def work_per_op(self) -> int:
        return self.sizes["batch_s"]

    def make_inputs(self) -> None:
        rng, n, s = self.rng(), self.sizes["batch_n"], self.sizes["batch_s"]
        # dense lanes converge after 3-4 sweeps, chain lanes need
        # log2(n)+1: lanes retire at different sweeps inside one batch
        self.cases = [
            [
                gen.apsp_case(
                    f"b{b}-lane{k}", n,
                    gen.chain_graph(n, rng) if k % 2 else gen.dense_graph(n, rng),
                )
                for k in range(s)
            ]
            for b in range(self.sizes["batches"])
        ]  # fmt: skip

    def set_up(self) -> None:
        self.store = CompileStore()
        t0 = time.perf_counter()
        with self.tracer.span("interp.ctor", "interp"):
            self.prog = UCProgram(
                uc.APSP_SOLVE_UC, defines={"N": self.sizes["batch_n"]},
                compile_store=self.store,
            )
        ctor_ms = (time.perf_counter() - t0) * 1e3
        run_ms, results = self._run_batch(0, "interp.execute_first")
        self.first = [
            {"ctor_ms": ctor_ms, "execute_ms": run_ms, "compile": results[0].compile}
        ]
        self.first_run_ms.append(ctor_ms + run_ms)

    def all_cases(self) -> List[Case]:
        return [lane for batch in self.cases for lane in batch]

    def programs(self) -> List[UCProgram]:
        return [self.prog]

    def _run_batch(self, i: int, span: str = "interp.execute"):
        inputs = [lane.inputs for lane in self.cases[i]]
        t0 = time.perf_counter()
        with self.tracer.span(span, "interp"):
            results = self.prog.run_batch(inputs)
        return (time.perf_counter() - t0) * 1e3, results

    def op(self, i: int) -> Tuple[float, bool]:
        ms, results = self._run_batch(i)
        self.last[i] = results
        with self.tracer.span("check", "harness"):
            ok = len(results) == len(self.cases[i]) and all(
                lane.check(res, res.fingerprint, self.expected)
                for lane, res in zip(self.cases[i], results)
            )
        return ms, ok


class ColdCli(Workload):
    """op = one ``python -m repro run FILE ...`` subprocess."""

    name = "cold_cli"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def cli(self, argv: List[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=self.env, capture_output=True, text=True, timeout=120,
        )  # fmt: skip

    def make_inputs(self) -> None:
        self.cases = gen.cli_cases(self.sizes, self.seed)

    def set_up(self) -> None:
        corpus = self.workdir / "corpus"
        shutil.rmtree(corpus, ignore_errors=True)
        corpus.mkdir(parents=True)
        self.paths = []
        for case in self.cases:
            path = corpus / f"{case.key}.uc"
            path.write_text(case.source)
            self.paths.append(str(path))
        # a CLI user's bytecode cache is warm; a fresh checkout's is not
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
            check=True, capture_output=True,
        )  # fmt: skip
        shifted = [c.key for c in self.cases].index("shifted")
        proc = self.cli(self.cases[shifted].argv(self.paths[shifted]))
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up CLI run failed: {proc.stderr}")

    def after_set_up(self) -> None:
        # what the first op of a new process pays in the engine alone:
        # construct + first run of the largest corpus program, nothing cached
        big = self.cases[0]
        t0 = time.perf_counter()
        UCProgram(big.source, defines=big.defines, compile_store=None).run()
        self.first_run_ms.append((time.perf_counter() - t0) * 1e3)

    def op(self, i: int) -> Tuple[float, bool]:
        case = self.cases[i]
        argv = case.argv(self.paths[i])
        if self.tracer.enabled:
            # the traced window asks the CLI for its own compile/execute
            # breakdown, which becomes child spans of the subprocess span
            argv.append("--stats")
        t0 = time.perf_counter()
        with self.tracer.span("cli.run", "cli") as span:
            proc = self.cli(argv)
        ms = (time.perf_counter() - t0) * 1e3
        with self.tracer.span("check", "harness"):
            ok = proc.returncode == 0 and self._check(i, case, proc.stdout, span)
        return ms, ok

    def _check(self, i: int, case: CliCase, stdout: str, span) -> bool:
        try:
            out = parse_cli_output(stdout)
        except ValueError:
            return False
        self.last[i] = out
        cm = out.compile_ms
        if cm:
            add = self.tracer.add_child
            add(span, "interp.execute", "interp", cm.get("execute_s", 0.0) * 1e6)
            add(span, "mapping.build_layouts", "mapping", cm.get("layouts_s", 0.0) * 1e6)
            add(span, "lang.front_end", "lang",
                (cm.get("parse_s", 0.0) + cm.get("semantics_s", 0.0)) * 1e6)  # fmt: skip
        return case.check(out, self.expected)


class ServeMix(Workload):
    """Closed loop: 8 clients, each submits its next job only after the
    previous one's terminal result; the harness drives submit/step/result.
    """

    name = "serve_mix"
    CLIENTS = 8
    #: jobs per block: two decks of ``job_stream``, about 0.3 s of work
    BLOCK = 24
    TENANTS = ("alice", "bob", "carol", "dave")

    def config(self, spool: Optional[Path]) -> ServiceConfig:
        return ServiceConfig(
            workers=4, max_queue=self.CLIENTS + 1,
            spool_dir=str(spool) if spool is not None else None,
        )  # fmt: skip

    def spec(self, case: Case, tenant: str) -> JobSpec:
        return JobSpec(
            source=case.source, defines=case.defines, inputs=case.inputs, tenant=tenant
        )

    def make_inputs(self) -> None:
        self.cases = gen.serve_pool(self.sizes, self.rng())

    def fresh_spool(self) -> Path:
        spool = self.workdir / "spool"
        shutil.rmtree(spool, ignore_errors=True)
        return spool

    def set_up(self) -> None:
        self.close()
        self.spool = self.fresh_spool()
        self.svc = ExecutionService(self.config(self.spool))
        # one discarded job per distinct program fills the service's compile
        # store; together they are the cold-start cost of the job mix
        t0 = time.perf_counter()
        for case in {program_key(c): c for c in self.cases}.values():
            self._run_alone(case)
        self.first_run_ms.append((time.perf_counter() - t0) * 1e3)

    def _run_alone(self, case: Case):
        """One job on an otherwise idle service; returns its RunResult."""
        job = self.svc.submit(self.spec(case, self.TENANTS[0]))
        while self.svc.result(job) is None:
            self.svc.step()
        result = self.svc.result(job)
        if not result.ok:
            raise RuntimeError(f"job {case.key} failed: {result.error}")
        return result.run

    def close(self) -> None:
        svc = getattr(self, "svc", None)
        if svc is not None and svc.spool is not None:
            svc.spool.close()
        self.svc = None

    def job_stream(self):
        """The seeded, endless job list: (pool index, tenant).

        Dealt in shuffled decks of 12 — three jobs of each of the four
        shapes, each prefix size once — so the seed decides inputs, order
        and tenants but not how much work a stretch of jobs holds.
        """
        rng = np.random.default_rng([self.seed, 7])
        shapes: Dict[str, List[int]] = {}
        for idx, case in enumerate(self.cases):
            shapes.setdefault(case.key.split("-")[0], []).append(idx)
        while True:
            deck = np.concatenate(
                [rng.choice(group, size=3, replace=len(group) < 3) for group in shapes.values()]
            )
            for idx in rng.permutation(deck):
                yield int(idx), self.TENANTS[rng.integers(4)]

    def window(self, seconds: float, svc: Optional[ExecutionService] = None) -> Window:
        """Run the closed loop for ``seconds``, then let the in-flight
        jobs finish.  An op is one job, submit to terminal result.  A block
        is ``BLOCK`` consecutive completions; every window replays the same
        job list, so its k-th block holds the same jobs each time and is
        sampled like a case of the other workloads.  The drain at the end,
        where fewer than 8 jobs are in flight, belongs to no block."""
        svc = svc or self.svc
        tracer, stream = self.tracer, self.job_stream()
        #: per client: (job id, pool index, submit time) of its open job
        slots: List[Optional[Tuple[str, int, float]]] = [None] * self.CLIENTS
        queued: Dict[str, float] = {}
        latencies: List[float] = []
        block_s: List[List[float]] = []  # seconds per job of each block
        block_p50: List[List[float]] = []
        self.submit_ms: List[float] = []
        self.step_ms: List[float] = []
        self.queue_wait_ms: List[float] = []
        submitted = failed = in_blocks = 0
        t0 = t_block = time.perf_counter()
        with tracer.span("window", "harness"):
            while True:
                if not submitted or time.perf_counter() - t0 < seconds:
                    for c in range(self.CLIENTS):
                        if slots[c] is not None:
                            continue
                        idx, tenant = next(stream)
                        spec = self.spec(self.cases[idx], tenant)
                        t = time.perf_counter()
                        with tracer.span("service.submit", "service", op_id=submitted):
                            job = svc.submit(spec)
                        self.submit_ms.append((time.perf_counter() - t) * 1e3)
                        slots[c] = (job, idx, t)
                        queued[job] = t
                        submitted += 1
                if all(slot is None for slot in slots):
                    break
                t = time.perf_counter()
                with tracer.span("service.step", "service", op_id=-1) as span:
                    svc.step()
                t_end = time.perf_counter()
                self.step_ms.append((t_end - t) * 1e3)
                for job in [j for j in queued if svc.jobs[j].state != QUEUED]:
                    self.queue_wait_ms.append((t_end - queued.pop(job)) * 1e3)
                for c, slot in enumerate(slots):
                    if slot is None or svc.result(slot[0]) is None:
                        continue
                    job, idx, t_submit = slot
                    slots[c] = None
                    latencies.append((t_end - t_submit) * 1e3)
                    failed += not self._job_ok(svc.result(job), idx, span)
                done = len(latencies) - in_blocks
                if done >= self.BLOCK:
                    block_s.append([(t_end - t_block) / done])
                    block_p50.append([statistics.median(latencies[in_blocks:])])
                    in_blocks, t_block = len(latencies), t_end
        elapsed = time.perf_counter() - t0
        failed += len(svc.lost_jobs())
        if not block_s:  # a window shorter than one block
            block_s.append([elapsed / len(latencies)])
            block_p50.append([statistics.median(latencies)])
        return Window(block_p50, latencies, block_s, submitted, failed, elapsed)

    def _job_ok(self, res, idx: int, step_span) -> bool:
        if not res.ok:  # failed or shed at admission
            return False
        self.last[idx] = res.run
        # the engine's share of the step, as the run itself reports it
        self.tracer.add_child(
            step_span, "interp.execute", "interp", res.run.compile["execute_s"] * 1e9
        )
        return self.cases[idx].check(res.run, res.fingerprint, self.expected)

    def programs(self) -> List[UCProgram]:
        progs = {id(p): p for p in (self.svc.program_for(self.spec(c, "")) for c in self.cases)}
        return list(progs.values())

    def complete(self) -> None:
        """Run (untimed) any pool entry the seeded draw never reached, so
        the per-case counters cover the same set whatever the window length."""
        for idx, case in enumerate(self.cases):
            if idx not in self.last:
                self.last[idx] = self._run_alone(case)


WORKLOADS = {
    cls.name: cls
    for cls in (ColdCli, ApspDense, GridFrontier, MapKernels, ConstructMix, BatchLanes, ServeMix)
}
