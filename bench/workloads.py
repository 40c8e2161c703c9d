"""The five benchmark workloads, driven from outside the library.

Each workload makes its inputs from the run seed and hands the library only
those generated inputs.  Work runs in *rounds*: one round is one pass over
the workload's input mix, so a run that stops after whole rounds always
measures the same mix, whatever the seed.

===========  ===============================================================
identity     ``test_histogram`` on 9 ``REGISTRY`` families × {pods16,
             cdkl22}; a round is the 18 ops.
closeness    ``test_closeness`` on the 5 ``CLOSENESS_REGISTRY`` pairs; a
             round is the 5 ops.
serve        one long-lived ``TesterService``; a round is one wave of chaos
             requests, submitted and then ``run()``.
project      ``distance_to_histogram(engine="fast")`` on 4 noisy families;
             a round is the 4 ops.
sweep        ``create_store`` → ``run_fleet`` (2 worker processes) →
             ``assemble``; a round is one sweep of 6 shards.
===========  ===============================================================

Timed rounds call the library exactly as a user would.  Traced rounds make
the same calls with the library's public layer functions wrapped in spans
(:func:`instrument`); no library file is edited.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro import test_closeness, test_histogram
from repro.core import closeness as closeness_module
from repro.core import tester as tester_module
from repro.core.closeness import ClosenessPipeline
from repro.core.tester import TesterPipeline
from repro.distributed.coordinator import assemble, create_store, run_fleet
from repro.distributed.report import summarize
from repro.distributed.spec import SweepSpec, run_shard
from repro.distributions.projection import distance_to_histogram
from repro.experiments.workloads import CLOSENESS_REGISTRY, REGISTRY, make, make_pair
from repro.kernels.dispatch import kernel_seconds_snapshot
from repro.observability.metrics import Counter, get_metrics
from repro.serve import service as service_module
from repro.serve.chaos import ChaosConfig, build_requests
from repro.serve.service import TesterService
from repro.serve.session import SessionState, StreamSession

from spans import Recorder, self_times

# The input mixes are spelled out rather than read from the registries, so
# a family added to the library later does not silently change a workload.
BACKENDS = ("pods16", "cdkl22")
IDENTITY_FAMILIES = (
    "uniform",
    "staircase",
    "random-histogram",
    "spiky-histogram",
    "sawtooth-uniform",
    "sawtooth-staircase",
    "paninski",
    "zipf",
    "bimodal",
)
CLOSENESS_PAIRS = (
    "identical-staircase",
    "identical-random",
    "shifted-staircase",
    "offset-combs",
    "flattening-blind",
)
PROJECT_FAMILIES = ("staircase", "zipf", "random-histogram", "paninski")

#: The registered kernel ops (``repro.kernels.dispatch.registered_ops()``).
KERNEL_OPS = (
    "blocks.build",
    "blocks.cover_walk",
    "chi2.paired_point_terms",
    "chi2.point_terms",
    "dp.segment_first_min",
    "rank_tree.build",
    "rank_tree.interval_stats",
    "rank_tree.prefix_stats",
    "sampling.counts_from_samples",
    "serve.aggregate_rows",
)

#: Pipeline step → span name.  The same names are used for identity,
#: closeness and serve sessions, so ``core.*`` metrics mean the same thing
#: on every workload that reaches the tester.
STEP_SPANS = (
    ("run_partition", "core.partition"),
    ("run_learn", "core.learn"),
    ("run_sieve", "core.sieve"),
    ("run_check", "core.check"),
    ("draw_final_counts", "core.final_draw"),
)
CORE_STAGES = ("partition", "learn", "sieve", "check", "final_draw", "final_stat")

#: Theorem 3.1's per-test error bound: a run whose pooled error rate on
#: certified inputs exceeds it is reported as incorrect.
MAX_ERROR_FRAC = 1.0 / 3.0

#: A recorder that records nothing: untraced rounds pass it where traced
#: rounds pass a live one, so both run the same code.
UNTRACED = Recorder(enabled=False)


def derive_seed(*key: int) -> int:
    """A 32-bit seed that is a pure function of ``key``."""
    return int(np.random.SeedSequence([int(part) for part in key]).generate_state(1)[0])


def kernel_totals() -> dict:
    """Cumulative ``{op: (calls, seconds)}`` over every kernel family."""
    totals: dict = {}
    for op, _kernel, calls, seconds in kernel_seconds_snapshot():
        old_calls, old_seconds = totals.get(op, (0, 0.0))
        totals[op] = (old_calls + calls, old_seconds + seconds)
    return totals


def counter_values() -> dict:
    """Every counter series in the library's metrics registry."""
    return {
        (inst.name, tuple(sorted(inst.labels.items()))): inst.value
        for inst in get_metrics()
        if isinstance(inst, Counter)
    }


class Deltas:
    """Counter and kernel increments accumulated over measured windows."""

    def __init__(self) -> None:
        self.counters: dict = {}
        self.kernels: dict = {}

    @contextmanager
    def measure(self):
        counters, kernels = counter_values(), kernel_totals()
        try:
            yield
        finally:
            for key, value in counter_values().items():
                self.counters[key] = self.counters.get(key, 0) + value - counters.get(key, 0)
            for op, (calls, seconds) in kernel_totals().items():
                old_calls, old_seconds = kernels.get(op, (0, 0.0))
                acc_calls, acc_seconds = self.kernels.get(op, (0, 0.0))
                self.kernels[op] = (
                    acc_calls + calls - old_calls,
                    acc_seconds + seconds - old_seconds,
                )

    def total(self, name: str, **labels: object) -> int:
        return sum(
            value
            for (series, series_labels), value in self.counters.items()
            if series == name
            and all(dict(series_labels).get(k) == v for k, v in labels.items())
        )


# ---------------------------------------------------------------------------
# Instrumentation: spans around the library's public layer functions
# ---------------------------------------------------------------------------


def _step(recorder: Recorder, fn, name: str, drawn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        with recorder.span(
            name,
            request_id=recorder.owners.get(self),
            samples=lambda: drawn(self),
            kernels=True,
        ):
            return fn(self, *args, **kwargs)

    return wrapper


def _call(recorder: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name, kernels=True):
            return fn(*args, **kwargs)

    return wrapper


def _batch(recorder: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(items, *args, **kwargs):
        with recorder.span("serve.batch", kernels=True, items=len(items)):
            return fn(items, *args, **kwargs)

    return wrapper


def _owner(recorder: Recorder, fn):
    """Tag each attempt's pipeline with its session's request id."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        pipeline = fn(self, *args, **kwargs)
        recorder.owners[pipeline] = self.request.request_id
        return pipeline

    return wrapper


@contextmanager
def instrument(recorder: Recorder):
    """Wrap the library's layer entry points in spans inside the block.

    Layers: the stepped pipelines' steps (``core.*``), the final statistic
    (``core.final_stat``), and serve's batched statistic (``serve.batch``).
    Everything is restored on exit.
    """
    patches = []
    pipelines = (
        (TesterPipeline, lambda p: p.source.samples_drawn),
        (ClosenessPipeline, lambda p: p.pair.samples_drawn),
    )
    for cls, drawn in pipelines:
        for attr, name in STEP_SPANS:
            patches.append((cls, attr, _step(recorder, getattr(cls, attr), name, drawn)))
    for module, attr in (
        (tester_module, "median_interval_statistics"),
        (closeness_module, "median_paired_interval_statistics"),
    ):
        patches.append((module, attr, _call(recorder, getattr(module, attr), "core.final_stat")))
    patches.append(
        (
            service_module,
            "compute_final_statistics",
            _batch(recorder, service_module.compute_final_statistics),
        )
    )
    patches.append((StreamSession, "start_attempt", _owner(recorder, StreamSession.start_attempt)))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Workload scaffolding
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Round:
    """What one round did: busy time, per-op latencies, outputs."""

    busy: float = 0.0
    latencies: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: One dict per op; tester ops carry id/accept/stage/samples/expected.
    records: list = dataclasses.field(default_factory=list)
    #: Canonical text of the round's outputs (hashed into outputs_digest).
    digest: str = ""
    extra: dict = dataclasses.field(default_factory=dict)

    def fail(self, op_id: str, exc: BaseException) -> None:
        self.failed += 1
        print(f"op {op_id} raised {type(exc).__name__}: {exc}", file=sys.stderr)


class Workload:
    """Base class: seeded inputs, rounds, correctness problems."""

    name = ""
    defaults: dict = {}
    #: Span around one op in traced rounds ("" when ops are not spans).
    op_span = ""

    def __init__(self, seed: int, out_dir: "str | os.PathLike", **overrides: object) -> None:
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ValueError(f"{self.name}: unknown parameters {sorted(unknown)}")
        self.seed = int(seed)
        self.out_dir = Path(out_dir)
        self.p = {**self.defaults, **overrides}
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(f"{self.name}: {message}")

    def setup(self) -> None:
        """Generate inputs, build long-lived objects, run one warm-up op."""
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Start a pass over the rounds: fresh long-lived state, if any."""

    def prefix_rounds(self) -> int:
        """Rounds in a traced pass: the first quarter of the op list."""
        return max(1, self.p["rounds"] // 4)

    def run_round(self, r: int, recorder: Recorder) -> Round:
        raise NotImplementedError

    def traced_round(self, r: int, recorder: Recorder) -> Round:
        with instrument(recorder) if recorder.enabled else nullcontext():
            return self.run_round(r, recorder)

    def profile(self, recorder: Recorder) -> None:
        """Once-per-traced-run measurements outside the paired passes."""

    def finish(self, rounds: list) -> None:
        """Checks after the timed pass."""

    def layer_metrics(self, spans: list, traced: list, untraced: list, deltas: Deltas, ops: int) -> dict:
        """Workload-specific per-layer metrics."""
        return {}

    def close(self) -> None:
        """Release files the workload created."""


@dataclasses.dataclass(frozen=True)
class TesterOp:
    id: str
    inputs: tuple
    rng: int
    backend: str
    expected: "bool | None"


class TesterOps(Workload):
    """Closed loop, one client: one tester call per op."""

    def call(self, op: TesterOp):
        raise NotImplementedError

    def run_round(self, r: int, recorder: Recorder) -> Round:
        out = Round()
        ops = self.ops[r % len(self.ops)]
        start = time.perf_counter()
        for op in ops:
            op_id = f"r{r}-{op.id}"
            tick = time.perf_counter()
            try:
                with recorder.span(self.op_span, request_id=op_id) as span:
                    verdict = self.call(op)
                    span["samples"] = verdict.samples_used
            except Exception as exc:  # one failed op must not stop the run
                out.fail(op_id, exc)
                continue
            out.latencies.append(time.perf_counter() - tick)
            self.check(
                sum(verdict.stage_samples.values()) == verdict.samples_used,
                f"{op_id}: stage samples do not sum to samples_used",
            )
            out.records.append(
                {
                    "id": op_id,
                    "accept": bool(verdict.accept),
                    "stage": verdict.stage,
                    "samples": int(verdict.samples_used),
                    "expected": op.expected,
                }
            )
        out.busy = time.perf_counter() - start
        out.attempted = len(ops)
        out.digest = json.dumps(
            [[rec["accept"], rec["stage"], rec["samples"]] for rec in out.records]
        )
        return out


class Identity(TesterOps):
    name = "identity"
    defaults = dict(n=100_000, k=8, eps=0.2, rounds=5)
    op_span = "identity.op"

    def setup(self) -> None:
        n, k, eps = self.p["n"], self.p["k"], self.p["eps"]
        self.ops = []
        for r in range(self.p["rounds"]):
            row = []
            for f, family in enumerate(IDENTITY_FAMILIES):
                dist = make(family, n, k, eps, rng=np.random.default_rng(derive_seed(self.seed, r, f)))
                expected = {"complete": True, "far": False}.get(REGISTRY[family].nature)
                for b, backend in enumerate(BACKENDS):
                    rng = derive_seed(self.seed, r, f, b)
                    row.append(TesterOp(f"{family}-{backend}", (dist,), rng, backend, expected))
            self.ops.append(row)
        self.call(self.ops[0][0])

    def call(self, op: TesterOp):
        return test_histogram(
            op.inputs[0], self.p["k"], self.p["eps"], rng=op.rng, backend=op.backend
        )


class Closeness(TesterOps):
    name = "closeness"
    defaults = dict(n=100_000, k=8, eps=0.2, rounds=60, instances=4)
    op_span = "closeness.op"

    def setup(self) -> None:
        n, k, eps = self.p["n"], self.p["k"], self.p["eps"]
        # Every op gets its own tester seed; the pairs themselves come from
        # a pool of `instances` draws per family, which bounds memory at
        # n = 100000 (two pmfs per pair).
        pool = [
            [
                make_pair(name, n, k, eps, rng=np.random.default_rng(derive_seed(self.seed, i, f)))
                for f, name in enumerate(CLOSENESS_PAIRS)
            ]
            for i in range(self.p["instances"])
        ]
        self.ops = [
            [
                TesterOp(
                    name,
                    pool[r % len(pool)][f],
                    derive_seed(self.seed, r, f, 1),
                    "",
                    CLOSENESS_REGISTRY[name].nature == "close",
                )
                for f, name in enumerate(CLOSENESS_PAIRS)
            ]
            for r in range(self.p["rounds"])
        ]
        self.call(self.ops[0][0])

    def call(self, op: TesterOp):
        p, q = op.inputs
        return test_closeness(p, q, self.p["k"], self.p["eps"], rng=op.rng)


#: Sessions in serve's warm-up run (a slice of wave 0, on a throwaway service).
WARM_UP_SESSIONS = 20


class Serve(Workload):
    name = "serve"
    defaults = dict(
        rounds=32, sessions=200, n=512, k=4, eps=0.3, fault_rate=0.1, backend="mixed"
    )

    def setup(self) -> None:
        self.waves = []
        self.info = []  # per wave, per request: (registry nature, fault injected?)
        for w in range(self.p["rounds"]):
            config = ChaosConfig(
                sessions=self.p["sessions"],
                n=self.p["n"],
                k=self.p["k"],
                eps=self.p["eps"],
                fault_rate=self.p["fault_rate"],
                backend=self.p["backend"],
                seed=self.seed + w,
            )
            wave = [
                dataclasses.replace(request, request_id=f"w{w:02d}-{request.request_id}")
                for request in build_requests(config)
            ]
            self.waves.append(wave)
            self.info.append(
                [
                    (
                        REGISTRY[config.workloads[i % len(config.workloads)]].nature,
                        request.faults is not None
                        or request.deadline_ticks is not None
                        or request.projection_fault,
                    )
                    for i, request in enumerate(wave)
                ]
            )
        warm = TesterService()
        for request in self.waves[0][:WARM_UP_SESSIONS]:
            warm.submit(request)
        warm.run()
        self.begin_pass()

    def begin_pass(self) -> None:
        # One service per mode, so traced and untraced waves interleave.
        self.services = {False: TesterService(), True: TesterService()}

    def run_round(self, r: int, recorder: Recorder) -> Round:
        w = r % len(self.waves)
        wave = self.waves[w]
        if r >= len(self.waves):  # a long-lived service needs unique ids
            wave = [
                dataclasses.replace(q, request_id=f"c{r}-{q.request_id}") for q in wave
            ]
        info = {q.request_id: item for q, item in zip(wave, self.info[w])}
        service = self.services[recorder.enabled]
        first_round = service.rounds_run + 1
        with recorder.span("serve.wave", request_id=f"wave-{r}") as wave_span:
            start = time.perf_counter()
            with recorder.span("serve.submit"):
                for request in wave:
                    service.submit(request)
            with recorder.span("serve.run"):
                report = service.run()
            busy = time.perf_counter() - start
        outcomes = [o for o in report.outcomes[-len(wave):] if o.request_id in info]
        rejected = [x for x in report.rejections if x.request_id in info]
        self.check(
            len(outcomes) + len(rejected) == len(wave),
            f"wave {r}: {len(outcomes)} outcomes + {len(rejected)} rejections "
            f"for {len(wave)} requests",
        )
        out = Round(busy=busy, attempted=len(wave), failed=len(rejected))
        for o in outcomes:
            nature, faulty = info[o.request_id]
            self.check(o.state in SessionState.TERMINAL, f"{o.request_id} ended {o.state}")
            self.check(
                o.samples_total == sum(o.attempt_samples),
                f"{o.request_id}: samples_total != sum(attempt_samples)",
            )
            if o.state == SessionState.EVICTED and not faulty:
                out.failed += 1
            certified = not faulty and nature in ("complete", "far")
            out.latencies.append(o.wall_seconds)
            out.records.append(
                {
                    "id": o.request_id,
                    "accept": o.accept,
                    "stage": o.stage,
                    "samples": o.samples_total,
                    "expected": (nature == "complete") if certified else None,
                    "state": o.state,
                    "attempts": o.attempts,
                    "wait_rounds": o.admitted_round - first_round,
                }
            )
        wave_span["samples"] = sum(rec["samples"] for rec in out.records)
        out.extra = {"rounds": service.rounds_run - first_round + 1}
        if r == 0:
            out.digest = report.canonical_json()
        return out

    def finish(self, rounds: list) -> None:
        """Replay wave 0 on a fresh service: the report must be identical."""
        replay = TesterService()
        for request in self.waves[0]:
            replay.submit(request)
        self.check(
            replay.run().canonical_json() == rounds[0].digest,
            "same-seed replay of wave 0 is not byte-identical",
        )

    def layer_metrics(self, spans, traced, untraced, deltas, ops):
        own = self_times(spans)
        batches = [s for s in spans if s["name"] == "serve.batch"]
        records = [rec for rnd in traced for rec in rnd.records]
        submitted = sum(rnd.attempted for rnd in traced)
        evicted = sum(1 for rec in records if rec["state"] == SessionState.EVICTED)
        rejected = submitted - len(records)

        def ratio(name: str) -> float:
            hits = deltas.total(name, result="hit")
            lookups = hits + deltas.total(name, result="miss")
            return hits / lookups if lookups else 0.0

        return {
            "serve.batch_s": sum(s["end"] - s["start"] for s in batches) / ops,
            "serve.sessions_per_batch": (
                sum(s["attrs"]["items"] for s in batches) / len(batches) if batches else 0.0
            ),
            "serve.residual_s": sum(
                own[s["span_id"]] for s in spans if s["name"] == "serve.run"
            ) / ops,
            "serve.admit_wait_rounds": sum(rec["wait_rounds"] for rec in records) / ops,
            "serve.rounds_per_wave": sum(rnd.extra["rounds"] for rnd in traced) / len(traced),
            "serve.check_cache_hit_ratio": ratio("serve.check_cache"),
            "serve.project_cache_hit_ratio": ratio("serve.project_cache"),
            "serve.retries_per_session": deltas.total("serve.retries") / ops,
            "serve.attempts_per_session": sum(rec["attempts"] for rec in records) / ops,
            "serve.breaker_trips": deltas.total("serve.breaker_trips") / ops,
            "serve.projection_fallbacks": deltas.total("serve.projection_fallbacks") / ops,
            "serve.evicted_frac": (evicted + rejected) / submitted,
            "serve.op_s_p99": percentile(
                sorted(x for rnd in untraced for x in rnd.latencies), 99
            ),
        }


class Project(Workload):
    name = "project"
    defaults = dict(n=512, k=16, noise=0.05, rounds=20)
    op_span = "projection.op"

    def setup(self) -> None:
        n, noise = self.p["n"], self.p["noise"]
        self.inputs = []
        for r in range(self.p["rounds"]):
            row = []
            for f, family in enumerate(PROJECT_FAMILIES):
                gen = np.random.default_rng(derive_seed(self.seed, r, f))
                base = make(family, n, self.p["k"], 0.2, rng=gen).pmf
                row.append((family, (1.0 - noise) * base + noise * gen.dirichlet(np.ones(n))))
            self.inputs.append(row)
        self.reference = self.project(self.inputs[0][0][1])

    def project(self, pmf: np.ndarray, engine: str = "fast") -> float:
        return distance_to_histogram(pmf, self.p["k"], engine=engine)

    def run_round(self, r: int, recorder: Recorder) -> Round:
        out = Round()
        row = self.inputs[r % len(self.inputs)]
        start = time.perf_counter()
        for family, pmf in row:
            op_id = f"r{r}-{family}"
            tick = time.perf_counter()
            try:
                with recorder.span(self.op_span, request_id=op_id, kernels=True):
                    distance = self.project(pmf)
            except Exception as exc:  # one failed op must not stop the run
                out.fail(op_id, exc)
                continue
            out.latencies.append(time.perf_counter() - tick)
            self.check(0.0 <= distance <= 1.0, f"{op_id}: distance {distance} outside [0, 1]")
            out.records.append({"id": op_id, "distance": distance})
        out.busy = time.perf_counter() - start
        out.attempted = len(row)
        out.digest = json.dumps([repr(rec["distance"]) for rec in out.records])
        if r % len(self.inputs) == 0 and out.records:
            self.check(
                out.records[0]["distance"] == self.reference,
                "round 0 distance differs from the warm-up computation of the same input",
            )
        return out

    def profile(self, recorder: Recorder) -> None:
        """Fast-vs-dense agreement and the traced peak memory of one op
        (tracemalloc slows the op ~4x, so it stays out of the passes)."""
        pmf = self.inputs[0][0][1]
        dense = self.project(pmf, engine="dense")
        self.check(
            abs(dense - self.reference) <= 1e-12,
            f"fast engine {self.reference!r} disagrees with dense {dense!r}",
        )
        tracemalloc.start()
        try:
            self.project(pmf)
            self.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def layer_metrics(self, spans, traced, untraced, deltas, ops):
        own = self_times(spans)
        return {
            "projection.residual_s": sum(
                own[s["span_id"]] for s in spans if s["name"] == self.op_span
            ) / ops,
            "projection.peak_mb": self.peak_mb,
        }


class Sweep(Workload):
    name = "sweep"
    defaults = dict(
        values=(2048, 4096, 8192, 16384, 32768, 65536),
        k=8,
        eps=0.3,
        trials=4,
        bisection_steps=2,
        processes=2,
        lease_seconds=5.0,
        rounds=6,
    )

    def setup(self) -> None:
        values = tuple(self.p["values"])
        self.specs = [
            SweepSpec(
                axis="n",
                values=values,
                n=values[0],
                k=self.p["k"],
                eps=self.p["eps"],
                trials=self.p["trials"],
                bisection_steps=self.p["bisection_steps"],
                seed=derive_seed(self.seed, r),
            )
            for r in range(self.p["rounds"])
        ]
        self.store_dir = self.out_dir / f"stores-{os.getpid()}"
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.stores = 0
        run_shard(self.specs[0], 0)

    def _store_path(self) -> Path:
        self.stores += 1
        return self.store_dir / f"sweep-{self.stores}.sqlite"

    def _check_store(self, store, label: str) -> list:
        """Zero drift, every shard committed exactly once; returns rows."""
        shards = len(self.specs[0].values)
        self.check(summarize(store).total_drift == 0, f"{label}: sample drift")
        commits: dict = {}
        for event in store.events():
            if event["kind"] == "commit":
                commits[event["shard_id"]] = commits.get(event["shard_id"], 0) + 1
        self.check(
            len(commits) == shards and set(commits.values()) == {1},
            f"{label}: shards not committed exactly once ({commits})",
        )
        rows = store.results()
        self.check(len(rows) == shards, f"{label}: {len(rows)} results for {shards} shards")
        return rows

    def run_round(self, r: int, recorder: Recorder) -> Round:
        """One sweep on a fresh store, driven by a 2-process fleet."""
        spec = self.specs[r % len(self.specs)]
        path = self._store_path()
        start = time.perf_counter()
        store = create_store(path, spec, resume=False)
        try:
            fleet_start, wall_start = time.perf_counter(), time.time()
            report = run_fleet(
                store, processes=self.p["processes"], lease_seconds=self.p["lease_seconds"]
            )
            fleet_end = time.perf_counter()
            assemble(store)
            end = time.perf_counter()
            events = list(store.events())
            rows = self._check_store(store, f"sweep {r}")
        finally:
            store.close()
            _remove_store(path)
        claims = [e for e in events if e["kind"] == "claim"]
        shards = shard_spans(events)
        out = Round(
            busy=end - start,
            latencies=[commit - claim for _shard, _worker, claim, commit in shards],
            attempted=len(claims),
            failed=len(claims) - len(shards),
        )
        out.digest = json.dumps([row.result for row in rows], sort_keys=True)
        out.extra = dict(
            report=report,
            events=events,
            shards=shards,
            samples={row.shard_id: row.samples_total for row in rows},
            times=(start, fleet_start, fleet_end, end),
            wall_start=wall_start,
        )
        return out

    def traced_round(self, r: int, recorder: Recorder) -> Round:
        """claim → run_shard → commit in-process on a temporary store."""
        spec = self.specs[r % len(self.specs)]
        path = self._store_path()
        store = create_store(path, spec, resume=False)
        out = Round()
        try:
            start = time.perf_counter()
            with recorder.span("sweep.local", request_id=f"sweep-{r}"):
                while True:
                    with recorder.span("store.claim"):
                        lease = store.claim("bench", lease_seconds=3600.0)
                    if lease is None:
                        break
                    shard_id = lease.shard.shard_id
                    tick = time.perf_counter()
                    with recorder.span("experiments.shard", request_id=shard_id, kernels=True) as span:
                        result = run_shard(spec, lease.shard.index)
                        span["samples"] = result.samples_total
                    with recorder.span("store.commit", request_id=shard_id):
                        committed = store.commit(
                            shard_id,
                            "bench",
                            result={"index": result.index, "point": result.point},
                            trace=result.trace,
                            samples_total=result.samples_total,
                            trials_total=result.trials_total,
                        )
                    out.latencies.append(time.perf_counter() - tick)
                    out.attempted += 1
                    out.failed += 0 if committed else 1
                    out.records.append(
                        {"id": shard_id, "samples": result.samples_total, "trials": result.trials_total}
                    )
                with recorder.span("store.assemble"):
                    assemble(store)
            out.busy = time.perf_counter() - start
            rows = self._check_store(store, f"local sweep {r}")
        finally:
            store.close()
            _remove_store(path)
        out.digest = json.dumps([row.result for row in rows], sort_keys=True)
        if r == 0 and hasattr(self, "fleet"):
            self.check(
                out.digest == self.fleet.digest,
                "in-process sweep results differ from the fleet's",
            )
        return out

    def profile(self, recorder: Recorder) -> None:
        """One fleet sweep, turned into spans from the store's audit log."""
        fleet = self.fleet = self.run_round(0, UNTRACED)
        start, fleet_start, fleet_end, end = fleet.extra["times"]

        def at(wall: float) -> float:
            return fleet_start + (wall - fleet.extra["wall_start"])

        root = recorder.add("sweep.fleet", start, end, parent=None, request_id="sweep-0")
        recorder.add("store.create", start, fleet_start, parent=root)
        report = fleet.extra["report"]
        node = recorder.add(
            "fleet.run", fleet_start, fleet_end, parent=root, restarts=report.restarts
        )
        shards = fleet.extra["shards"]
        first_claim = min(at(claim) for _s, _w, claim, _c in shards)
        last_commit = max(at(commit) for _s, _w, _c, commit in shards)
        recorder.add("fleet.spawn", fleet_start, first_claim, parent=node)
        for worker in sorted({w for _s, w, _c, _c2 in shards}):
            mine = [s for s in shards if s[1] == worker]
            lane = recorder.add(
                "fleet.worker",
                min(at(c) for _s, _w, c, _c2 in mine),
                max(at(c) for _s, _w, _c, c in mine),
                parent=node,
                request_id=worker,
            )
            for shard_id, _w, claim, commit in mine:
                recorder.add(
                    "fleet.shard",
                    at(claim),
                    at(commit),
                    parent=lane,
                    request_id=shard_id,
                    samples=fleet.extra["samples"][shard_id],
                )
        recorder.add("fleet.tail", last_commit, fleet_end, parent=node)
        recorder.add("store.assemble", fleet_end, end, parent=root)

    def layer_metrics(self, spans, traced, untraced, deltas, ops):
        fleet = self.fleet
        start, fleet_start, fleet_end, end = fleet.extra["times"]
        shards = fleet.extra["shards"]
        offset = fleet_start - fleet.extra["wall_start"]
        first_claim = min(claim for _s, _w, claim, _c in shards) + offset
        last_commit = max(commit for _s, _w, _c, commit in shards) + offset
        busy = sum(commit - claim for _s, _w, claim, commit in shards)
        kinds = [e["kind"] for e in fleet.extra["events"]]
        records = [rec for rnd in traced for rec in rnd.records]

        def per_shard(name: str) -> float:
            return sum(s["end"] - s["start"] for s in spans if s["name"] == name) / ops

        return {
            "fleet.spawn_s": first_claim - fleet_start,
            "fleet.span_s": busy / len(shards),
            "fleet.imbalance_s": (last_commit - first_claim) - busy / self.p["processes"],
            "fleet.tail_s": fleet_end - last_commit,
            "fleet.heartbeats": kinds.count("heartbeat"),
            "fleet.expiries": kinds.count("expire"),
            "fleet.restarts": fleet.extra["report"].restarts,
            "store.claim_s": per_shard("store.claim"),
            "store.commit_s": per_shard("store.commit"),
            "store.assemble_s": sum(
                s["end"] - s["start"] for s in spans if s["name"] == "store.assemble"
                and s["parent_id"] is not None and spans[s["parent_id"]]["name"] == "sweep.local"
            ) / len(traced),
            "experiments.shard_s": per_shard("experiments.shard"),
            "experiments.evaluations_per_shard": sum(rec["trials"] for rec in records) / ops,
            "experiments.samples_per_shard": sum(rec["samples"] for rec in records) / ops,
        }

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def shard_spans(events: list) -> list:
    """``(shard_id, worker_id, claim_at, commit_at)`` per committed shard,
    pairing each commit with the same worker's latest claim of the shard."""
    claimed: dict = {}
    spans = []
    for event in events:
        key = (event["shard_id"], event["worker_id"])
        if event["kind"] == "claim":
            claimed[key] = event["at"]
        elif event["kind"] == "commit" and key in claimed:
            spans.append((event["shard_id"], event["worker_id"], claimed[key], event["at"]))
    return spans


WORKLOADS = {cls.name: cls for cls in (Identity, Closeness, Serve, Project, Sweep)}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def percentile(ordered: list, q: float) -> float:
    """Linear-interpolated ``q``-th percentile of a sorted list."""
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def setup_seconds(w: Workload, repeats: int = 5) -> float:
    """Set the workload up ``repeats`` times; the median time."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def error_frac(records: list) -> float:
    judged = [r for r in records if r.get("expected") is not None and r["accept"] is not None]
    wrong = sum(1 for r in judged if r["accept"] != r["expected"])
    return wrong / len(judged) if judged else 0.0


def timed_run(w: Workload, seconds: float) -> tuple[dict, list]:
    """Untraced whole rounds until ``seconds`` of busy time (at least one).

    Returns the end-to-end metrics except ``setup_s`` and ``peak_rss_mb``:
    the median over rounds of each round's throughput and latency
    percentiles.  Every round runs the same input mix, so rounds are
    comparable, and a median over them shrugs off the few-second slow
    episodes a shared machine has, which a pooled total does not.
    """
    w.begin_pass()
    rounds: list[Round] = []
    busy = 0.0
    while not rounds or busy < seconds:
        rounds.append(w.run_round(len(rounds), UNTRACED))
        busy += rounds[-1].busy
    w.finish(rounds)
    records = [rec for rnd in rounds for rec in rnd.records]
    w.check(
        error_frac(records) <= MAX_ERROR_FRAC,
        f"error rate {error_frac(records):.3f} on certified inputs exceeds {MAX_ERROR_FRAC:.3f}",
    )
    measured = [rnd for rnd in rounds if rnd.latencies]
    metrics = {
        "ops_per_s": statistics.median(len(rnd.latencies) / rnd.busy for rnd in measured),
        "op_s_p50": statistics.median(percentile(sorted(rnd.latencies), 50) for rnd in measured),
        "op_s_p90": statistics.median(percentile(sorted(rnd.latencies), 90) for rnd in measured),
    }
    return metrics, rounds


def traced_run(w: Workload, seconds: float) -> tuple[dict, list, Recorder]:
    """Passes over the first quarter of the rounds, each round run once
    untraced and once traced, until ``seconds`` have passed (at least one
    pass).

    Per-layer metrics come from the traced rounds; their untraced twins
    price the tracing itself (``trace.overhead_frac``).  The twins run back
    to back, first one then the other in turn, so both see the same
    machine state.
    """
    recorder = Recorder(kernel_totals=kernel_totals)
    deltas = Deltas()
    w.profile(recorder)
    untraced: list[Round] = []
    traced: list[Round] = []
    prefix = w.prefix_rounds()
    start = time.perf_counter()
    last = 0.0
    # Stop before a pass that would end past `seconds`.
    while not traced or time.perf_counter() - start + last <= seconds:
        tick = time.perf_counter()
        w.begin_pass()
        for r in range(prefix):
            order = (UNTRACED, recorder) if len(traced) % 2 == 0 else (recorder, UNTRACED)
            for rec in order:
                with deltas.measure() if rec.enabled else nullcontext():
                    rnd = w.traced_round(r, rec)
                (traced if rec.enabled else untraced).append(rnd)
        last = time.perf_counter() - tick
    for rounds in (untraced, traced):
        for r in range(0, len(rounds), prefix):
            w.check(
                rounds[r].digest == untraced[0].digest,
                "outputs differ between traced and untraced passes",
            )
    metrics = per_layer_metrics(w, recorder.spans, traced, untraced, deltas)
    metrics["trace.overhead_frac"] = (
        sum(r.busy for r in traced) / sum(r.busy for r in untraced) - 1.0
    )
    return metrics, untraced + traced, recorder


def per_layer_metrics(
    w: Workload, spans: list, traced: list, untraced: list, deltas: Deltas
) -> dict:
    """Per-layer metrics; a layer the workload does not reach reads 0."""
    ops = max(1, sum(len(rnd.latencies) for rnd in traced))
    metrics: dict = {}

    def spans_named(name: str) -> list:
        return [s for s in spans if s["name"] == name]

    for stage in CORE_STAGES:
        chosen = spans_named(f"core.{stage}")
        metrics[f"core.{stage}_s"] = sum(s["end"] - s["start"] for s in chosen) / ops
    for stage, span_name in (
        ("partition", "core.partition"),
        ("learn", "core.learn"),
        ("sieve", "core.sieve"),
        ("final", "core.final_draw"),
    ):
        metrics[f"core.{stage}_samples"] = sum(s["samples"] for s in spans_named(span_name)) / ops
    own = self_times(spans)
    if isinstance(w, TesterOps):  # serve sessions interleave: no op span
        metrics["core.residual_s"] = sum(own[s["span_id"]] for s in spans_named(w.op_span)) / ops
    metrics["core.escalation_frac"] = deltas.total("tester.chi2_escalations") / ops

    records = [rec for rnd in traced for rec in rnd.records if "stage" in rec]
    verdicts = [rec for rec in records if rec["stage"] is not None]
    for stage in ("sieve", "check", "chi2"):
        metrics[f"core.exit_{stage}_frac"] = (
            sum(1 for rec in verdicts if rec["stage"] == stage) / len(verdicts) if verdicts else 0.0
        )
    metrics["core.samples_per_op"] = (
        sum(rec["samples"] for rec in records) / len(records) if records else 0.0
    )
    metrics["core.error_frac"] = error_frac(records)
    _check_span_samples(w, spans, records)

    for op in KERNEL_OPS:
        calls, seconds = deltas.kernels.get(op, (0, 0.0))
        metrics[f"kernels.{op}_s"] = seconds / ops
        metrics[f"kernels.{op}_calls"] = calls / ops
    evals = deltas.total("projection.oracle_cost_evals")
    hits = deltas.total("projection.oracle_cache_hits")
    metrics["projection.cost_evals"] = evals / ops
    metrics["projection.cache_hit_ratio"] = hits / (hits + evals) if hits + evals else 0.0
    metrics.update(w.layer_metrics(spans, traced, untraced, deltas, ops))
    return metrics


def _check_span_samples(w: Workload, spans: list, records: list) -> None:
    """Every sample an op drew is attributed to one of its stage spans."""
    # Op ids repeat across passes, so both sides are summed per id.
    in_spans: dict = {}
    for s in spans:
        if s["name"].startswith("core."):
            in_spans[s["request_id"]] = in_spans.get(s["request_id"], 0) + s["samples"]
    drawn: dict = {}
    for rec in records:
        drawn[rec["id"]] = drawn.get(rec["id"], 0) + rec["samples"]
    for op_id, samples in drawn.items():
        w.check(
            in_spans.get(op_id, 0) == samples,
            f"{op_id}: stage spans hold {in_spans.get(op_id, 0)} samples, the op drew {samples}",
        )
