"""Golden outputs pinned across commits.

The determinism suites compare serial against parallel runs of one commit;
this file compares today's outputs against a committed fixture, so a
refactor that moves a verdict, a stage exit, a single sample or a trace
span fails here.
The fixture holds only integers, booleans and strings, so it is stable
across hosts.

Regenerate (only when a change is *meant* to move outputs)::

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro import test_histogram
from repro.core.closeness import test_closeness
from repro.experiments.workloads import CLOSENESS_REGISTRY, REGISTRY, make, make_pair
from repro.observability.trace import RecordingTracer
from repro.serve.chaos import ChaosConfig, build_requests
from repro.serve.service import TesterService

FIXTURE = Path(__file__).parent / "golden" / "outputs.json"

N, K, EPS, SEED = 3000, 4, 0.3, 20230
BACKENDS = ("pods16", "cdkl22")
CHAOS = dict(sessions=30, n=512, k=4, eps=0.3, fault_rate=0.3, backend="mixed", seed=5)


def _verdict(verdict) -> dict:
    return {
        "accept": bool(verdict.accept),
        "stage": str(verdict.stage),
        "samples_used": int(verdict.samples_used),
        "stage_samples": {str(s): int(v) for s, v in verdict.stage_samples.items()},
    }


def _trace(tracer: RecordingTracer) -> list:
    """The trace's structure: ``[kind, name, depth]`` per event in order,
    plus the integer ``samples`` attribute of every span carrying one."""
    rows = []
    for event in tracer.export():
        row = [event["kind"], event["name"], event["depth"]]
        samples = event["attrs"].get("samples")
        if event["kind"] == "span" and isinstance(samples, int):
            row.append(samples)
        rows.append(row)
    return rows


def identity_outputs() -> dict:
    out = {}
    for f, family in enumerate(sorted(REGISTRY)):
        dist = make(family, N, K, EPS, rng=np.random.default_rng([SEED, f]))
        for b, backend in enumerate(BACKENDS):
            tracer = RecordingTracer()
            verdict = test_histogram(
                dist, K, EPS, rng=np.random.SeedSequence([SEED, f, b]), backend=backend, trace=tracer
            )
            out[f"{family}/{backend}"] = _verdict(verdict) | {"trace": _trace(tracer)}
    return out


def closeness_outputs() -> dict:
    out = {}
    for f, name in enumerate(sorted(CLOSENESS_REGISTRY)):
        p, q = make_pair(name, N, K, EPS, rng=np.random.default_rng([SEED, f]))
        tracer = RecordingTracer()
        verdict = test_closeness(p, q, K, EPS, rng=np.random.SeedSequence([SEED, f]), trace=tracer)
        out[name] = _verdict(verdict) | {
            "samples_p": int(verdict.samples_p),
            "samples_q": int(verdict.samples_q),
            "trace": _trace(tracer),
        }
    return out


def serve_outputs() -> dict:
    service = TesterService()
    for request in build_requests(ChaosConfig(**CHAOS)):
        service.submit(request)
    report = service.run()
    return {
        o.request_id: {
            "state": str(o.state),
            "attempts": int(o.attempts),
            "samples_total": int(o.samples_total),
            "attempt_samples": [int(s) for s in o.attempt_samples],
        }
        for o in report.outcomes
    } | {r.request_id: {"state": "REJECTED"} for r in report.rejections}


def outputs() -> dict:
    return {
        "identity": identity_outputs(),
        "closeness": closeness_outputs(),
        "serve": serve_outputs(),
    }


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_identity_matches_golden():
    assert identity_outputs() == _golden()["identity"]


def test_closeness_matches_golden():
    assert closeness_outputs() == _golden()["closeness"]


def test_serve_drill_matches_golden():
    assert serve_outputs() == _golden()["serve"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
