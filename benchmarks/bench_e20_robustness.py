"""E20 (robustness) — soundness under contamination.

The paper's guarantees assume a pristine i.i.d. stream; this experiment
measures what actually happens when the stream is Huber-contaminated: a true
k-histogram's samples are replaced, at rate ``r ∈ [0, ε]``, by draws from an
adversarial fine comb (far from every small-k histogram).  The mixture drifts
away from ``H_k`` as ``r`` grows, so the acceptance rate must *degrade* from
the completeness plateau toward rejection — an empirical
soundness-under-contamination curve the paper never plots, for both the
``paper`` and ``practical`` constant profiles.

At ``r = 0`` the fault wrapper is a byte-identical passthrough, so that
column reproduces the seed completeness numbers (within the binomial CI).
Trials run under the fault-isolation policy (bounded retry, per-trial
deadline), and the grid commits each point to a sqlite checkpoint store —
interrupt with SIGINT and rerun with the same ``--checkpoint`` to continue
from the completed points.  Results are emitted as a JSON degradation
curve.

Usage::

    python benchmarks/bench_e20_robustness.py [--smoke] [--out curve.json]
        [--checkpoint e20.sqlite] [--fresh]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import EPS, K, N, TRIALS, check, checkpointed_loop

from repro.core.config import TesterConfig
from repro.core.tester import test_histogram
from repro.distributions import families
from repro.experiments.report import print_experiment
from repro.experiments.runner import robust_acceptance_probability
from repro.robustness import FaultConfig, FaultInjectingSource, RetryPolicy, TrialPolicy
from repro.util.rng import child_rng

PROFILES = ("practical", "paper")


def _rates(smoke: bool, eps: float) -> list[float]:
    steps = 3 if smoke else 6
    return [round(eps * i / (steps - 1), 6) for i in range(steps)]


def _measure_point(
    point: dict, *, n: int, k: int, eps: float, trials: int, seed: int
) -> dict:
    profile, rate = point["profile"], point["rate"]
    config = TesterConfig.paper() if profile == "paper" else TesterConfig.practical()
    contaminant = families.two_level_comb(n, teeth=max(2, n // 16))
    faults = FaultConfig(contamination_rate=rate, contaminant=contaminant)
    policy = TrialPolicy(
        retry=RetryPolicy(max_attempts=2),
        trial_timeout=120.0,
        max_failure_rate=0.5,
    )
    estimate = robust_acceptance_probability(
        lambda gen: families.staircase(n, k).to_distribution(),
        lambda src: test_histogram(src, k, eps, config=config).accept,
        trials=trials,
        rng=seed,
        policy=policy,
        wrap_source=lambda source, gen: FaultInjectingSource(
            source, faults, child_rng(gen)
        ),
    )
    return {
        "profile": profile,
        "rate": rate,
        "accept_rate": estimate.rate,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "mean_samples": estimate.mean_samples,
        "failed_trials": len(estimate.failures),
        "attempted_trials": estimate.attempted,
    }


def run_curves(
    *,
    n: int = N,
    k: int = K,
    eps: float = EPS,
    trials: int = TRIALS,
    smoke: bool = False,
    checkpoint: str | None = None,
    resume: bool = True,
) -> dict:
    if smoke:
        n, trials = min(n, 2048), min(trials, 6)
    rates = _rates(smoke, eps)
    grid = [
        {"profile": profile, "rate": rate} for profile in PROFILES for rate in rates
    ]
    fingerprint = {
        "experiment": "E20",
        "n": n,
        "k": k,
        "eps": eps,
        "trials": trials,
        "rates": rates,
        "profiles": list(PROFILES),
    }
    rows = checkpointed_loop(
        grid,
        lambda point: _measure_point(
            point,
            n=n,
            k=k,
            eps=eps,
            trials=trials,
            seed=20_000 + grid.index(point),
        ),
        checkpoint=checkpoint,
        fingerprint=fingerprint,
        resume=resume,
    )
    curves = {profile: [r for r in rows if r["profile"] == profile] for profile in PROFILES}
    return {
        "experiment": "E20",
        "n": n,
        "k": k,
        "eps": eps,
        "trials": trials,
        "contaminant": "two-level comb",
        "curves": curves,
    }


def report(result: dict) -> None:
    rows = [
        [
            profile,
            point["rate"],
            point["accept_rate"],
            point["ci_low"],
            point["ci_high"],
            point["failed_trials"],
        ]
        for profile in PROFILES
        for point in result["curves"][profile]
    ]
    print_experiment(
        f"E20: acceptance under Huber contamination "
        f"(n={result['n']}, k={result['k']}, eps={result['eps']}, "
        f"{result['trials']} trials)",
        ["profile", "contam. rate", "accept rate", "99% CI low", "99% CI high", "failed"],
        rows,
    )
    for profile in PROFILES:
        curve = result["curves"][profile]
        clean, dirty = curve[0], curve[-1]
        check(f"{profile}: clean completeness >= 2/3", clean["accept_rate"] >= 2 / 3)
        check(
            f"{profile}: degrades under contamination",
            dirty["accept_rate"] <= clean["accept_rate"],
        )


def test_e20_robustness(benchmark):
    result = benchmark.pedantic(run_curves, rounds=1, iterations=1)
    report(result)
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small fast grid (<60 s)")
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--k", type=int, default=K)
    parser.add_argument("--eps", type=float, default=EPS)
    parser.add_argument("--trials", type=int, default=TRIALS)
    parser.add_argument("--out", default=None, help="write the JSON curve here")
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="per-point sqlite checkpoint store (a store of this grid "
        "resumes automatically after an interruption; another grid's is "
        "refused)",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="delete any existing checkpoint store instead of resuming",
    )
    args = parser.parse_args(argv)
    result = run_curves(
        n=args.n,
        k=args.k,
        eps=args.eps,
        trials=args.trials,
        smoke=args.smoke,
        checkpoint=args.checkpoint,
        resume=not args.fresh,
    )
    report(result)
    payload = json.dumps(result, indent=2)
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
