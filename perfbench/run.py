#!/usr/bin/env python3
"""rngswarm benchmark: rounds per second on seeded workloads.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. Workloads: `batch` (one period of the tier-1 acceptance mix),
`scenarios` (the four bundled scenario files, load -> run -> write_metrics)
and `large_swarm` (400 agents gathering from a jittered lattice; not listed
in BENCHMARK.json, see workloads.py).

With `--trace 0` the last stdout line reports the end-to-end metrics,
measured untraced. With `--trace 1` it reports the per-layer metrics of a
traced run, the tracing overhead against an untraced run of the same
passes, and the layer sweep. Earlier lines give the output digest, sample
counts and layer shares. The exit code is 0 whenever a result is printed;
`correct` says whether every round passed its checks and every pass
produced the same digest.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WARMUP_ROUNDS = 20


def _import_package() -> None:
    """Import rngswarm from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rngswarm

    if not Path(rngswarm.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"rngswarm imported from {rngswarm.__file__}, not from {src}")


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _end_to_end(units, seconds: float, out_dir: Path):
    import harness
    from tracer import NullTracer

    passes = harness.measure(units, seconds, NullTracer(), out_dir)
    print(
        f"round samples: {sum(p.rounds for p in passes)} over {len(passes)} passes; "
        f"{harness.tail_count(passes, 90)} beyond p90"
    )
    metrics = {
        "rounds_per_s": _metric(harness.rounds_per_s(passes), "1/s"),
        "round_ms_p50": _metric(harness.percentile_ms(passes, 50), "ms"),
        "round_ms_p90": _metric(harness.percentile_ms(passes, 90), "ms"),
        "setup_s": _metric(statistics.median(p.setup_s for p in passes), "s"),
        # at these sizes almost all interpreter, numpy and yaml (see baseline.json)
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return passes, metrics


# reported name -> tracer metric; times in ms and calls per committed round
SPAN_MS = {
    "graphs.visibility_ms": "graphs.visibility",
    "graphs.trim_ms": "graphs.trim",
    "graphs.metrics_ms": "graphs.metrics",
    "motion.plan_ms": "motion.plan",
    "motion.target_ms": "motion.target",
    "motion.sepcap_ms": "motion.sepcap",
    "geom.clamp_ms": "geom.clamp",
    "geom.polygon_ms": "geom.polygon",
}
CALLS = {"motion.plan_calls": "motion.plan", "geom.polygon_tests": "geom.polygon"}
# spans the benchmark opens around its own calls, in ms per call (0 when never called)
OWN_SPAN_MS = {"scenario.load_ms": "scenario.load", "reporting.write_metrics_ms": "reporting.write_metrics"}
# the layers a round's time splits into, by the time of their top-level calls;
# with engine self time they add up to the round (geom.polygon counts only its
# calls from the engine, not those nested in the motion law)
SHARES = ("motion.plan", "graphs.metrics", "graphs.trim", "graphs.visibility", "geom.polygon")


def _per_layer(units, seconds: float, out_dir: Path, seed: int):
    import harness
    from sweep import layer_sweep
    from tracer import NullTracer, Tracer

    untraced = harness.measure(units, seconds / 2.0, NullTracer(), out_dir)
    tracer = Tracer()
    with tracer.installed():
        traced = [harness.run_pass(units, tracer, out_dir) for _ in untraced]

    rounds = sum(p.rounds for p in traced)
    round_s = sum(p.round_s for p in traced)
    vis_edges = sum(p.edges for p in traced)
    eff_edges = sum(p.effective_edges for p in traced)
    hops = sum(p.diameter_hops for p in traced)
    worlds = sum(p.units for p in traced)
    reverted = sum(p.reverted_agents for p in traced)
    untraced_rps = harness.rounds_per_s(untraced)
    traced_rps = harness.rounds_per_s(traced)
    metrics = {
        name: _metric(tracer.seconds[m] * 1e3 / rounds, "ms") for name, m in SPAN_MS.items() if tracer.has(m)
    }
    metrics.update(
        {name: _metric(tracer.calls[m] / rounds, "count") for name, m in CALLS.items() if tracer.has(m)}
    )
    metrics.update(
        {
            name: _metric(tracer.seconds[m] * 1e3 / tracer.calls[m] if tracer.calls[m] else 0.0, "ms")
            for name, m in OWN_SPAN_MS.items()
        }
    )
    metrics.update(
        {
            "graphs.visibility_edges": _metric(vis_edges / rounds, "count"),
            "graphs.trim_kept_ratio": _metric(eff_edges / vis_edges, "ratio"),
            "graphs.diameter_hops": _metric(hops / rounds, "count"),
            "engine.round_ms": _metric(round_s * 1e3 / rounds, "ms"),
            "engine.reverted_agents": _metric(reverted / rounds, "count"),
            "engine.revert_ratio": _metric(reverted / sum(p.planned_agents for p in traced), "ratio"),
            "engine.init_ms": _metric(sum(p.init_s for p in traced) * 1e3 / worlds, "ms"),
            "trace.overhead_frac": _metric(1.0 - traced_rps / untraced_rps, "ratio"),
        }
    )
    if not tracer.missing:  # self time is only meaningful while every child layer is wrapped
        self_s = round_s - sum(tracer.top_seconds.values())
        metrics["engine.self_ms"] = _metric(self_s * 1e3 / rounds, "ms")
        shares = [f"{m} {tracer.top_seconds[m] / round_s:.1%}" for m in SHARES]
        shares.append(f"engine.self {self_s / round_s:.1%}")
        print(f"traced round {round_s * 1e3 / rounds:.3f} ms over {rounds} rounds; shares: {', '.join(shares)}")
    print(f"rounds/s untraced {untraced_rps:.2f}, traced {traced_rps:.2f}")
    if tracer.missing:
        print(f"not wrapped (names gone): {sorted(tracer.missing)}")

    metrics.update({name: _metric(v, "ms") for name, v in layer_sweep(seed).items()})
    return untraced + traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("batch", "scenarios", "large_swarm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import rngswarm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    # the benchmark's own modules import rngswarm, so they load only now
    import harness
    from tracer import NullTracer
    from workloads import make_units

    units = make_units(args.workload, args.seed, ROOT)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-out-") as tmp:
        out_dir = Path(tmp)
        # warm-up over every world, shortened: a first pass runs markedly slower
        harness.run_pass(units, NullTracer(), out_dir, round_cap=WARMUP_ROUNDS)
        if args.trace:
            passes, metrics = _per_layer(units, args.seconds, out_dir, args.seed)
        else:
            passes, metrics = _end_to_end(units, args.seconds, out_dir)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    correct = failed == 0 and len(digests) == 1
    print(f"output digest: sha256:{passes[0].digest}{'' if len(digests) == 1 else ' (passes DISAGREE)'}")
    print(f"failed_frac: {failed / attempted if attempted else 1.0:.6g} ({failed} of {attempted} rounds)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
