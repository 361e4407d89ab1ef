"""Command line driver: scenario runs, one-shot graph inspection, property checks."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import properties
from .engine import ConnectivityError, RoundReport, SwarmState, _geometry, initial_state, run
from .graphs import graph_metrics
from .reporting import write_metrics, write_svg_frame
from .scenario import ScenarioError, load_scenario


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rngswarm",
        description="Connectivity-preserving swarm simulation with trimmed neighbourhood graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file, writing metrics and optional frames")
    p_run.add_argument("--scenario", required=True, help="path to a scenario YAML file")
    p_run.add_argument("--out", required=True, help="output directory (created if missing)")
    p_run.add_argument("--svg-every", type=_at_least(0), default=0, metavar="K",
                       help="write an SVG frame every K rounds (0 disables)")
    p_run.add_argument("--seed", type=_at_least(0), default=None, help="override the scenario seed")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run the randomised property suites")
    p_check.add_argument("--cases", type=_at_least(1), default=1000, help="cases per suite (default 1000)")
    p_check.add_argument("--seed", type=_at_least(0), default=0, help="base seed (default 0)")
    p_check.set_defaults(func=_cmd_check)

    p_graph = sub.add_parser("graph", help="one-shot graph construction and metrics for a scenario")
    p_graph.add_argument("--scenario", required=True, help="path to a scenario YAML file")
    p_graph.add_argument("--svg", default=None, metavar="PATH", help="also write one SVG frame")
    p_graph.set_defaults(func=_cmd_graph)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    world = load_scenario(args.scenario)
    if args.seed is not None:
        world = replace(world, seed=args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    observer = None
    if args.svg_every > 0:
        every = args.svg_every

        def observer(state: SwarmState, report: RoundReport | None) -> None:
            if state.round % every == 0:
                write_svg_frame(state, world, outdir / f"frame_{state.round:05d}.svg")

    reports = run(world, observer=observer)
    write_metrics(reports, outdir / "metrics.csv")
    if reports:
        last = reports[-1]
        print(
            f"completed {len(reports)} rounds: "
            f"edges={last.metrics.edge_count} effective={last.metrics.effective_edge_count} "
            f"connected={'yes' if last.metrics.connected else 'NO'}"
        )
    else:
        print("completed 0 rounds")
    print(f"metrics: {outdir / 'metrics.csv'}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results = properties.run_all(args.cases, args.seed)
    all_ok = True
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        extra = f" ({res.detail})" if res.detail and not res.ok else ""
        print(f"[{status}] {res.name}: {res.cases} cases, {res.failures} failures{extra}")
        all_ok = all_ok and res.ok
    return 0 if all_ok else 1


def _cmd_graph(args: argparse.Namespace) -> int:
    world = load_scenario(args.scenario)
    state = initial_state(world)
    distances, g, eff = _geometry(state.positions, world)
    m = graph_metrics(g, eff, state.positions, distances=distances)
    print(f"n: {world.n}")
    for name, value in vars(m).items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, float):
            value = format(value, ".9g")
        print(f"{name}: {value}")
    print(f"max_effective_degree: {max(map(len, map(eff.neighbors, range(eff.n))), default=0)}")
    if args.svg:
        write_svg_frame(state, world, args.svg)
        print(f"frame: {args.svg}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except ConnectivityError as exc:
        print(f"connectivity invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
