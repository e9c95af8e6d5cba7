"""Command-line interface.

Cone files are JSON documents {"dim": m, "normals": [[...], ...]}; the
order of the normals is significant.  Exit status is nonzero whenever an
audit or conjugacy check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .constants import BoundsReport, bounds_report
from .errors import DimensionMismatch, InvalidState, ZeroVector
from .geometry import ConeSpec, make_cone
from .harness import ExperimentConfig, adversarial_search, csv_line, ensemble_run, format_value
from .hardball import HardBallSystem, conjugacy_check, simulate_balls
from .simulator import BilliardState, audit, record_to_json, run
from .wedge import sharp_bound, unfold, wedge_from_angle


def load_cone(path: str) -> ConeSpec:
    """The cone of a JSON document {"dim": m, "normals": [[...], ...]};
    a document of another shape raises DimensionMismatch, as `make_cone`
    does for a non-integer dim or normals that are not rows of numbers."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "dim" not in doc or "normals" not in doc:
        raise DimensionMismatch('a cone file must hold {"dim": m, "normals": [[...], ...]}')
    return make_cone(doc["dim"], doc["normals"])


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",") if x.strip() != ""])


def report_to_csv(report: BoundsReport) -> str:
    return csv_line(BoundsReport.FIELDS) + csv_line(report.to_dict().values())


def report_to_structured(report: BoundsReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def _cmd_bounds(args) -> int:
    report = bounds_report(load_cone(args.cone))
    if args.format == "csv":
        sys.stdout.write(report_to_csv(report))
    else:
        sys.stdout.write(report_to_structured(report))
    return 0


def _cmd_simulate(args) -> int:
    cone = load_cone(args.cone)
    q = _parse_floats(args.q)
    v = _parse_floats(args.v)
    # Checked before the division, which would warn on 0/0 and inf/inf.
    if not np.isfinite(v).all():
        raise InvalidState("velocity components must be finite")
    speed = np.linalg.norm(v)
    if speed < 1e-12:
        raise ZeroVector("the start velocity must be a nonzero vector")
    v = v / speed
    rec = run(BilliardState(q=q, v=v), cone, max_steps=args.max_steps)
    verdict = None
    if args.audit:
        verdict = audit(rec, bounds_report(cone))
    sys.stdout.write(record_to_json(rec, verdict) + "\n")
    if verdict is not None and not verdict.all_passed:
        return 1
    return 0


def _cmd_ensemble(args) -> int:
    config = ExperimentConfig(
        n_walls=args.walls,
        dim=args.dim,
        trials=args.trials,
        seed=args.seed,
        max_steps_override=args.max_steps,
        output_path=args.out,
        format=args.format,
        paths_per_cone=args.paths,
    )
    rows = ensemble_run(config)
    failed = sum(1 for r in rows if not r.all_checks_pass)
    print(f"{len(rows)} cones, {failed} with failed checks -> {args.out}")
    return 1 if failed else 0


def _cmd_search(args) -> int:
    cone = load_cone(args.cone)
    result = adversarial_search(cone, budget=args.budget, seed=args.seed)
    doc = {
        "best_n": result.best_n,
        "q": result.best_state.q.tolist(),
        "v": result.best_state.v.tolist(),
        "wall_sequence": result.best_record.wall_sequence(),
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_wedge(args) -> int:
    wedge = wedge_from_angle(args.theta)
    print(f"theta = {format_value(args.theta)}")
    print(f"sharp_bound = {sharp_bound(args.theta)}")
    if args.search:
        result = adversarial_search(wedge.cone, budget=args.budget, seed=args.seed)
        print(f"best_n = {result.best_n}")
        print("unfolded breakpoints:")
        for x, y in unfold(result.best_record, wedge):
            print(f"{format_value(float(x))} {format_value(float(y))}")
    return 0


def _cmd_hardball(args) -> int:
    system = HardBallSystem(
        masses=_parse_floats(args.masses),
        positions=_parse_floats(args.positions),
        velocities=_parse_floats(args.velocities),
    )
    traj = simulate_balls(system, max_events=args.max_events)
    doc = {
        "events": [
            {"t": ev.t, "pair": list(ev.pair), "velocities_after": list(ev.velocities_after)}
            for ev in traj.events
        ],
        "terminal": traj.terminal.value,
        "final_positions": traj.final_positions.tolist(),
        "final_velocities": traj.final_velocities.tolist(),
    }
    status = 0
    if args.conjugacy:
        report = conjugacy_check(system)
        doc["conjugacy"] = {
            "matched": report.matched,
            "pair_sequence": report.pair_sequence,
            "wall_sequence": report.wall_sequence,
            "max_time_error": report.max_time_error,
        }
        if not report.matched:
            status = 1
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conebilliards",
        description="Billiards in polyhedral cones: bounds, simulation, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print the bounds report for a cone file")
    p.add_argument("--cone", required=True)
    p.add_argument("--format", choices=("csv", "structured"), default="structured")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="run one trajectory")
    p.add_argument("--cone", required=True)
    p.add_argument("--q", required=True, help="comma-separated start position")
    p.add_argument("--v", required=True, help="comma-separated start velocity")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ensemble", help="random-cone ensemble with audits")
    p.add_argument("--walls", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    p.add_argument("--paths", type=int, default=None, help="trajectories per cone")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("search", help="adversarial search for many collisions")
    p.add_argument("--cone", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("wedge", help="two-wall cone: sharp bound and search")
    p.add_argument("--theta", type=float, required=True, help="wedge angle in radians")
    p.add_argument("--search", action="store_true")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_wedge)

    p = sub.add_parser("hardball", help="elastic balls on a line")
    p.add_argument("--masses", required=True)
    p.add_argument("--positions", required=True)
    p.add_argument("--velocities", required=True)
    p.add_argument("--conjugacy", action="store_true")
    p.add_argument("--max-events", type=int, default=None)
    p.set_defaults(func=_cmd_hardball)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
