"""Command-line surface: verify / crystal / theta / quotients.

All outputs are deterministic for a fixed configuration (seeds are explicit,
JSON keys are sorted) and carry a schema-version field.  Exit codes: 0 all
checks pass, 1 a verified invariant or predicate failed, 2 usage or parse
errors, an output file that cannot be written and a size over the budget
among them.

Each command imports the modules it runs inside its own function, so a
process pays only for those: `theta` never loads the crystal, the
representation algebra or the suites, and `crystal` loads only `cartan` and
`crystal`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetExceededError, GeoCrystalError, size_budget

SCHEMA_VERSION = "1"

USAGE_ERROR = 2
CHECK_FAILED = 1

# The signs grid has 25 times more (w, v) pairs per step of n: a whole
# verify process takes about 0.9 s at 7 on a 2-CPU machine, so over 20 s at 8.
SIGNS_N_MAX = 7

# The options of verify that each suite reads, besides --format and --out;
# giving any other is a usage error, not an option silently dropped.
SUITE_OPTIONS = {
    "maffei": ("n", "w", "samples", "dump_bundles", "seed"),
    "signs": ("n_max", "seed"),
    "crystal": ("n_max",),
    "quotients": ("n", "d", "budget"),
    "all": ("samples", "budget", "seed"),
}


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse weight {text!r}")
    if any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError("weight entries must be non-negative")
    return parts


def _int_at_least(low: int):
    """argparse type: an int >= low, so a size that would check nothing is a
    usage error rather than a vacuous pass."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocrystal",
        description="exact verification runs for the flag/quiver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an invariant suite")
    verify.add_argument(
        "--suite",
        required=True,
        choices=["maffei", "signs", "crystal", "quotients", "all"],
    )
    verify.add_argument("--n", type=_int_at_least(2))
    verify.add_argument("--d", type=_int_at_least(0))
    verify.add_argument("--w", type=_parse_weight)
    verify.add_argument("--n-max", type=_int_at_least(2))
    verify.add_argument("--samples", type=_int_at_least(1))
    verify.add_argument("--seed", type=int)
    verify.add_argument("--budget", type=_int_at_least(1))
    verify.add_argument("--format", dest="fmt", choices=["json", "text"], default="json")
    verify.add_argument("--out")
    verify.add_argument("--dump-bundles", dest="dump_bundles")
    verify.set_defaults(run=cmd_verify)

    crystal = sub.add_parser("crystal", help="emit a highest weight crystal")
    crystal.add_argument("--n", type=_int_at_least(2), required=True)
    crystal.add_argument("--w", type=_parse_weight, required=True)
    crystal.add_argument("--format", dest="fmt", choices=["dot", "json"], default="json")
    crystal.add_argument("--budget", type=_int_at_least(1))
    crystal.add_argument("--out")
    crystal.set_defaults(run=cmd_crystal)

    theta_cmd = sub.add_parser("theta", help="map a quiver point to its flag")
    theta_cmd.add_argument("--input", dest="input_path", required=True)
    theta_cmd.add_argument("--seed", type=int, default=0)
    theta_cmd.add_argument("--out")
    theta_cmd.set_defaults(run=cmd_theta)

    quotients = sub.add_parser("quotients", help="alias for verify --suite quotients")
    quotients.add_argument("--n", type=_int_at_least(2), required=True)
    quotients.add_argument("--d", type=_int_at_least(0), required=True)
    quotients.add_argument("--budget", type=_int_at_least(1))
    quotients.add_argument("--format", dest="fmt", choices=["json", "text"], default="json")
    quotients.add_argument("--out")
    quotients.set_defaults(run=cmd_quotients)
    return parser


class OutputError(Exception):
    """An output file could not be written; main reports it as a usage error."""


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _report_text(report: dict) -> str:
    lines = [f"schema_version {SCHEMA_VERSION}"]

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(f"{prefix}{key}.", obj[key])
        elif isinstance(obj, list):
            for idx, item in enumerate(obj):
                walk(f"{prefix}{idx}.", item)
        else:
            lines.append(f"{prefix.rstrip('.')} = {obj}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _finish(report: dict, fmt: str, out: str | None) -> int:
    report.setdefault("schema_version", SCHEMA_VERSION)
    if fmt == "text":
        _emit(_report_text(report), out)
    else:
        _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", out)
    return 0 if report.get("pass", False) else CHECK_FAILED


def _unread_option(args) -> str | None:
    """The first option given to verify that its suite does not read."""
    for name in ("n", "d", "w", "n_max", "samples", "budget", "dump_bundles", "seed"):
        if getattr(args, name) is not None and name not in SUITE_OPTIONS[args.suite]:
            return "--" + name.replace("_", "-")
    return None


def cmd_verify(args) -> int:
    from . import suites

    suite = args.suite
    n_max = args.n_max if args.n_max is not None else 4
    samples = args.samples if args.samples is not None else 50
    if suite in ("maffei", "all") and args.seed is None:
        print("error: --seed is required for sampling suites", file=sys.stderr)
        return USAGE_ERROR
    if suite == "signs" and n_max > SIGNS_N_MAX:
        print(f"error: --suite signs needs --n-max <= {SIGNS_N_MAX}", file=sys.stderr)
        return USAGE_ERROR
    if suite == "signs":
        report = suites.suite_signs(n_max=n_max, seed=args.seed if args.seed is not None else 0)
    elif suite == "maffei":
        n = args.n if args.n is not None else 3
        w = args.w if args.w is not None else (1,) * (n - 1)
        if len(w) != n - 1:
            print(f"error: --w needs {n - 1} entries", file=sys.stderr)
            return USAGE_ERROR
        flags = [] if args.dump_bundles else None
        report = suites.suite_maffei(n, w, samples, args.seed, flags)
        if args.dump_bundles:
            _dump_bundles(w, flags[:16], args.dump_bundles)
            report["bundles_written_to"] = args.dump_bundles
    elif suite == "crystal":
        report = suites.suite_crystal(n_max=n_max)
    elif suite == "quotients":
        n = args.n if args.n is not None else 3
        d = args.d if args.d is not None else 3
        report = suites.suite_quotients(n, d, args.budget)
    else:
        report = suites.suite_all(args.seed, samples=samples, budget=args.budget)
    report["command"] = "verify"
    report["seed"] = args.seed
    return _finish(report, args.fmt, args.out)


def _dump_bundles(w, flags, path: str) -> None:
    """Write the block-shift nilpotent of w and the given flags, theta of the
    points suite_maffei checked, as a flag bundle."""
    from .flag import block_shift_x, flag_bundle_to_json

    payload = flag_bundle_to_json(block_shift_x(w)[0], flags)
    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_crystal(args) -> int:
    from . import crystal as crystal_mod
    from .cartan import HighestWeight, hw_to_partition, irrep_dim

    w = args.w
    if len(w) != args.n - 1:
        print(f"error: --w needs {args.n - 1} entries", file=sys.stderr)
        return USAGE_ERROR
    hw = HighestWeight(w)
    size = irrep_dim(hw_to_partition(hw), args.n)  # the vertex count, checked before building
    if size > args.budget:
        raise BudgetExceededError(f"dim B(w) = {size} exceeds the size budget {args.budget}")
    graph = crystal_mod.highest_weight_crystal(hw)
    if args.fmt == "dot":
        _emit(crystal_mod.crystal_to_dot(graph), args.out)
    else:
        payload = crystal_mod.crystal_to_json(graph)
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object, refusing a key given twice (json keeps the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key in a JSON object")
    return obj


def cmd_theta(args) -> int:
    import random

    from .cartan import a_of_vw
    from .flag import composition_of, flag_membership
    from .maffei import THETA_INVARIANTS, ThetaContext, check_theta_point
    from .quiver import QuiverRep, is_stable, lambda_failure

    try:
        with open(args.input_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, object_pairs_hook=_unique_keys)
        point = QuiverRep.from_json(payload)
    except (OSError, ValueError, KeyError, RecursionError, GeoCrystalError) as exc:
        print(f"error: cannot load quiver point: {exc}", file=sys.stderr)
        return USAGE_ERROR
    reason = lambda_failure(point)
    if reason is not None:
        print(f"check failed: in_Lambda: {reason}", file=sys.stderr)
        return CHECK_FAILED
    if not is_stable(point):
        print("check failed: is_stable: proper stable subspace contains im i", file=sys.stderr)
        return CHECK_FAILED
    ctx = ThetaContext(point.w)
    rng = random.Random(args.seed)
    result = check_theta_point(point, ctx, rng)
    flag = result["flag"]
    failed = result["failed_invariants"]
    invariants = {name: name not in failed for name in THETA_INVARIANTS}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "theta",
        "n": point.n,
        "v": point.v.to_json(),
        "w": point.w.to_json(),
        "a": a_of_vw(point.v, point.w).to_json(),
        "flag": flag.to_json(),
        "composition": composition_of(flag).to_json(),
        "flag_membership": flag_membership(ctx.x, flag),
        "invariants": invariants,
        "hecke_cases": result["hecke_cases"],
        "failures": result["failures"],
        "pass": not result["failures"],
    }
    return _finish(report, "json", args.out)


def cmd_quotients(args) -> int:
    from . import suites

    report = suites.suite_quotients(args.n, args.d, args.budget)
    report["command"] = "quotients"
    return _finish(report, args.fmt, args.out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    # before the budget is resolved, while a --budget not given is None
    unread = _unread_option(args) if args.command == "verify" else None
    if unread is not None:
        print(f"error: --suite {args.suite} does not read {unread}", file=sys.stderr)
        return USAGE_ERROR
    if hasattr(args, "budget"):
        # resolved here so a malformed GEOCRYSTAL_BUDGET is a usage error
        try:
            args.budget = size_budget(args.budget)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
    try:
        return args.run(args)
    except (BudgetExceededError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except GeoCrystalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
