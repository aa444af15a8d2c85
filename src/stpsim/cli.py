"""Command-line surface.

    stpsim validate-model  MODEL.fm
    stpsim validate-config MODEL.fm CONFIG.cfg
    stpsim derive          MODEL.fm CONFIG.cfg PRODUCT_NAME
    stpsim run             MODEL.fm CONFIG.cfg SCENARIO [--format human|machine]
    stpsim report          RUN_OUTPUT [--format human|machine]

SCENARIO is a shipped scenario id (retail_retail, retail_institutional,
institutional_institutional) or a path to a ``.scn`` file. Exit codes:
0 success, 1 validation failure or scenario abort, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data
from .features import (
    FeatureModelError,
    InvalidConfiguration,
    derive_product,
    parse_configuration,
    parse_feature_model,
    validate_configuration,
)
from .lifecycle import assert_conservation, run_scenario
from .report import ReportParseError, parse_machine, render_machine, render_parsed
from .scenarios import SCENARIO_IDS, ScenarioFormatError, parse_scenario


class InputError(Exception):
    """An input file that cannot be read as text."""


def _read_text(path: str | Path) -> str:
    """The file's UTF-8 text, with newlines translated as `Path.read_text` does."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not UTF-8 (byte 0x{raw[exc.start]:02x} at offset {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_model(path: str):
    return parse_feature_model(_read_text(path))


def _load_config(path: str):
    return parse_configuration(_read_text(path))


def _resolve_scenario(name: str) -> Path:
    candidate = Path(name)
    if candidate.suffix == ".scn" and candidate.exists():
        return candidate
    if name in SCENARIO_IDS:
        return data.scenario_path(name)
    raise FileNotFoundError(
        f"unknown scenario {name!r}; shipped ids: {', '.join(SCENARIO_IDS)}")


def cmd_validate_model(args) -> int:
    model = _load_model(args.model)
    points = model.variation_points()
    variants = sum(len(model.concrete_descendants(p.name)) for p in points)
    print(f"ok: {len(model)} features, {len(points)} variation points, "
          f"{variants} variants, {len(model.constraints)} constraints")
    return 0


def _report_invalid(report) -> int:
    """Print an invalid configuration's violations; the exit code, 1."""
    print("invalid configuration:")
    for violation in report.violations:
        print(f"  {violation}")
    return 1


def cmd_validate_config(args) -> int:
    report = validate_configuration(_load_model(args.model), _load_config(args.config))
    if not report.valid:
        return _report_invalid(report)
    print(f"ok: {len(report.normalized)} features selected after normalization")
    return 0


def cmd_derive(args) -> int:
    try:
        product = derive_product(_load_model(args.model), _load_config(args.config), args.name)
    except InvalidConfiguration as exc:
        return _report_invalid(exc.report)
    print(f"product {product.product_name}: {len(product.bindings)} variation points bound")
    for point in sorted(product.bindings):
        print(f"  {point} -> {', '.join(product.bindings[point])}")
    return 0


def cmd_run(args) -> int:
    try:
        product = derive_product(
            _load_model(args.model), _load_config(args.config), Path(args.config).stem.upper())
    except InvalidConfiguration as exc:
        return _report_invalid(exc.report)
    scenario = parse_scenario(_read_text(_resolve_scenario(args.scenario)))
    run_report = run_scenario(product, scenario)
    checks = assert_conservation(run_report)
    machine = render_machine(run_report, checks)
    sys.stdout.write(machine if args.format == "machine" else render_parsed(parse_machine(machine)))
    ok = run_report.all_checks_passed and all(check.passed for check in checks)
    return 0 if ok else 1


def cmd_report(args) -> int:
    text = _read_text(args.run_output)
    parsed = parse_machine(text)
    if args.format == "machine":
        sys.stdout.write(text)
    else:
        sys.stdout.write(render_parsed(parsed))
    ok = parsed.aborted is None and all(check.passed for check in parsed.checks)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stpsim",
        description="Derive equity-market ecosystem products and run order life-cycle scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-model", help="parse and structurally check a feature model")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate_model)

    p = sub.add_parser("validate-config", help="validate a configuration against a model")
    p.add_argument("model")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate_config)

    p = sub.add_parser("derive", help="derive a product and print its bindings")
    p.add_argument("model")
    p.add_argument("config")
    p.add_argument("name")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("run", help="derive a product and run a scenario against it")
    p.add_argument("model")
    p.add_argument("config")
    p.add_argument("scenario")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="render a saved machine-format run output")
    p.add_argument("run_output")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FeatureModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ScenarioFormatError, ReportParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
