"""Command-line interface.

Subcommands: ``validate`` (check documents), ``evaluate`` (score one
assessment), ``matrix`` (render a relation matrix from a store),
``whatif`` (sensitivity sweeps), ``catalog show`` (print the shipped
catalog).  Exit statuses: 0 success, 1 validation or domain error,
2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .algebra import CATEGORIES, ScalarConfig, WeightVector
from .catalog import (
    CAP_MODES,
    _dumps,
    catalog_to_dict,
    default_catalog,
    load_assessment,
    load_catalog,
    validate_assessment,
    window_from_text,
)
from .errors import SchemaError, TrustrelError, ValidationError
from .relations import RelationStore
from .report import (
    SensitivitySpec,
    build_report,
    load_band_table,
    run_whatif,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def _parse_weights(text: str | None) -> WeightVector:
    """The weights of --weights h,n,f; uniform when it is not given."""
    if text is None:
        return WeightVector.uniform()
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(
            "--weights takes three comma-separated values ordered hostile,neutral,friendly"
        )
    try:
        raw = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--weights values must be numbers, got {text!r}") from None
    return WeightVector(*raw)


def _parse_signs(text: str) -> ScalarConfig:
    parts = text.split(",")
    if len(parts) != 3 or any(p not in ("-", "+") for p in parts):
        raise ValidationError(
            f"--signs takes three of -/+ ordered hostile,neutral,friendly, got {text!r}"
        )
    values = [-1 if p == "-" else 1 for p in parts]
    return ScalarConfig(*values)


def _stage(name: str, fn, *args, **kwargs):
    """Run one pipeline stage, prefixing any failure with its name."""
    try:
        return fn(*args, **kwargs)
    except TrustrelError as err:
        raise type(err)(f"{name}: {err}") from None


def _scoring_inputs(args: argparse.Namespace) -> tuple:
    """The catalog, assessment, weights and signs of evaluate and whatif."""
    return (_stage("catalog", load_catalog, args.catalog),
            _stage("assessment", load_assessment, args.assessment),
            _stage("weights", _parse_weights, args.weights),
            _stage("signs", _parse_signs, args.signs))


def _print(result, fmt: str) -> None:
    """Print an evaluation report or a sweep result in ``fmt``."""
    if fmt == "json":
        print(result.to_json())
    elif fmt == "csv":
        print(result.to_csv(), end="")
    else:
        print(result.to_text())


def cmd_validate(args: argparse.Namespace) -> int:
    if not args.catalog and not args.assessment:
        raise SchemaError("nothing to validate: pass --catalog and/or --assessment")
    failures = 0
    catalog = None if args.catalog else default_catalog()
    if args.catalog:
        try:
            catalog = load_catalog(args.catalog)
            print(f"catalog {args.catalog}: OK ({len(catalog.properties)} properties)")
        except ValidationError as err:
            print(f"catalog {args.catalog}: INVALID: {err}")
            failures += 1
    if args.assessment:
        assessment = _stage("assessment", load_assessment, args.assessment)
        if catalog is None:  # never check against a catalog the user did not name
            print(f"assessment {args.assessment}: NOT CHECKED (catalog {args.catalog} is invalid)")
            return EXIT_INVALID
        report = validate_assessment(assessment, catalog, mode=args.cap_mode)
        for warning in report.warnings:
            print(f"warning: {warning}")
        if report.ok:
            print(f"assessment {args.assessment}: OK ({len(assessment.entries)} entries)")
        else:
            for violation in report.violations:
                print(f"violation: {violation}")
            print(f"assessment {args.assessment}: INVALID ({len(report.violations)} violations)")
            failures += 1
    return EXIT_INVALID if failures else EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    catalog, assessment, weights, signs = _scoring_inputs(args)
    bands = _stage("bands", load_band_table, args.bands) if args.bands else None
    report = _stage(
        "evaluation",
        build_report,
        catalog,
        assessment,
        weights,
        signs=signs,
        bands=bands,
        mode=args.cap_mode,
        delta=args.delta,
    )
    _print(report, args.format)
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    store = _stage("store", RelationStore.load, args.store)
    if args.nations is None:
        nation_ids = [n.id for n in store.nations]
    else:
        nation_ids = _stage("nations", _parse_nations, args.nations)
    window = _stage("window", window_from_text, args.window)
    labels = _stage("matrix", store.relation_matrix, nation_ids, window)
    if not nation_ids:
        return EXIT_OK
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["subject\\object"] + nation_ids)
        for nation_id, row in zip(nation_ids, labels):
            writer.writerow([nation_id] + row)
    else:
        width = max(len(cell) for row in labels for cell in row)
        width = max(width, max(len(n) for n in nation_ids))
        header = " ".join([" " * width] + [n.ljust(width) for n in nation_ids])
        print(header.rstrip())
        for nation_id, row in zip(nation_ids, labels):
            line = " ".join([nation_id.ljust(width)] + [cell.ljust(width) for cell in row])
            print(line.rstrip())
    return EXIT_OK


def _parse_nations(text: str) -> list[str]:
    """The ids of --nations: one CSV record, quoted as ``--format csv``
    writes ids; empty ids are skipped."""
    try:
        return [p for p in next(csv.reader([text]), []) if p]
    except csv.Error as err:
        raise ValidationError(f"--nations is not one CSV record: {err}") from None


def cmd_whatif(args: argparse.Namespace) -> int:
    catalog, assessment, weights, signs = _scoring_inputs(args)
    spec = _stage("sweep", _parse_sensitivity, args.target, args.sweep)
    result = _stage(
        "sweep",
        run_whatif,
        catalog,
        assessment,
        weights,
        spec,
        signs=signs,
        mode=args.cap_mode,
    )
    _print(result, args.format)
    return EXIT_OK


def _parse_sensitivity(target: str, sweep: str) -> SensitivitySpec:
    kind, _, name = target.partition(":")
    if not name:
        raise ValidationError(
            f"--target must look like weight:hostile or property:f.P1, got {target!r}"
        )
    parts = sweep.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--sweep must look like FROM:TO:STEP, got {sweep!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--sweep values must be numbers, got {sweep!r}") from None
    return SensitivitySpec(
        target_kind=kind, target=name, start=start, stop=stop, step=step
    )


def cmd_catalog_show(args: argparse.Namespace) -> int:
    catalog = default_catalog()
    if args.format == "json":
        print(_dumps(catalog_to_dict(catalog)))
        return EXIT_OK
    print(f"catalog version {catalog.version}")
    for category in CATEGORIES:
        print(f"\n[{category.value}]")
        for prop in catalog.for_category(category):
            print(f"  {prop.id:<6} cap {prop.cap:<6g} {prop.description}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustrel",
        description="Score and classify directed nation-to-nation trust relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scoring_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--catalog", required=True)
        p.add_argument("--assessment", required=True)
        p.add_argument("--weights", help="three weights ordered hostile,neutral,friendly")
        p.add_argument(
            "--signs",
            default="-,+,+",
            help="three signs (-/+) ordered hostile,neutral,friendly (default -,+,+)",
        )
        p.add_argument("--cap-mode", choices=CAP_MODES, default="strict")

    p_validate = sub.add_parser("validate", help="validate catalog/assessment documents")
    p_validate.add_argument("--catalog")
    p_validate.add_argument("--assessment")
    p_validate.add_argument("--cap-mode", choices=CAP_MODES, default="strict")
    p_validate.set_defaults(func=cmd_validate)

    p_evaluate = sub.add_parser("evaluate", help="evaluate one assessment")
    add_scoring_flags(p_evaluate)
    p_evaluate.add_argument("--bands", help="optional band-table JSON for finer labels")
    p_evaluate.add_argument("--delta", type=float, default=0.1,
                            help="nearness distance for strength flags (default 0.1)")
    p_evaluate.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_matrix = sub.add_parser("matrix", help="render a relation matrix from a store")
    p_matrix.add_argument("--store", required=True)
    p_matrix.add_argument("--nations", default=None,
                          help="comma-separated nation ids, quoted as in CSV "
                               "(default: all registered)")
    p_matrix.add_argument("--window", required=True, help="date range START:END (ISO dates)")
    p_matrix.add_argument("--format", choices=("text", "csv"), default="text")
    p_matrix.set_defaults(func=cmd_matrix)

    p_whatif = sub.add_parser("whatif", help="sweep one input and track label flips")
    add_scoring_flags(p_whatif)
    p_whatif.add_argument("--target", required=True,
                          help="weight:<category> or property:<id>")
    p_whatif.add_argument("--sweep", required=True, help="grid FROM:TO:STEP")
    p_whatif.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_whatif.set_defaults(func=cmd_whatif)

    p_catalog = sub.add_parser("catalog", help="catalog utilities")
    catalog_sub = p_catalog.add_subparsers(dest="action", required=True)
    p_show = catalog_sub.add_parser("show", help="print the shipped default catalog")
    p_show.add_argument("--format", choices=("text", "json"), default="text")
    p_show.set_defaults(func=cmd_catalog_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value led by "-" for an option: join it to its flag
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > 2 and argv[i + 1][:2] != "--" and any(
                f.startswith(argv[i]) for f in ("--signs", "--weights", "--sweep")):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except TrustrelError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
