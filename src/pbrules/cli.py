"""Command line interface.

Subcommands: ``stats`` (corpus descriptives), ``run`` (one rule on one
file), ``compare`` (aggregate rule comparison), ``extremes`` (largest and
smallest rule effects).  Exit codes: 0 on success, 1 for usage errors,
2 for data errors (unreadable or ill-formed files, empty corpus).

``--dir`` defaults to the PB_DATA_DIR environment variable.  ``--config``
names a flat key=value file whose keys mirror the long option names;
explicit flags win over the config, the config wins over defaults.  A
config value is converted and checked by its option's ``type`` and
``choices``, as a flag value is, before any command runs; that holds
for a key whose option only another subcommand has too.  An on/off
flag takes 1/true/yes/on or 0/false/no/off, in any case.  A key may
appear once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    compare_rules,
    extract_extremes,
    instance_stats,
    repeated_rules,
    stats_csv,
    stats_json,
)
from .model import Money, parse_money
from .pabulib import IngestFilter, PabulibParseError, ingest_directory, parse_pabulib
from .rules import (
    RULE_NAMES,
    RuleSpec,
    Variant,
    emit_trace,
    run_rule,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here reserves 2
    # for data errors, so usage failures exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by command name."""
    return {
        name: sub
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name, sub in action.choices.items()
    }


def _config_keys(parser: argparse.ArgumentParser) -> dict[str, bool]:
    """Dests of the subcommands' long options, minus config and help,
    each mapped to whether it is an on/off flag."""
    return {
        action.dest: isinstance(action, argparse._StoreTrueAction)
        for sub in _subparsers(parser).values()
        for action in sub._actions
        if action.dest not in ("config", "help")
        and any(option.startswith("--") for option in action.option_strings)
    }


def _load_config(path: str, keys: dict[str, bool]) -> dict[str, str | bool]:
    """The values of the config file at ``path`` by option dest; an
    on/off flag's value becomes a bool."""
    mapping: dict[str, str | bool] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        dest = key.replace("-", "_")
        if dest not in keys:
            raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if dest in mapping:
            raise _UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
        if keys[dest]:  # a store_true flag has no type to convert its value
            if value.lower() not in _ON + _OFF:
                raise _UsageError(
                    f"{path}:{lineno}: config key {key!r} is on ({'/'.join(_ON)}) "
                    f"or off ({'/'.join(_OFF)}), got {value!r}"
                )
            value = value.lower() in _ON
        mapping[dest] = value
    return mapping


def _apply_config(parser: argparse.ArgumentParser, mapping: dict[str, str | bool]) -> None:
    # set_defaults keeps explicit flags winning, and argparse passes a
    # string default through the option's type as it does a flag value;
    # subparsers parse into a fresh namespace, so each one needs the defaults
    for sub in _subparsers(parser).values():
        sub.set_defaults(**mapping)


def _check_config(
    parser: argparse.ArgumentParser, args, mapping: dict[str, str | bool]
) -> None:
    # argparse checks choices for command-line values only, and passes a
    # config value through a type only for an option of the chosen
    # subcommand: check every config value here with the flag's own message
    subs = _subparsers(parser)
    sub = subs[args.command]
    own = {action.dest: action for action in sub._actions}
    other = {action.dest: action for each in subs.values() for action in each._actions}
    for dest, value in mapping.items():
        try:
            if dest in own:  # typed already; a flag's value wins
                action, value = own[dest], getattr(args, dest)
            else:
                action = other[dest]
                value = sub._get_value(action, value)
            if action.choices is not None:
                sub._check_value(action, value)
        except argparse.ArgumentError as exc:
            sub.error(str(exc))


def _at_least(floor: int, flag: str):
    """An argparse type: an int of at least ``floor``, named ``flag`` in
    the error."""

    def convert(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
        if number < floor:
            raise argparse.ArgumentTypeError(f"{flag} must be at least {floor}, got {number}")
        return number

    return convert


_jobs = _at_least(1, "--jobs")


def _money(value: str) -> Money:
    try:
        return parse_money(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key=value config file")

    parser = _Parser(prog="pbrules", description=__doc__, parents=[common])
    parser.add_argument("--version", action="version", version=f"pbrules {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_dir(p):
        p.add_argument("--dir", help="corpus directory of .pb files (default: $PB_DATA_DIR)")
        for flag, what in (("--min-voters", "voters"), ("--min-projects", "projects")):
            p.add_argument(flag, type=_at_least(0, flag), help=f"skip files with fewer {what}")
        p.add_argument(
            "--filter-defaults",
            action="store_true",
            default=False,
            help="apply the study filter (>= 100 voters, >= 10 projects)",
        )
        p.add_argument("--skip-report", metavar="FILE", help="write skipped files as JSON lines")

    def add_star(p):
        p.add_argument(
            "--epsilon", type=_money, help="budget increment per completion round (money)"
        )
        p.add_argument("--max-iterations", type=int, help="cap on completion rounds")

    p_stats = sub.add_parser("stats", parents=[common], help="per-instance corpus statistics")
    add_dir(p_stats)
    p_stats.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p_stats.add_argument("--format", choices=("csv", "json"), default="csv")

    p_run = sub.add_parser("run", parents=[common], help="run one rule on one file")
    p_run.add_argument("--file", help="a .pb file")
    p_run.add_argument("--rule", help=f"one of: {', '.join(RULE_NAMES)}")
    add_star(p_run)
    p_run.add_argument("--trace", action="store_true", default=False, help="print the purchase trace")
    p_run.add_argument("--ledger-out", metavar="FILE", help="write the full payment ledger as JSON")
    p_run.add_argument("--out", metavar="FILE", help="write the result JSON here instead of stdout")

    p_compare = sub.add_parser("compare", parents=[common], help="aggregate rule comparison")
    add_dir(p_compare)
    p_compare.add_argument(
        "--rules", default="greedcost,mes+,mes*+", help="comma-separated rule names"
    )
    add_star(p_compare)
    p_compare.add_argument("--jobs", type=_jobs, default=1, help="parallel worker processes")
    p_compare.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p_compare.add_argument("--raw-out", metavar="FILE", help="write the per-instance table too")
    p_compare.add_argument("--format", choices=("csv", "json"), default="csv")

    p_extremes = sub.add_parser(
        "extremes", parents=[common], help="rank instances by rule effect"
    )
    add_dir(p_extremes)
    add_star(p_extremes)
    p_extremes.add_argument("--jobs", type=_jobs, default=1, help="parallel worker processes")
    p_extremes.add_argument("--out", metavar="FILE", help="write the JSON report here")

    return parser


def _write_out(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _ingest(args) -> tuple:
    directory = args.dir or os.environ.get("PB_DATA_DIR")
    if not directory:
        raise _UsageError("no corpus directory: pass --dir or set PB_DATA_DIR")
    base = IngestFilter() if args.filter_defaults else IngestFilter(min_voters=1, min_projects=1)
    ingest_filter = IngestFilter(
        min_voters=base.min_voters if args.min_voters is None else args.min_voters,
        min_projects=base.min_projects if args.min_projects is None else args.min_projects,
    )
    try:
        result = ingest_directory(directory, ingest_filter)
    except OSError as exc:
        raise _DataError(str(exc)) from None
    if args.skip_report:
        Path(args.skip_report).write_text(
            "\n".join(result.skip_report_lines()) + ("\n" if result.skipped else ""),
            encoding="utf-8",
        )
    print(
        f"accepted {len(result.accepted)} instances, skipped {len(result.skipped)} files",
        file=sys.stderr,
    )
    if not result.accepted:
        raise _DataError(f"no instances accepted from {directory}")
    return result.accepted


def _make_spec(name: str, args) -> RuleSpec:
    star = {"epsilon": args.epsilon, "max_iterations": args.max_iterations}
    try:
        return RuleSpec.from_name(name, **{k: v for k, v in star.items() if v is not None})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_stats(args) -> int:
    dataset = _ingest(args)
    rows = [instance_stats(instance, profile) for instance, profile in dataset]
    _write_out(stats_json(rows) if args.format == "json" else stats_csv(rows), args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    if not args.file:
        raise _UsageError("run needs --file")
    if not args.rule:
        raise _UsageError("run needs --rule")
    spec = _make_spec(args.rule, args)
    if spec.variant is Variant.GREED_COST and (args.ledger_out or args.trace):
        kept = "payment ledger" if args.ledger_out else "purchase trace"
        raise _UsageError(f"rule {spec.variant.value} produces no {kept}")
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _DataError(f"cannot read {path}: {exc}") from None
    try:
        instance, profile = parse_pabulib(text, source=path.name)
    except PabulibParseError as exc:
        raise _DataError(f"{path}: {exc}") from None
    result = run_rule(spec, instance, profile)
    _write_out(json.dumps(result.to_json_dict(instance), indent=2), args.out)
    if args.ledger_out:
        Path(args.ledger_out).write_text(result.ledger.to_json(), encoding="utf-8")
    if args.trace:
        print(emit_trace(result.ledger, instance))
    return EXIT_OK


def _cmd_compare(args) -> int:
    names = [name.strip() for name in args.rules.split(",") if name.strip()]
    if not names:
        raise _UsageError("--rules lists no rule names")
    specs = [_make_spec(name, args) for name in names]
    repeated = repeated_rules(specs)
    if repeated:
        raise _UsageError(f"--rules lists {', '.join(repeated)} more than once")
    report = compare_rules(_ingest(args), specs, jobs=args.jobs)
    _write_out(report.to_json() if args.format == "json" else report.to_csv(), args.out)
    if args.raw_out:
        Path(args.raw_out).write_text(report.raw_csv(), encoding="utf-8")
    return EXIT_OK


def _cmd_extremes(args) -> int:
    spec = _make_spec("mes*+", args)
    dataset = _ingest(args)
    try:
        report = extract_extremes(dataset, mes_spec=spec, jobs=args.jobs)
    except ValueError as exc:
        raise _DataError(str(exc)) from None
    _write_out(report.to_json(), args.out)
    return EXIT_OK


_COMMANDS = {
    "stats": _cmd_stats,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "extremes": _cmd_extremes,
}


def cli_main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    try:
        known, _ = probe.parse_known_args(argv)
        parser = _build_parser()
        mapping = _load_config(known.config, _config_keys(parser)) if known.config else {}
        _apply_config(parser, mapping)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help / --version
            return int(exc.code or 0)
        _check_config(parser, args, mapping)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"pbrules: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
