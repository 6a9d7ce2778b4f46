"""Command line interface: analyze, normalize, keys, check.

Exit codes: 0 success, 1 parse error, 2 validation error (also: schema that
cannot be decomposed further), 3 candidate-key capacity exceeded, 4 usage
error (also: input that cannot be read or is not valid UTF-8, stdin decoded
like a file, output that cannot be written, and a closed stdin or stdout).
Results go to stdout, diagnostics to stderr, so structured output stays
parseable even when warnings are present.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .classify import ClassificationMode
from .completeness import schema_nc
from .dsl import ParseResult, emit_report, parse_schema
from .errors import CapacityError, DecompositionError
from .fd import DEFAULT_KEY_CAP, candidate_keys
# normalize_fds is unused here, but bench/tests checks that the tracer patches it here.
from .model import Schema, Severity, normalize_fds  # noqa: F401
from .transform import normalize_to_bcnf

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_USAGE = 4


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


_COMMANDS = (
    ("analyze", "classify, partition and score every relation"),
    ("normalize", "decompose until every relation is in BCNF"),
    ("keys", "list candidate keys per relation"),
    ("check", "parse and validate only"),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        help="schema file in the normlens DSL ('-' or omitted: read stdin)",
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in ClassificationMode],
        default=ClassificationMode.PRIMARY.value,
        help="judge partial/transitive dependencies against the declared"
        " primary key (primary, default) or every candidate key (strict)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output rendering (default: text)",
    )
    parser.add_argument(
        "--key-cap",
        type=_positive_int,
        default=DEFAULT_KEY_CAP,
        metavar="N",
        help=f"refuse candidate-key search above N attributes (default {DEFAULT_KEY_CAP})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="normlens",
        description="Score relational schemas by normalization completeness"
        " and decompose them to BCNF.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, summary in _COMMANDS:
        command = sub.add_parser(name, help=summary)
        _add_common(command)
        if name == "normalize":
            command.add_argument(
                "--trace",
                action="store_true",
                help="include every intermediate schema in DSL form (text output)",
            )
    return parser


def _read_input(target: str) -> str:
    # Bytes from the file or stdin, decoded once; a stdin without a byte layer is text already.
    if target == "-":
        if sys.stdin is None:  # started with stdin closed
            raise OSError("stdin is closed")
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        with open(target, "rb") as file:
            data = file.read()
    try:
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise OSError(f"not valid UTF-8 ({exc.reason} at offset {exc.start})") from exc


def _keys_report(schema: Schema, key_cap: int, format: str) -> str:
    rows = [
        (rel, candidate_keys(rel, schema.projected_fds(rel), cap=key_cap))
        for rel in schema.relations
    ]
    if format == "structured":
        payload = {
            "kind": "candidate_keys",
            "schema": schema.name,
            "relations": [
                {"name": rel.name, "keys": [sorted(key) for key in keys]}
                for rel, keys in rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"schema {schema.name}"]
    for rel, keys in rows:
        lines.append("")
        lines.append(f"relation {rel.name}: {len(keys)} candidate key(s)")
        lines += [f"  ({', '.join(sorted(key))})" for key in keys]
    return "\n".join(lines) + "\n"


def _check_report(result: ParseResult, format: str) -> str:
    if format == "structured":
        payload = {
            "kind": "check",
            "ok": result.ok,
            "schema": result.schema.name if result.schema else None,
            "diagnostics": [
                {
                    "line": d.line,
                    "column": d.column,
                    "severity": d.severity.value,
                    "code": d.code,
                    "message": d.message,
                }
                for d in result.diagnostics
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if result.ok and result.schema is not None:
        schema = result.schema
        warnings = sum(1 for d in result.diagnostics if d.severity is Severity.WARNING)
        note = f", {warnings} warning(s)" if warnings else ""
        return (
            f"ok: {schema.name}: {len(schema.relations)} relation(s),"
            f" {len(schema.fds)} fd(s){note}\n"
        )
    errors = sum(1 for d in result.diagnostics if d.severity is Severity.ERROR)
    return f"invalid: {errors} error(s)\n"


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    provenance = "<stdin>" if args.input == "-" else args.input
    try:
        text = _read_input(args.input)
    except OSError as exc:
        print(f"normlens: cannot read {provenance}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    result = parse_schema(text)
    for diagnostic in result.diagnostics:
        print(diagnostic.render(provenance), file=sys.stderr)

    code = EXIT_PARSE if result.syntax_errors else EXIT_OK if result.ok else EXIT_VALIDATION
    mode = ClassificationMode(args.mode)
    try:
        if args.command == "check":
            out = _check_report(result, args.format)
        elif result.schema is None:
            return code
        elif args.command == "analyze":
            out = emit_report(schema_nc(result.schema, mode, key_cap=args.key_cap), args.format)
        elif args.command == "normalize":
            trace = normalize_to_bcnf(result.schema, mode, key_cap=args.key_cap)
            out = emit_report(trace, args.format, dsl_snapshots=args.trace)
        else:
            out = _keys_report(result.schema, args.key_cap, args.format)
    except CapacityError as exc:
        needs = "" if args.command == "keys" else f" (--mode {args.mode} needs the key search)"
        print(f"normlens: {exc}{needs}", file=sys.stderr)
        return EXIT_CAPACITY
    except DecompositionError as exc:
        print(f"normlens: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if sys.stdout is None:  # started with stdout closed
            raise OSError("stdout is closed")
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as exc:
        print(f"normlens: cannot write output: {exc}", file=sys.stderr)
        if sys.stdout is not None:
            # Python flushes stdout again at exit; let what is left go to devnull.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
