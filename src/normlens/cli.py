"""Command line interface: analyze, normalize, keys, check.

Exit codes: 0 success, 1 parse error, 2 validation error (also: schema that
cannot be decomposed further), 3 candidate-key capacity exceeded, 4 usage
error (also: input that cannot be read or is not valid UTF-8, stdin decoded
like a file, output that cannot be written, and a closed stdin or stdout).
Results go to stdout, diagnostics to stderr, so structured output stays
parseable even when warnings are present. A closed or unwritable stderr
changes neither stdout nor the exit code.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .dsl import CandidateKeys, parse_schema, write_report
from .errors import CapacityError, DecompositionError
from .fd import DEFAULT_KEY_CAP, candidate_keys
from .model import (
    ClassificationMode,
    normalize_fds,  # noqa: F401  unused here, but bench/tests checks that the tracer patches it here
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import argparse
    from collections.abc import Callable, Sequence
    from typing import IO

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_USAGE = 4


def _positive_int(text: str) -> int:
    if (value := _option_value(_positive_int, text)) is None:
        import argparse  # only the argument parser gets here: _read_args declines first

        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


_COMMANDS = {
    "analyze": "classify, partition and score every relation",
    "normalize": "decompose until every relation is in BCNF",
    "keys": "list candidate keys per relation",
    "check": "parse and validate only",
}
# Every command's options, each once: flag -> (dest, its choices or _positive_int, default, help).
_OPTIONS = {
    "--mode": (
        "mode",
        tuple(m.value for m in ClassificationMode),
        ClassificationMode.PRIMARY.value,
        "judge partial/transitive dependencies against the declared"
        " primary key (primary, default) or every candidate key (strict)",
    ),
    "--format": ("format", ("text", "structured"), "text", "output rendering (default: text)"),
    "--key-cap": (
        "key_cap",
        _positive_int,
        DEFAULT_KEY_CAP,
        f"refuse candidate-key search above N attributes (default {DEFAULT_KEY_CAP})",
    ),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        help="schema file in the normlens DSL ('-' or omitted: read stdin)",
    )
    for flag, (dest, test, default, help) in _OPTIONS.items():
        kind = {"type": test, "metavar": "N"} if test is _positive_int else {"choices": test}
        parser.add_argument(flag, dest=dest, default=default, help=help, **kind)


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _ArgumentParser(
        prog="normlens",
        description="Score relational schemas by normalization completeness"
        " and decompose them to BCNF.",
    )
    parser.set_defaults(trace=False)  # every command's; only normalize takes --trace
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, summary in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        _add_common(command)
        if name == "normalize":
            command.add_argument(
                "--trace",
                action="store_true",
                help="include every intermediate schema in DSL form (text output)",
            )
    return parser


def _option_value(test: tuple[str, ...] | Callable[[str], int], text: str) -> str | int | None:
    """text as the value of an option with this test, or None where argparse refuses it."""
    if test is not _positive_int:
        return text if text in test else None
    try:
        return int(text) if text.isdecimal() and int(text) >= 1 else None
    except ValueError:  # int() refuses a numeral past its digit limit
        return None


def _read_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for the usual spellings only.

    Those are a command, then in any order each of its options at most once as
    ``--name value`` or ``--name=value``, ``--trace`` after ``normalize``, and at
    most one input that is ``-`` or does not start with ``-``. Anything else
    (help, abbreviations, ``--``, a bad value) returns None and is left to argparse.
    """
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        return None
    args = {"command": command, "input": "-", "trace": False}
    args.update((dest, default) for dest, _test, default, _help in _OPTIONS.values())
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if token == "-" or not token.startswith("-"):
            dest, value = "input", token
        elif token == "--trace" and command == "normalize":
            dest, value = "trace", True
        elif flag in _OPTIONS:
            dest, test = _OPTIONS[flag][:2]
            value = _option_value(test, value if equals else next(tokens, ""))
        else:
            return None
        if value is None or dest in given:
            return None
        given.add(dest)
        args[dest] = value
    return SimpleNamespace(**args)


def _discard(stream: IO[str]) -> None:
    # Python flushes the stream again at exit; let what is left go to devnull.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _warn(line: str) -> None:
    # A diagnostic never changes stdout or the exit code: a closed stderr is
    # skipped, and one that cannot be written goes to devnull from the first failure.
    if sys.stderr is None:  # started with stderr closed
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        _discard(sys.stderr)


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


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or build_parser().parse_args(argv)
    provenance = "<stdin>" if args.input == "-" else args.input
    try:
        text = _read_input(args.input)
    except OSError as exc:
        _warn(f"normlens: cannot read {provenance}: {exc}")
        return EXIT_USAGE

    result = parse_schema(text)
    for diagnostic in result.diagnostics:
        _warn(diagnostic.render(provenance))

    code = EXIT_PARSE if result.syntax_errors else EXIT_OK if result.ok else EXIT_VALIDATION
    mode = ClassificationMode(args.mode)
    try:
        if args.command == "check":
            report = result
        elif result.schema is None:
            return code
        elif args.command == "analyze":
            from .completeness import schema_nc  # each command loads only what it runs

            report = schema_nc(result.schema, mode, key_cap=args.key_cap)
        elif args.command == "normalize":
            from .transform import normalize_to_bcnf

            report = normalize_to_bcnf(result.schema, mode, key_cap=args.key_cap)
        else:
            schema = result.schema
            report = CandidateKeys(schema, tuple(
                candidate_keys(rel, schema.projected_fds(rel), cap=args.key_cap)
                for rel in schema.relations
            ))
    except CapacityError as exc:
        needs = "" if args.command == "keys" else f" (--mode {args.mode} needs the key search)"
        _warn(f"normlens: {exc}{needs}")
        return EXIT_CAPACITY
    except DecompositionError as exc:
        _warn(f"normlens: {exc}")
        return EXIT_VALIDATION
    try:
        if sys.stdout is None:  # started with stdout closed
            raise OSError("stdout is closed")
        write_report(report, args.format, sys.stdout.write, dsl_snapshots=args.trace)
        sys.stdout.flush()
    except OSError as exc:
        _warn(f"normlens: cannot write output: {exc}")
        if sys.stdout is not None:
            _discard(sys.stdout)
        return EXIT_USAGE
    return code
