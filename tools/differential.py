"""Differential check: the normlens of a git revision against the working tree.

Usage, from the root of a checkout:

    python tools/differential.py REV

``git archive REV src`` is unpacked into a temporary directory. One worker
process per tree imports that tree's ``normlens`` and answers each request
in turn: a ``cli.main`` run on a given stdin, captured as stdout, stderr and
exit code; a ``parse_schema`` result: schema and diagnostics by repr, and
the derived values that repr leaves out, of each relation, each FD and each
singleton of ``normalize_fds``; or a ``validate_schema`` result on a schema
built with the library's constructors: the repr of its violations, or the
name of the exception it raises.
Both workers get the same requests, and every answer is compared.

Inputs: the fixture and every ``tests/golden/*.nls``; the emitted schemas of
``build_corpus(200)`` and ``build_multi_corpus(100)`` (``tests/corpus.py``);
the benchmark's ``bulk``, ``decompose`` and ``keysearch`` texts at seeds 1-3,
as ``bench/run.py`` builds them; the ``unkeyed()`` schemas, whose split-off
half is the first relation a strict run keys; and MUTATIONS seeded
token-level mutations of those inputs. Each input is parsed, and every command of COMMANDS runs on
it in both formats, except structured ``normalize`` on ``bulk``, whose output
is over 100 MB. The probe shapes of ``probe_inputs()`` in ``tests/corpus.py``
(independent splits, an FD chain, and pairs of attributes that determine each
other), whose scores have larger denominators, run every command in both modes
and both formats.
Every argument list of ``spellings()`` also runs, with the
fixture on stdin and, in most, as the path: help, usage errors, bad values,
abbreviations, ``=`` forms, reordered and repeated options, ``-`` and ``--``.
The parser never reads a name that is not an identifier, so the schemas of
``validations()`` are built in the worker instead: each of BAD_NAMES in every
place a name can take, and one schema that holds them side by side.
A change that alters output on purpose lists each such difference in
ALLOWED. The script prints every difference it allows, the counts and the
first difference it does not allow. It exits 1 on such a difference, and on
a stale ALLOWED entry, one that allows no difference. It needs only the
standard library and git.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTATIONS = 2000
SEEDS = (1, 2, 3)
COMMANDS = (
    ("check",),
    ("analyze",),
    ("analyze", "--mode", "strict"),
    ("normalize",),
    ("normalize", "--mode", "strict"),
    ("normalize", "--trace"),
    ("keys",),
    ("keys", "--key-cap", "3"),
    ("analyze", "--mode", "strict", "--key-cap", "3"),
    ("normalize", "--mode", "strict", "--key-cap", "5"),
)
FORMATS = ("text", "structured")
PROBE_COMMANDS = (("check",), ("analyze",), ("normalize",), ("normalize", "--trace"), ("keys",))
FIXTURE = ROOT / "case_study.nls"
# Names that are not identifiers, and one that is not a str (validate_schema raises TypeError).
BAD_NAMES = ("a b", "a\nb", "", None, "a ", "\na", "b-c", "é", "Ａ", "a\x00", 5)
# Differences the working tree makes on purpose: (family, input, arguments, reason). An
# entry allows a difference in its family (parse_schema, cli.main, probe shapes, argument
# spellings or validate_schema) on an input whose label starts with its input, when the
# argument list holds its arguments side by side. Once the change is the reference its
# entries are stale: empty the list.
ALLOWED = ()

# A worker reads one JSON request per line: [argv, stdin text], [null, text] for
# parse_schema, or ["validate_schema", schema as JSON: [name, relations as [name,
# attributes, key], FDs as [label, determinant, dependents]]]. It answers one JSON
# line: [stdout, stderr, exit code]; [repr of the ParseResult, whether it holds a
# syntax error, derived values]: each with its type's name, the attribute names in
# order and every derived set sorted; or [repr of the violations, or the exception's name].
WORKER = r"""
import io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from normlens import AttributeSpec, FunctionalDependency, RelationSchema, Schema
from normlens import cli, normalize_fds, validate_schema
from normlens.dsl import parse_schema

def typed(value, order=sorted):
    return [type(value).__name__, order(value)]

def derived(schema):
    if schema is None:
        return None
    relations = [
        [typed(rel.attribute_names, list), typed(rel.attribute_set), typed(rel.primary_key_set)]
        for rel in schema.relations
    ]
    fds = [
        [repr(fd), typed(fd.determinant_set), typed(fd.dependents_set), typed(fd.attributes)]
        for fd in (*schema.fds, *normalize_fds(schema.fds))
    ]
    return [relations, fds]

replies = sys.stdout
for line in sys.stdin:
    argv, text = json.loads(line)
    if argv is None:
        result = parse_schema(text)
        reply = [repr(result), bool(result.syntax_errors), derived(result.schema)]
    elif argv == "validate_schema":
        name, relations, fds = json.loads(text)
        try:
            specs = [(r, [AttributeSpec(a) for a in attrs], key) for r, attrs, key in relations]
            schema = Schema(
                name,
                [RelationSchema(*parts) for parts in specs],
                [FunctionalDependency(*parts) for parts in fds],
            )
            reply = [repr(validate_schema(schema).violations)]
        except Exception as exc:
            reply = [type(exc).__name__]
    else:
        stdin = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "traceback"
            sys.stderr.write(traceback.format_exc())
        reply = [sys.stdout.getvalue(), sys.stderr.getvalue(), code]
        sys.stdin, sys.stdout, sys.stderr = stdin, replies, sys.__stderr__
    replies.write(json.dumps(reply) + "\n")
    replies.flush()
"""

# Pieces a mutation cuts a text into: names, '->', and every other character.
_PIECE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|.", re.S)
_VOCABULARY = (
    "schema", "relation", "fd", "key", "(", ")", ",", ":", "->", "*", "#", "-", ">",
    "a", "b", "R", "F1", "_x9", "9z", " ", "\t", "\n", "\r", "\r\n", "\x0c", "\x85", "é",
)


class Worker:
    def __init__(self, src: Path):
        self.process = subprocess.Popen(
            [sys.executable, "-I", "-B", "-c", WORKER, str(src)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            encoding="utf-8",
        )

    def send(self, argv: list[str] | None, text: str) -> None:
        self.process.stdin.write(json.dumps([argv, text]) + "\n")
        self.process.stdin.flush()

    def receive(self) -> list:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("a worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")  # keeps every line ending as written


def base_inputs() -> list[tuple[str, str]]:
    """(label, text) of every input before mutation."""
    sys.dont_write_bytecode = True  # nothing is written under bench/ or tests/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from corpus import benchmark_texts, build_corpus, build_multi_corpus

    from normlens import emit_schema

    inputs = [("case_study.nls", _read(FIXTURE))]
    inputs += [(f"golden/{p.name}", _read(p)) for p in sorted(ROOT.glob("tests/golden/*.nls"))]
    inputs += [(f"corpus {i}", emit_schema(s)) for i, (s, _) in enumerate(build_corpus(200))]
    inputs += [(f"multi {i}", emit_schema(s)) for i, s in enumerate(build_multi_corpus(100))]
    texts = {seed: benchmark_texts(seed) for seed in SEEDS}
    inputs += [(f"{name} seed {s}", texts[s][name]) for name in texts[SEEDS[0]] for s in SEEDS]
    return inputs + unkeyed()


def unkeyed() -> list[tuple[str, str]]:
    """(label, text) of a relation left UNF by ``c*``, whose score searches no keys.

    Its one preventing FD splits off a half of 6 attributes, wider than the cap of
    5 in COMMANDS, or of 21, wider than the default cap of 20: in strict mode the
    step's key search on that half is the first one, so only the cap the run was
    given can refuse it.
    """
    inputs = []
    for width in (6, 21):
        moved = ", ".join(f"b{i}" for i in range(1, width))
        relation = f"relation R(k, c*, a, {moved}) key(k)"
        text = f"schema u\n{relation}\nfd K: k -> c, a\nfd F: a -> {moved}\n"
        inputs.append((f"unkeyed half of {width}", text))
    return inputs


def mutate(text: str, rng: random.Random) -> str:
    """One to three token edits: drop, repeat, replace or insert a piece."""
    pieces = _PIECE_RE.findall(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(pieces) + 1)
        # Half the new pieces come from the text itself, so names clash and go missing.
        new = rng.choice(pieces or _VOCABULARY) if rng.random() < 0.5 else rng.choice(_VOCABULARY)
        edit = rng.choice(("drop", "repeat", "replace", "insert"))
        if edit == "insert" or at == len(pieces):
            pieces.insert(at, new)
        elif edit == "drop":
            del pieces[at]
        elif edit == "repeat":
            pieces.insert(at, pieces[at])
        else:
            pieces[at] = new
    return "".join(pieces)


def spellings(path: str) -> list[list[str]]:
    """Argument lists that ask for help, are wrong, or spell a run another way."""
    lists = [[], ["-h"], ["--help"], ["bogus", path], ["--mode", "strict", "check", path]]
    for command in ("analyze", "normalize", "keys", "check"):
        lists += [
            [command, *tail]
            for tail in (
                ["-h"], ["--help"], [path, "-h"], [], ["-"], [""], ["-name"], [path, path],
                ["--", path], ["--", "-"], ["--", "--mode"], [path, "--"],
                [path, "--format", "structured", "--mode", "strict"],
                ["--format=structured", "--mode=strict", path], ["--key-cap=3", "-"],
                ["--form", "structured", path], ["--mo=strict", path], ["--key-c", "3", path],
                ["--mode", "strict", "--mode", "primary", path], ["--format", "--mode", "strict"],
                ["--mode", "bogus", path], ["--format", path], ["--format="], ["--mode"],
                ["--trace", path], ["--trace=1", path], ["--tr", path], ["--trace", "--trace"],
                *[["--key-cap", v, path] for v in ("0", "-5", "x", "03", "\u0663", "", "7" * 5000)],
            )
        ]
    return lists


def validations() -> list[tuple[str, str]]:
    """(label, schema as the worker's JSON) of each bad name in each place, and all together."""
    relation, fd = ["R", ["a", "b"], ["a"]], ["F", ["a"], ["b"]]
    schemas = []
    for name in BAD_NAMES:
        schemas += [
            (f"{name!r} as schema name", [name, [relation], [fd]]),
            (f"{name!r} as relation name", ["s", [[name, ["a", "b"], ["a"]]], [fd]]),
            (f"{name!r} as attribute", ["s", [["R", ["a", name], ["a"]]], [["F", ["a"], [name]]]]),
            (f"{name!r} as fd label", ["s", [relation], [[name, ["a"], ["b"]]]]),
            (f"{name!r} in a determinant", ["s", [relation], [["F", [name, "a"], ["b"]]]]),
        ]
    names = [name for name in BAD_NAMES if not isinstance(name, int)]
    mixed = ["s", [["R", ["a", *names], ["a"]]], [["F", ["a", *names[::2]], names[1::2]]]]
    schemas.append(("every str and None name together", mixed))
    return [(label, json.dumps(schema)) for label, schema in schemas]


def runs(label: str) -> list[list[str]]:
    return [
        [*command, "--format", format]
        for command in COMMANDS
        for format in FORMATS
        if not (label.startswith("bulk") and command[0] == "normalize" and format == "structured")
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision whose src/ is the reference")
    rev = parser.parse_args(argv).rev
    archive = subprocess.run(
        ["git", "archive", rev, "src"], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    bases = base_inputs()
    from corpus import probe_inputs  # base_inputs put tests/ on the path

    inputs = list(bases)
    for number in range(MUTATIONS):
        rng = random.Random(f"mutation:{number}")
        label, text = rng.choice(bases)
        inputs.append((f"{label}, mutation {number}", mutate(text, rng)))

    # (kind, label, text, request, whether the text is a mutation)
    jobs = [
        ("parse_schema" if request is None else "cli.main", label, text, request, mutation)
        for number, (label, text) in enumerate(inputs)
        for mutation in [number >= len(bases)]
        for request in [None, *runs(label)]
    ]
    jobs += [
        ("probe shapes", label, text, [*command, "--mode", mode, "--format", format], False)
        for label, text in probe_inputs()
        for command in PROBE_COMMANDS
        for mode in ("primary", "strict")
        for format in FORMATS
    ]
    jobs += [
        ("argument spellings", "case_study.nls", _read(FIXTURE), argv, False)
        for argv in spellings(str(FIXTURE))
    ]
    jobs += [
        ("validate_schema", label, text, "validate_schema", False)
        for label, text in validations()
    ]
    families = ("parse_schema", "cli.main", "probe shapes", "argument spellings", "validate_schema")
    counts = dict.fromkeys(families, 0)
    differing = dict(counts)
    allowed = [0] * len(ALLOWED)
    syntax_errors = 0  # mutations that the reference reads with a syntax error
    first = ""
    print(f"differential: {rev} against the working tree")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        workers = [Worker(Path(tmp) / "src"), Worker(ROOT / "src")]
        try:
            for kind, label, text, request, mutation in jobs:
                for worker in workers:  # both work at once
                    worker.send(request, text)
                before, after = [worker.receive() for worker in workers]
                counts[kind] += 1
                if request is None and mutation:
                    syntax_errors += before[1]
                if before == after:
                    continue
                entry = _allowed(kind, label, request)
                if entry is None:
                    differing[kind] += 1
                    first = first or _describe(rev, label, text, request, before, after)
                else:
                    allowed[entry] += 1
                    fields = _fields(request)
                    changed = ", ".join(f for f, b, a in zip(fields, before, after) if b != a)
                    print(f"allowed ({entry + 1}): {label}: {_command(request)}: {changed}")
        finally:
            for worker in workers:
                worker.close()

    print(f"inputs: {len(bases)}, and {MUTATIONS} mutations of them,"
          f" {syntax_errors} of which have syntax errors")
    for kind in counts:
        print(f"{kind}: {counts[kind]} compared, {differing[kind]} differ")
    stale = False
    for number, ((family, inputs, arguments, reason), times) in enumerate(zip(ALLOWED, allowed)):
        state = f"allowed {times} times" if times else "stale: it allows no difference"
        shown = f"{family} on {inputs}: {_command(arguments)}"
        print(f"allowed ({number + 1}), {state}: {shown}: {reason}")
        stale = stale or not times
    print(first, end="")
    return 1 if first or stale else 0


def _allowed(kind: str, label: str, request: list[str] | str | None) -> int | None:
    """The index of the ALLOWED entry that covers this job, or None."""
    argv = tuple(request) if isinstance(request, list) else ()
    for index, (family, inputs, arguments, _reason) in enumerate(ALLOWED):
        width = len(arguments)
        if family == kind and label.startswith(inputs) and any(
            argv[at:at + width] == arguments for at in range(len(argv) - width + 1)
        ):
            return index
    return None


def _fields(request: list[str] | str | None) -> tuple[str, ...]:
    if request is None:
        return ("repr", "syntax error", "derived values")
    if request == "validate_schema":
        return ("violations",)
    return ("stdout", "stderr", "exit code")


def _command(request: list[str] | tuple[str, ...] | str | None) -> str:
    # A long token, such as a 5,000-digit numeral, is cut to its first characters.
    if request is None:
        return "parse_schema"
    if isinstance(request, str):
        return request
    shown = (t if len(t) <= 40 else f"{t[:8]}... ({len(t)} characters)" for t in request)
    return " ".join(["normlens", *shown])


def _describe(
    rev: str, label: str, text: str, request: list[str] | str | None, before: list, after: list
) -> str:
    field, old, new = next((f, b, a) for f, b, a in zip(_fields(request), before, after) if b != a)
    old_lines, new_lines = str(old).splitlines(), str(new).splitlines()
    line = next(
        (i for i, (b, a) in enumerate(zip(old_lines, new_lines)) if b != a),
        min(len(old_lines), len(new_lines)),
    )
    command = _command(request)
    shown = text if len(text) <= 2000 else text[:2000] + "\n[... cut at 2000 characters]"
    return (
        f"first difference: {label}: {command}: {field}, line {line + 1}\n"
        f"  {rev}: {old_lines[line:line + 1]}\n  working tree: {new_lines[line:line + 1]}\n"
        f"input:\n{shown}\n"
    )


if __name__ == "__main__":
    sys.exit(main())
