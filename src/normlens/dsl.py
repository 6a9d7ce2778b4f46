"""Line-oriented schema description language and the report entry point.

Grammar ('#' starts a comment, blank lines are skipped):

    schema-file   := schema-decl relation-decl+ fd-decl*
    schema-decl   := "schema" IDENT
    relation-decl := "relation" IDENT "(" attr-list ")" "key" "(" ident-list ")"
    attr-list     := attr ("," attr)*        attr := IDENT ["*"]   '*' = non-atomic
    fd-decl       := "fd" IDENT ":" ident-list "->" ident-list
    ident-list    := IDENT ("," IDENT)*
    IDENT         := [A-Za-z_][A-Za-z0-9_]*

The code reads this grammar from one table, ``_GRAMMAR``: it builds the
regular expression that reads every well-formed line and drives the token
walk that only places the error of a rejected or out-of-order line.

The parser recovers per line and reports every diagnostic with a 1-based
line and column. Semantic rules are delegated to ``validate_schema``; its
findings come back as diagnostics anchored to the declaration that caused
them.

``emit_report`` renders every command's report as text or stable JSON, and
``write_report`` writes it. A check and the key lists render here; a score and
a trace beside their records, in ``completeness`` and ``transform``, imported
only to render one: ``check`` and ``keys`` compile none of their renderers.
"""

from __future__ import annotations

import re
import sys

from .model import (
    _BOOL, _IDENT, _TOP, AttributeSpec, FunctionalDependency, RelationSchema, Schema, Severity,
    _array, _is_identifier, _names, _new, _quote, _Record, validate_schema,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:  # parsing needs neither; emit_report imports the one it renders
    from collections.abc import Callable

    from .completeness import SchemaNC
    from .model import _Names
    from .transform import TransformTrace

_TOKEN_RE = re.compile(rf"{_IDENT}|->|[(),:*]|\S")
_IDENT_RE = re.compile(_IDENT)
_ATTRIBUTE_RE = re.compile(rf"({_IDENT})(?:\s*(\*))?")

# The grammar: each keyword's steps after it, in order. A step is a literal token,
# a name, the attribute list (names that may carry '*') or a name list, with the
# words its error messages use.
_GRAMMAR: dict[str, tuple[tuple[str, str], ...]] = {
    "schema": (("name", "schema name"),),
    "relation": (
        ("name", "relation name"), ("token", "("), ("attributes", "attribute"), ("token", ")"),
        ("token", "key"), ("token", "("), ("names", "key"), ("token", ")"),
    ),
    "fd": (
        ("name", "fd label"), ("token", ":"), ("names", "determinant"), ("token", "->"),
        ("names", "dependent"),
    ),
}


def _pattern(keyword: str) -> str:
    # A keyword's steps as one regular expression, a group per name and list. \s is the
    # whitespace the tokenizer skips; a name step follows its keyword, so needs some.
    pattern = keyword
    for kind, what in _GRAMMAR[keyword]:
        if kind == "token":
            pattern += r"\s*" + ("\\" + what if what in "()" else what)
        elif kind == "name":
            pattern += rf"\s+({_IDENT})"
        else:
            item = _IDENT + (r"(?:\s*\*)?" if kind == "attributes" else "")
            pattern += rf"\s*({item}(?:\s*,\s*{item})*)"
    return pattern


# A whole well-formed relation line (groups: name, attributes, key), fd line
# (groups: label, determinant, dependents) or schema line (group: name).
_DECLARATION_RE = re.compile(
    rf"\s*(?:{_pattern('relation')}|{_pattern('fd')}|{_pattern('schema')})\s*"
)


class ParseDiagnostic(_Record):
    line: int
    column: int
    severity: Severity
    message: str
    code: str = "SYNTAX"

    def render(self, provenance: str = "<input>") -> str:
        return f"{provenance}:{self.line}:{self.column}: {self.severity.value}: {self.message}"


class ParseResult(_Record):
    """Outcome of a parse: a schema unless any error-severity diagnostic exists."""

    schema: Schema | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def syntax_errors(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(
            d
            for d in self.diagnostics
            if d.code == "SYNTAX" and d.severity is Severity.ERROR
        )


class CandidateKeys(_Record):
    """What ``keys`` reports: one tuple of candidate keys per relation, in schema order."""

    schema: Schema
    keys: tuple[tuple[frozenset[str], ...], ...]


def _check_report(result: ParseResult, format: str) -> str:
    if format == "structured":
        diagnostics = [
            f'{{\n      "code": {_quote(d.code)},\n      "column": {d.column:d},\n      "line": {d.line:d},'
            f'\n      "message": {_quote(d.message)},\n      "severity": {_quote(d.severity.value)}\n    }}'
            for d in result.diagnostics
        ]
        name = _quote(result.schema.name) if result.schema else "null"
        return (
            f'{{\n  "diagnostics": {_array(diagnostics, _TOP)},\n  "kind": "check",'
            f'\n  "ok": {_BOOL[result.ok]},\n  "schema": {name}\n}}\n'
        )
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


_KEYS_PAD, _KEY_PAD = _TOP + "    ", _TOP + "      "  # a relation's key list, one key's names


def _keys_report(report: CandidateKeys, format: str) -> str:
    rows = list(zip(report.schema.relations, report.keys, strict=True))
    if format == "structured":
        relations = [
            f'{{\n      "keys": {_array([_names(sorted(key), _KEY_PAD) for key in keys], _KEYS_PAD)},'
            f'\n      "name": {_quote(rel.name)}\n    }}'
            for rel, keys in rows
        ]
        return (
            f'{{\n  "kind": "candidate_keys",\n  "relations": {_array(relations, _TOP)},'
            f'\n  "schema": {_quote(report.schema.name)}\n}}\n'
        )
    lines = [f"schema {report.schema.name}"]
    for rel, keys in rows:
        lines += ["", f"relation {rel.name}: {len(keys)} candidate key(s)"]
        lines += [f"  ({', '.join(sorted(key))})" for key in keys]
    return "\n".join(lines) + "\n"


def _error(sink: list[ParseDiagnostic], line_no: int, column: int, message: str) -> None:
    sink.append(ParseDiagnostic(line_no, column, Severity.ERROR, message))


def _walk(sink: list[ParseDiagnostic], line_no: int, content: str) -> None:
    # Walks the tokens of a line the match rejected through its keyword's steps, only
    # to place its error: records the first error and any repeated-name warning before it.
    tokens = [(m[0], m.start() + 1) for m in _TOKEN_RE.finditer(content)]
    # End of line: no text, one column past the last non-blank character.
    tokens.append((None, len(content.rstrip()) + 1))
    head, column = tokens[0]
    if head not in _GRAMMAR:
        return _error(sink, line_no, column, f"expected 'schema', 'relation' or 'fd', got {head!r}")
    at = 1
    for kind, what in _GRAMMAR[head]:
        text, column = tokens[at]
        if kind == "token":
            if text != what:
                return _error(sink, line_no, column, f"expected '{what}'")
            at += 1
        elif kind == "name":
            if not _is_identifier(text or ""):
                return _error(sink, line_no, column, f"expected {what}")
            at += 1
        else:  # names apart by commas; in the attribute list each may carry a '*'
            starred = kind == "attributes"
            if (text == ")") if starred else not _is_identifier(text or ""):
                return _error(sink, line_no, column, f"empty {what} list")
            seen: set[str] = set()
            while True:
                text, column = tokens[at]
                if not _is_identifier(text or ""):
                    item = "name" if starred else "attribute"
                    return _error(sink, line_no, column, f"expected {what} {item}")
                if text in seen and not starred:
                    sink.append(_duplicate(line_no, column, text, what))
                seen.add(text)
                at += 2 if starred and tokens[at + 1][0] == "*" else 1
                if tokens[at][0] != ",":
                    break
                at += 1
    text, column = tokens[at]
    if text is not None:
        _error(sink, line_no, column, f"unexpected text after {head} declaration")


def _duplicate(line_no: int, column: int, name: str, what: str) -> ParseDiagnostic:
    message = f"duplicate attribute {name!r} in {what} list (ignored)"
    return ParseDiagnostic(line_no, column, Severity.WARNING, message)


def _name_list(
    sink: list[ParseDiagnostic],
    line_no: int,
    match: re.Match[str],
    group: int,
    what: str,
    lists: dict[str, _Names],
) -> _Names:
    # A matched list's names, once each, and their set. A list of distinct names is
    # scanned once per text and every later copy shares its pair; a list with a
    # repeat stays out of ``lists``, so every copy warns again, at each repeat's own column.
    text = match[group]
    names = lists.get(text)
    if names is None:
        found = _IDENT_RE.findall(text)
        names = tuple(dict.fromkeys(found)), frozenset(found)
        if len(names[0]) == len(found):
            lists[text] = names
        else:
            seen: set[str] = set()
            for m in _IDENT_RE.finditer(match.string, *match.span(group)):
                if m[0] in seen:
                    sink.append(_duplicate(line_no, m.start() + 1, m[0], what))
                seen.add(m[0])
    return names


def parse_schema(text: str) -> ParseResult:
    """Parse a schema document; diagnostics cover syntax and validation.

    Returns a ParseResult whose schema is None when any error was found.
    Warnings (for example a primary key that is not a superkey) leave the
    schema usable. A validation finding points at the declaration that is its
    ``Violation.subject``, even when a name repeats (the schema line when it
    has none). Declarations whose name lists have the same text, with no name
    repeated, share one tuple of names and its set; relations share one
    ``AttributeSpec`` per name and atomicity. Diagnostics do not know where the
    text came from: ``ParseDiagnostic.render(provenance)`` names the source.
    """
    diagnostics: list[ParseDiagnostic] = []
    schema_name: str | None = None
    schema_anchor = (1, 1)
    relations: list[RelationSchema] = []
    fds: list[FunctionalDependency] = []
    # (line, column) of each declaration, parallel to relations and fds.
    relation_at: list[tuple[int, int]] = []
    fd_at: list[tuple[int, int]] = []
    lists: dict[str, _Names] = {}  # name list text -> its distinct names and their set
    specs: dict[tuple[str, str], AttributeSpec] = {}  # (name, "*" or "") -> its spec

    # One leading byte-order mark, as some editors write, is not schema text.
    # Only \n, \r\n and \r end a line, as for grep -n; str.splitlines() breaks at \f too.
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, content in enumerate(lines, 1):
        # A declaration holds no '#', so only a line it rejects may be a comment or blank.
        match = _DECLARATION_RE.fullmatch(content)
        if match is None:
            content = content.split("#", 1)[0]
            if not content.strip():
                continue
            match = _DECLARATION_RE.fullmatch(content)
        # A declaration out of order goes on to the checks below, which report it.
        if match and match[7]:
            if schema_name is None:
                # The keyword's column: only whitespace, which holds no "schema", precedes it.
                schema_name, schema_anchor = match[7], (line_no, content.index("schema") + 1)
                continue
        elif match and schema_name is not None and (match[4] or not fds):
            if match[1]:
                attrs = tuple(
                    specs.get(f) or specs.setdefault(f, AttributeSpec(f[0], not f[1]))
                    for f in _ATTRIBUTE_RE.findall(content, *match.span(2))
                )
                key = _name_list(diagnostics, line_no, match, 3, "key", lists)
                relations.append(_new(RelationSchema)._set(match[1], attrs, key))
                relation_at.append((line_no, match.start(1) + 1))
            else:
                determinant = _name_list(diagnostics, line_no, match, 5, "determinant", lists)
                dependents = _name_list(diagnostics, line_no, match, 6, "dependent", lists)
                fds.append(_new(FunctionalDependency)._set(match[4], determinant, dependents))
                fd_at.append((line_no, match.start(4) + 1))
            continue
        first = _TOKEN_RE.search(content)
        head, column = first[0], first.start() + 1
        if head in ("relation", "fd") and schema_name is None:
            _error(diagnostics, line_no, column, "expected 'schema' declaration first")
        elif head == "schema" and schema_name is not None:
            _error(diagnostics, line_no, column, "duplicate schema declaration")
        elif head == "relation" and fds:
            message = "relation declarations must come before fd declarations"
            _error(diagnostics, line_no, column, message)
        else:
            # The match took every well-formed line in order, so the walk finds an error.
            _walk(diagnostics, line_no, content)

    if schema_name is None:
        _error(diagnostics, 1, 1, "missing schema declaration")
    elif not relations:
        _error(diagnostics, *schema_anchor, "schema declares no relations")

    if any(d.severity is Severity.ERROR for d in diagnostics):
        return ParseResult(None, tuple(diagnostics))

    schema = Schema(schema_name or "", tuple(relations), tuple(fds))
    report = validate_schema(schema)
    if report.violations:
        # Keyed by identity: equal declarations on two lines keep two anchors.
        anchors = dict(zip(map(id, relations), relation_at))
        anchors.update(zip(map(id, fds), fd_at))
        for v in report.violations:
            line, column = anchors.get(id(v.subject), schema_anchor)
            diagnostics.append(ParseDiagnostic(line, column, v.severity, v.message, v.code))
    return ParseResult(schema if report.ok else None, tuple(diagnostics))


def _declaration_lines(schema: Schema) -> list[str]:
    lines = [f"schema {schema.name}"]
    for rel in schema.relations:
        attrs = ", ".join(
            spec.name if spec.atomic else f"{spec.name}*" for spec in rel.attributes
        )
        lines.append(
            f"relation {rel.name}({attrs}) key({', '.join(rel.primary_key)})"
        )
    return lines


def _fd_line(fd: FunctionalDependency) -> str:
    return f"fd {fd}"


def emit_schema(schema: Schema) -> str:
    """Render a schema back into the DSL; parse(emit(s)) == s for valid s."""
    return "\n".join([*_declaration_lines(schema), *map(_fd_line, schema.fds)]) + "\n"


def emit_report(
    report: ParseResult | CandidateKeys | SchemaNC | TransformTrace,
    format: str = "text",
    *,
    dsl_snapshots: bool = False,
) -> str:
    """Render a check result, key lists, a schema score or a trace as text or stable JSON.

    ``dsl_snapshots`` adds the schema after every step, in DSL form, to the text
    rendering of a trace (the structured form always embeds schemas). Structured
    output is what ``json.dumps(tree, indent=2, sort_keys=True)`` plus a newline
    gives for the report's tree, but no tree is built: each record writes its
    own JSON text, and a record the report shares, such as a score carried over
    from step to step, is rendered once per indent. Another format or report
    type is a programmer error (ValueError, TypeError), and so are key lists
    that do not pair with their schema's relations (ValueError).
    """
    if format not in ("text", "structured"):
        raise ValueError(f"unknown report format {format!r}")
    if isinstance(report, ParseResult):
        return _check_report(report, format)
    if isinstance(report, CandidateKeys):
        return _keys_report(report, format)
    from .completeness import SchemaNC, _schema_nc, _text_schema_nc

    if isinstance(report, SchemaNC):
        if format == "text":
            return "\n".join(_text_schema_nc(report)) + "\n"
        return _schema_nc(report, "\n", {}, kind='\n  "kind": "schema_nc",') + "\n"
    from .transform import TransformTrace, _text_trace, _write_trace

    if not isinstance(report, TransformTrace):
        raise TypeError(f"cannot render {type(report).__name__} as a report")
    if format == "text":
        return "\n".join(_text_trace(report, dsl_snapshots)) + "\n"
    chunks: list[str] = []
    _write_trace(report, chunks.append)
    return "".join(chunks)


def write_report(
    report: ParseResult | CandidateKeys | SchemaNC | TransformTrace,
    format: str,
    write: Callable[[str], object],
    *,
    dsl_snapshots: bool = False,
) -> None:
    """Write ``emit_report(report, format, dsl_snapshots=...)`` through ``write``.

    A structured trace, which grows with the square of its steps, is written a
    step at a time as each is rendered; any other report in one call, or not at all.
    """
    transform = sys.modules.get(f"{__package__}.transform")  # loaded if report is a trace
    if format == "structured" and transform and isinstance(report, transform.TransformTrace):
        transform._write_trace(report, write)
    else:
        write(emit_report(report, format, dsl_snapshots=dsl_snapshots))
