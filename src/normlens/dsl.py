"""Line-oriented schema description language and report rendering.

Grammar ('#' starts a comment, blank lines are skipped):

    schema-file   := schema-decl relation-decl+ fd-decl*
    schema-decl   := "schema" IDENT
    relation-decl := "relation" IDENT "(" attr-list ")" "key" "(" ident-list ")"
    attr-list     := attr ("," attr)*        attr := IDENT ["*"]   '*' = non-atomic
    fd-decl       := "fd" IDENT ":" ident-list "->" ident-list
    ident-list    := IDENT ("," IDENT)*
    IDENT         := [A-Za-z_][A-Za-z0-9_]*

The parser recovers per line and reports every diagnostic with a 1-based
line and column. Semantic rules are delegated to ``validate_schema``; its
findings come back as diagnostics anchored to the declaration that caused
them.

Reports render as text (schema totals as equations, e.g. "2.71 + 4 = 6.71")
or as a stable JSON tree in which every exact rational appears as
``{"num": ..., "den": ..., "display": ...}``.
"""

from __future__ import annotations

import functools
import re
from _json import encode_basestring_ascii  # the C encoder json.encoder re-exports
from typing import TYPE_CHECKING, Any, Callable, Container

from .model import (
    IDENTIFIER,
    AttributeSpec,
    ClassificationMode,
    FunctionalDependency,
    RelationSchema,
    Schema,
    Severity,
    _Record,
    truncated,
    validate_schema,
)

if TYPE_CHECKING:  # parsing needs none of these; emit_report imports what it renders
    from fractions import Fraction

    from .classify import FDPartition
    from .completeness import RelationNC, SchemaNC
    from .transform import TransformTrace

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_LIST = rf"{_IDENT}(?:\s*,\s*{_IDENT})*"
_TOKEN_RE = re.compile(rf"{_IDENT}|->|[(),:*]|\S")
_IDENT_RE = re.compile(_IDENT)
_ATTRIBUTE_RE = re.compile(rf"({_IDENT})(?:\s*(\*))?")
# A whole well-formed relation line (groups: name, attributes, key) or fd line
# (groups: label, determinant, dependents); \s is the whitespace the tokenizer skips.
_DECLARATION_RE = re.compile(
    rf"\s*(?:relation\s+({_IDENT})\s*\(\s*({_IDENT}(?:\s*\*)?(?:\s*,\s*{_IDENT}(?:\s*\*)?)*)"
    rf"\s*\)\s*key\s*\(\s*({_LIST})\s*\)|fd\s+({_IDENT})\s*:\s*({_LIST})\s*->\s*({_LIST}))\s*"
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


class _LineError(Exception):
    """Abort parsing of the current line; the diagnostic is already recorded."""


class _LineParser:
    def __init__(self, sink: list[ParseDiagnostic], line_no: int, content: str):
        self.sink = sink
        self.line_no = line_no
        self.tokens: list[tuple[str | None, int]] = [
            (m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(content)
        ]
        # End of line: no text, one column past the last non-blank character.
        self.tokens.append((None, len(content.rstrip()) + 1))
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0]

    def next_col(self) -> int:
        return self.tokens[self.pos][1]

    def take(self) -> tuple[str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str, column: int | None = None) -> None:
        self.sink.append(
            ParseDiagnostic(
                self.line_no,
                self.next_col() if column is None else column,
                Severity.ERROR,
                message,
            )
        )
        raise _LineError

    def expect(self, token: str) -> None:
        if self.peek() != token:
            self.error(f"expected '{token}'")
        self.take()

    def expect_ident(self, what: str) -> str:
        text = self.peek()
        if text is None or not IDENTIFIER.match(text):
            self.error(f"expected {what}")
        return self.take()[0]

    def expect_end(self, context: str) -> None:
        if self.peek() is not None:
            self.error(f"unexpected text after {context}")

    def ident_list(self, what: str) -> None:
        # "empty determinant list" / "empty dependent list" / "empty key list"
        text = self.peek()
        if text is None or not IDENTIFIER.match(text):
            self.error(f"empty {what} list")
        names: set[str] = set()
        while True:
            col = self.next_col()
            name = self.expect_ident(f"{what} attribute")
            if name in names:
                self.sink.append(_duplicate(self.line_no, col, name, what))
            names.add(name)
            if self.peek() != ",":
                return
            self.take()

    def declaration(self, head: str, head_col: int) -> None:
        # Only lines _DECLARATION_RE rejects come here: the walk only places their error.
        if head == "relation":
            self.expect_ident("relation name")
            self.expect("(")
            if self.peek() == ")":
                self.error("empty attribute list")
            while True:
                self.expect_ident("attribute name")
                if self.peek() == "*":
                    self.take()
                if self.peek() != ",":
                    break
                self.take()
            self.expect(")")
            self.expect("key")
            self.expect("(")
            self.ident_list("key")
            self.expect(")")
            self.expect_end("relation declaration")
        elif head == "fd":
            self.expect_ident("fd label")
            self.expect(":")
            self.ident_list("determinant")
            self.expect("->")
            self.ident_list("dependent")
            self.expect_end("fd declaration")
        else:
            self.error(f"expected 'schema', 'relation' or 'fd', got {head!r}", head_col)


def _duplicate(line_no: int, column: int, name: str, what: str) -> ParseDiagnostic:
    message = f"duplicate attribute {name!r} in {what} list (ignored)"
    return ParseDiagnostic(line_no, column, Severity.WARNING, message)


def _name_list(
    sink: list[ParseDiagnostic],
    line_no: int,
    match: re.Match[str],
    group: int,
    what: str,
    lists: dict[str, tuple[str, ...]],
) -> tuple[str, ...]:
    # A matched list's names, once each. A list of distinct names is scanned once per
    # text and every later copy shares its tuple; a list with a repeat stays out of
    # ``lists``, so every copy warns again, at each repeat's own column.
    text = match[group]
    names = lists.get(text)
    if names is None:
        found = _IDENT_RE.findall(text)
        names = tuple(dict.fromkeys(found))
        if len(names) == len(found):
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
    has none). Declarations whose name lists have the same text, with no
    name repeated, share one tuple of names. Diagnostics do not know where
    the text came from: ``ParseDiagnostic.render(provenance)`` names the source.
    """
    diagnostics: list[ParseDiagnostic] = []
    schema_name: str | None = None
    schema_anchor = (1, 1)
    relations: list[RelationSchema] = []
    fds: list[FunctionalDependency] = []
    # (line, column) of each declaration, parallel to relations and fds.
    relation_at: list[tuple[int, int]] = []
    fd_at: list[tuple[int, int]] = []
    lists: dict[str, tuple[str, ...]] = {}  # name list text -> its distinct names

    # One leading byte-order mark, as some editors write, is not schema text.
    # Only \n, \r\n and \r end a line, as for grep -n; str.splitlines() breaks at \f too.
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, 1):
        content = raw.split("#", 1)[0]
        if not content.strip():
            continue
        match = _DECLARATION_RE.fullmatch(content)
        # A declaration out of order goes on to the walk below, which reports it.
        if match and schema_name is not None and (match[4] or not fds):
            if match[1]:
                specs = _ATTRIBUTE_RE.findall(content, *match.span(2))
                attrs = tuple(AttributeSpec(name, not star) for name, star in specs)
                key = _name_list(diagnostics, line_no, match, 3, "key", lists)
                relations.append(RelationSchema(match[1], attrs, key))
                relation_at.append((line_no, match.start(1) + 1))
            else:
                determinant = _name_list(diagnostics, line_no, match, 5, "determinant", lists)
                dependents = _name_list(diagnostics, line_no, match, 6, "dependent", lists)
                fds.append(FunctionalDependency(match[4], determinant, dependents))
                fd_at.append((line_no, match.start(4) + 1))
            continue
        lp = _LineParser(diagnostics, line_no, content)
        head, head_col = lp.take()
        try:
            if head in ("relation", "fd") and schema_name is None:
                lp.error("expected 'schema' declaration first", head_col)
            if head == "schema":
                if schema_name is not None:
                    lp.error("duplicate schema declaration", head_col)
                name = lp.expect_ident("schema name")
                lp.expect_end("schema declaration")
                schema_name = name
                schema_anchor = (line_no, head_col)
            elif head == "relation" and fds:
                lp.error("relation declarations must come before fd declarations", head_col)
            else:
                lp.declaration(head, head_col)
        except _LineError:
            continue

    if schema_name is None:
        diagnostics.append(
            ParseDiagnostic(1, 1, Severity.ERROR, "missing schema declaration")
        )
    elif not relations:
        diagnostics.append(
            ParseDiagnostic(*schema_anchor, Severity.ERROR, "schema declares no relations")
        )

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
    return f"fd {fd.label}: {', '.join(fd.determinant)} -> {', '.join(fd.dependents)}"


def emit_schema(schema: Schema) -> str:
    """Render a schema back into the DSL; parse(emit(s)) == s for valid s."""
    return "\n".join([*_declaration_lines(schema), *map(_fd_line, schema.fds)]) + "\n"


# --- report rendering -------------------------------------------------------


def _rational(value: Fraction) -> dict[str, Any]:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "display": truncated(value),
    }


def _labels(fds: tuple[FunctionalDependency, ...]) -> str:
    return ", ".join(fd.label for fd in fds) or "(none)"


def _term(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else truncated(value)


def _equation(nc: SchemaNC) -> str:
    if len(nc.per_relation) < 2:
        return nc.total_display
    terms = " + ".join(_term(r.nc) for r in nc.per_relation)
    return f"{terms} = {nc.total_display}"


class _Memo(dict):
    """One report's trees by the id of their source object.

    ``memo(build, obj)`` is ``build(obj, memo)``, built on the first call for
    ``obj`` only, so an object the report shares becomes one shared tree. Each
    entry keeps ``obj``, so no other object takes its id while the memo lives.
    """

    def __call__(self, build: Callable[[Any, _Memo], Any], obj: object) -> Any:
        entry = self.get(id(obj))
        if entry is None:
            entry = self[id(obj)] = (obj, build(obj, self))
        return entry[1]


def _relation_dict(rel: RelationSchema, memo: _Memo) -> dict[str, Any]:
    return {
        "name": rel.name,
        "attributes": [
            {"name": spec.name, "atomic": spec.atomic} for spec in rel.attributes
        ],
        "key": list(rel.primary_key),
    }


def _fd_list(fds: tuple[FunctionalDependency, ...], memo: _Memo) -> list[dict[str, Any]]:
    return [
        {
            "label": fd.label,
            "determinant": list(fd.determinant),
            "dependents": list(fd.dependents),
        }
        for fd in fds
    ]


def _schema_dict(schema: Schema, memo: _Memo) -> dict[str, Any]:
    return {
        "name": schema.name,
        "relations": [memo(_relation_dict, rel) for rel in schema.relations],
        "fds": memo(_fd_list, schema.fds),
    }


def _partition_dict(partition: FDPartition) -> dict[str, Any]:
    return {
        "relation": partition.relation_name,
        "preventing": [fd.label for fd in partition.preventing],
        "non_preventing": [fd.label for fd in partition.non_preventing],
        "completeness_attributes": sorted(partition.completeness_attributes),
        "preventing_attributes": sorted(partition.preventing_attributes),
        "counts": {
            "completeness": partition.completeness_count,
            "preventing": partition.preventing_count,
            "total": partition.total_attributes,
        },
    }


def _relation_nc_dict(rnc: RelationNC, memo: _Memo) -> dict[str, Any]:
    return {
        "name": rnc.relation_name,
        "normal_form": {
            "label": rnc.normal_form.label,
            "level": rnc.normal_form.value,
        },
        "partition": _partition_dict(rnc.partition),
        "membership": _rational(rnc.membership),
        "nc": _rational(rnc.nc),
    }


def _schema_nc_dict(nc: SchemaNC, memo: _Memo) -> dict[str, Any]:
    return {
        "schema": nc.schema.name,
        "mode": nc.mode.value,
        "relations": [memo(_relation_nc_dict, r) for r in nc.per_relation],
        "total": _rational(nc.total),
    }


def _text_schema_nc(nc: SchemaNC) -> list[str]:
    suffix = " [strict mode]" if nc.mode is ClassificationMode.STRICT else ""
    lines = [f"schema {nc.schema.name}{suffix}"]
    for rnc in nc.per_relation:
        part = rnc.partition
        lines += [
            "",
            f"relation {rnc.relation_name}: {rnc.normal_form.label} (N={rnc.normal_form.value})",
            f"  preventing FDs ({len(part.preventing)}): {_labels(part.preventing)}",
            f"  non-preventing FDs ({len(part.non_preventing)}): {_labels(part.non_preventing)}",
            f"  attributes: completeness {part.completeness_count},"
            f" preventing {part.preventing_count}, total {part.total_attributes}",
            f"  membership x = {truncated(rnc.membership)} (exact {rnc.membership})",
            f"  NC = {rnc.nc_display} (exact {rnc.nc})",
        ]
    lines += ["", _equation(nc)]
    return lines


def _snapshot_fd_lines(fds: tuple[FunctionalDependency, ...], memo: _Memo) -> list[str]:
    return [f"    {_fd_line(fd)}" for fd in fds]


def _text_trace(trace: TransformTrace, dsl_snapshots: bool) -> list[str]:
    # Every step's schema shares one FD tuple: its snapshot lines are rendered once.
    memo = _Memo()
    suffix = " [strict mode]" if trace.initial_nc.mode is ClassificationMode.STRICT else ""
    lines = [
        f"schema {trace.initial_nc.schema.name}: normalization trace{suffix}",
        f"initial NC: {_equation(trace.initial_nc)}",
    ]
    for number, step in enumerate(trace.steps, 1):
        determinant = ", ".join(step.new_relation.primary_key)
        lines += [
            "",
            f"step {number}: {step.source_name}, moved"
            f" {', '.join(step.moved_fd_labels)} (determinant {determinant})",
            f"  new relation:     {step.new_relation.heading()}",
            f"  reduced relation: {step.reduced_relation.heading()}",
            f"  NC after: {_equation(step.nc_after)}",
        ]
        if not step.new_relation_bcnf:
            lines.append("  note: new relation is not yet in BCNF and will be split again")
        if dsl_snapshots:
            lines.append(f"  schema after step {number}:")
            lines += [f"    {text}" for text in _declaration_lines(step.nc_after.schema)]
            lines += memo(_snapshot_fd_lines, step.nc_after.schema.fds)
    lines += [
        "",
        f"final NC: {_equation(trace.final_nc)}",
        f"unpreserved FDs: {', '.join(trace.unpreserved_fd_labels) or '(none)'}",
    ]
    return lines


def _trace_dict(trace: TransformTrace, memo: _Memo) -> dict[str, Any]:
    return {
        "schema": trace.initial_nc.schema.name,
        "mode": trace.initial_nc.mode.value,
        "initial": memo(_schema_dict, trace.initial_nc.schema),
        "initial_nc": memo(_schema_nc_dict, trace.initial_nc),
        "steps": [
            {
                "source": step.source_name,
                "moved_fds": list(step.moved_fd_labels),
                "new_relation_bcnf": step.new_relation_bcnf,
                "new_relation": memo(_relation_dict, step.new_relation),
                "reduced_relation": memo(_relation_dict, step.reduced_relation),
                "schema_after": memo(_schema_dict, step.nc_after.schema),
                "nc_before": memo(_schema_nc_dict, step.nc_before),
                "nc_after": memo(_schema_nc_dict, step.nc_after),
            }
            for step in trace.steps
        ],
        "final": memo(_schema_dict, trace.final_nc.schema),
        "final_nc": memo(_schema_nc_dict, trace.final_nc),
        "unpreserved_fds": list(trace.unpreserved_fd_labels),
    }


# JSON text of a leaf by its exact type, so bool is never read as int.
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dumps(tree: Any, shared: Container[int] = frozenset()) -> str:
    """``json.dumps(tree, indent=2, sort_keys=True) + "\\n"``, for the types reports hold.

    Only str, int, bool, None, and lists and dicts with str keys are accepted;
    anything else raises TypeError. A list or dict whose id is in ``shared`` is
    encoded once per depth and its text reused, so the caller keeps each such
    object alive and unchanged until this returns.
    """
    chunks: list[str] = []
    fragments: dict[tuple[int, int], str] = {}

    def encode(node: Any, depth: int) -> None:
        leaf = _LEAVES.get(type(node))
        if leaf is not None:
            chunks.append(leaf(node))
        elif isinstance(node, str):
            chunks.append(encode_basestring_ascii(node))
        elif isinstance(node, int):  # a subclass; bool has none
            chunks.append(int.__repr__(node))
        elif not isinstance(node, (list, dict)):
            raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")
        elif not node:
            chunks.append("[]" if isinstance(node, list) else "{}")
        elif (id(node), depth) in fragments:
            chunks.append(fragments[id(node), depth])
        else:
            start = len(chunks)
            indent = "\n" + "  " * (depth + 1)
            if isinstance(node, list):
                separator = "[" + indent
                for item in node:
                    leaf = _LEAVES.get(type(item))
                    if leaf is None:
                        chunks.append(separator)
                        encode(item, depth + 1)
                    else:
                        chunks.append(separator + leaf(item))
                    separator = "," + indent
                chunks.append("\n" + "  " * depth + "]")
            else:
                separator = "{" + indent
                for name, value in sorted(node.items()):
                    if not isinstance(name, str):
                        raise TypeError(f"keys must be str, not {type(name).__name__}")
                    leaf = _LEAVES.get(type(value))
                    if leaf is None:
                        chunks.append(f"{separator}{encode_basestring_ascii(name)}: ")
                        encode(value, depth + 1)
                    else:
                        chunks.append(f"{separator}{encode_basestring_ascii(name)}: {leaf(value)}")
                    separator = "," + indent
                chunks.append("\n" + "  " * depth + "}")
            if id(node) in shared:
                fragment = fragments[id(node), depth] = "".join(chunks[start:])
                chunks[start:] = [fragment]

    encode(tree, 0)
    del encode  # the closure refers to itself; drop it so the chunks go with this frame
    chunks.append("\n")
    return "".join(chunks)


def emit_report(
    report: SchemaNC | TransformTrace,
    format: str = "text",
    *,
    dsl_snapshots: bool = False,
) -> str:
    """Render a schema score, partitions inside, or a trace as text or stable JSON.

    ``dsl_snapshots`` adds the schema after every step, in DSL form, to the
    text rendering of a trace (the structured form always embeds schemas).
    Structured output equals ``json.dumps(tree, indent=2, sort_keys=True)``
    plus a newline; an object the report shares, such as a score carried over
    from step to step, is built and encoded once per depth.
    """
    if format not in ("text", "structured"):
        raise ValueError(f"unknown report format {format!r}")
    from .completeness import SchemaNC

    if isinstance(report, SchemaNC):
        kind, as_dict, as_text = "schema_nc", _schema_nc_dict, _text_schema_nc
    else:
        from .transform import TransformTrace

        if not isinstance(report, TransformTrace):
            raise TypeError(f"cannot render {type(report).__name__} as a report")
        kind, as_dict = "transform_trace", _trace_dict
        as_text = functools.partial(_text_trace, dsl_snapshots=dsl_snapshots)
    if format == "structured":
        memo = _Memo()
        tree = {"kind": kind, **as_dict(report, memo)}
        return _dumps(tree, {id(built) for _, built in memo.values()})
    return "\n".join(as_text(report)) + "\n"
