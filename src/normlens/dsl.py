"""Line-oriented schema description language and report rendering.

Grammar ('#' starts a comment, blank lines are skipped):

    schema-file   := schema-decl relation-decl+ fd-decl*
    schema-decl   := "schema" IDENT
    relation-decl := "relation" IDENT "(" attr-list ")" "key" "(" ident-list ")"
    attr-list     := attr ("," attr)*        attr := IDENT ["*"]   '*' = non-atomic
    fd-decl       := "fd" IDENT ":" ident-list "->" ident-list
    ident-list    := IDENT ("," IDENT)*
    IDENT         := [A-Za-z_][A-Za-z0-9_]*

The code reads this grammar from one table, ``_GRAMMAR``: it builds the
regular expression that reads a well-formed line and drives the token walk
that places a rejected line's error.

The parser recovers per line and reports every diagnostic with a 1-based
line and column. Semantic rules are delegated to ``validate_schema``; its
findings come back as diagnostics anchored to the declaration that caused
them.

Reports render as text (schema totals as equations, e.g. "2.71 + 4 = 6.71")
or as stable JSON, written by each record straight from its fields, in which
every exact rational appears as ``{"num": ..., "den": ..., "display": ...}``.
"""

from __future__ import annotations

import re
from _json import encode_basestring_ascii as _quote  # the C encoder json.encoder re-exports

from .model import (
    _IDENT,
    IDENTIFIER,
    AttributeSpec,
    ClassificationMode,
    FunctionalDependency,
    RelationSchema,
    Schema,
    Severity,
    _Record,
    _truncated,
    validate_schema,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:  # parsing needs none of these; emit_report imports what it renders
    from collections.abc import Callable, Iterable
    from typing import Any

    from .completeness import Ratio, RelationNC, SchemaNC
    from .transform import TransformStep, TransformTrace

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


# A whole well-formed relation line (groups: name, attributes, key) or fd line
# (groups: label, determinant, dependents).
_DECLARATION_RE = re.compile(rf"\s*(?:{_pattern('relation')}|{_pattern('fd')})\s*")


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


def _error(sink: list[ParseDiagnostic], line_no: int, column: int, message: str) -> None:
    sink.append(ParseDiagnostic(line_no, column, Severity.ERROR, message))


def _walk(sink: list[ParseDiagnostic], line_no: int, content: str) -> str | None:
    # Walks a line's tokens through its keyword's steps: a line the match rejected,
    # to place its error, or the schema line. Records any repeated-name warning and
    # the first error, and returns the line's name when it has no error.
    tokens = [(m[0], m.start() + 1) for m in _TOKEN_RE.finditer(content)]
    # End of line: no text, one column past the last non-blank character.
    tokens.append((None, len(content.rstrip()) + 1))
    head, column = tokens[0]
    if head not in _GRAMMAR:
        return _error(sink, line_no, column, f"expected 'schema', 'relation' or 'fd', got {head!r}")
    name, at = None, 1
    for kind, what in _GRAMMAR[head]:
        text, column = tokens[at]
        if kind == "token":
            if text != what:
                return _error(sink, line_no, column, f"expected '{what}'")
            at += 1
        elif kind == "name":
            if not IDENTIFIER.match(text or ""):
                return _error(sink, line_no, column, f"expected {what}")
            name, at = text, at + 1
        else:  # names apart by commas; in the attribute list each may carry a '*'
            starred = kind == "attributes"
            if (text == ")") if starred else not IDENTIFIER.match(text or ""):
                return _error(sink, line_no, column, f"empty {what} list")
            seen: set[str] = set()
            while True:
                text, column = tokens[at]
                if not IDENTIFIER.match(text or ""):
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
        return _error(sink, line_no, column, f"unexpected text after {head} declaration")
    return name


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
        # A declaration out of order goes on to the checks below, which report it.
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
            # The match took every well-formed relation and fd line in order, so
            # only a schema line can pass the walk.
            name = _walk(diagnostics, line_no, content)
            if name is not None:
                schema_name, schema_anchor = name, (line_no, column)

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


# --- report rendering -------------------------------------------------------
#
# Each record renders its own JSON text in the layout of
# ``json.dumps(tree, indent=2, sort_keys=True)``, with no tree in between. A
# renderer takes the record, ``pad`` (a newline and the indent of the line the
# record ends on) and the report's cache; its f-strings spell the keys in sorted
# order, each on its own line at ``pad + "  "``.

_BOOL = ("false", "true")
_TOP = "\n  "  # pad of a report's top-level values


def _array(items: list[str], pad: str) -> str:
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"


def _names(names: Iterable[str], pad: str) -> str:
    return _array(list(map(_quote, names)), pad)


def _shared(cache: dict, render: Callable[..., Any], obj: Any, pad: str) -> Any:
    # render(obj, pad, cache), run once per object and pad; the entry keeps obj,
    # so no other object takes its id while the cache lives.
    entry = cache.get((id(obj), pad))
    if entry is None:
        entry = cache[id(obj), pad] = (obj, render(obj, pad, cache))
    return entry[1]


def _rational(value: Ratio, pad: str) -> str:
    p1 = pad + "  "  # the display is digits and a point: nothing to escape
    num, den = value
    return (
        f'{{{p1}"den": {den},{p1}"display": "{_truncated(num, den)}",'
        f'{p1}"num": {num}{pad}}}'
    )


def _relation(rel: RelationSchema, pad: str, cache: object) -> str:
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    specs = [
        f'{{{p3}"atomic": {_BOOL[bool(spec.atomic)]},{p3}"name": {_quote(spec.name)}{p2}}}'
        for spec in rel.attributes
    ]
    return (
        f'{{{p1}"attributes": {_array(specs, p1)},{p1}"key": {_names(rel.primary_key, p1)},'
        f'{p1}"name": {_quote(rel.name)}{pad}}}'
    )


def _fds(fds: tuple[FunctionalDependency, ...], pad: str, cache: object) -> str:
    p1 = pad + "  "
    p2 = p1 + "  "
    items = [
        f'{{{p2}"dependents": {_names(fd.dependents, p2)},'
        f'{p2}"determinant": {_names(fd.determinant, p2)},'
        f'{p2}"label": {_quote(fd.label)}{p1}}}'
        for fd in fds
    ]
    return _array(items, pad)


def _schema(schema: Schema, pad: str, cache: dict) -> str:
    p1 = pad + "  "
    fds = _shared(cache, _fds, schema.fds, p1)
    relations = [_shared(cache, _relation, rel, p1 + "  ") for rel in schema.relations]
    return (
        f'{{{p1}"fds": {fds},{p1}"name": {_quote(schema.name)},'
        f'{p1}"relations": {_array(relations, p1)}{pad}}}'
    )


def _relation_nc(rnc: RelationNC, pad: str, cache: object) -> str:
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    part, form = rnc.partition, rnc.normal_form
    partition = (
        f'{{{p2}"completeness_attributes": {_names(sorted(part.completeness_attributes), p2)},'
        f'{p2}"counts": {{{p3}"completeness": {part.completeness_count},'
        f'{p3}"preventing": {part.preventing_count},{p3}"total": {part.total_attributes}{p2}}},'
        f'{p2}"non_preventing": {_names([fd.label for fd in part.non_preventing], p2)},'
        f'{p2}"preventing": {_names([fd.label for fd in part.preventing], p2)},'
        f'{p2}"preventing_attributes": {_names(sorted(part.preventing_attributes), p2)},'
        f'{p2}"relation": {_quote(part.relation_name)}{p1}}}'
    )
    return (
        f'{{{p1}"membership": {_rational(rnc._membership, p1)},'
        f'{p1}"name": {_quote(rnc.relation_name)},{p1}"nc": {_rational(rnc._nc, p1)},'
        f'{p1}"normal_form": {{{p2}"label": {_quote(form.label)},'
        f'{p2}"level": {form.value}{p1}}},{p1}"partition": {partition}{pad}}}'
    )


def _schema_nc(nc: SchemaNC, pad: str, cache: dict, kind: str = "") -> str:
    p1 = pad + "  "
    relations = [_shared(cache, _relation_nc, rnc, p1 + "  ") for rnc in nc.per_relation]
    return (
        f'{{{kind}{p1}"mode": {_quote(nc.mode.value)},'
        f'{p1}"relations": {_array(relations, p1)},{p1}"schema": {_quote(nc.schema.name)},'
        f'{p1}"total": {_rational(nc._total, p1)}{pad}}}'
    )


def _step(step: TransformStep, pad: str, cache: dict) -> str:
    p1 = pad + "  "
    return (
        f'{{{p1}"moved_fds": {_names(step.moved_fd_labels, p1)},'
        f'{p1}"nc_after": {_shared(cache, _schema_nc, step.nc_after, p1)},'
        f'{p1}"nc_before": {_shared(cache, _schema_nc, step.nc_before, p1)},'
        f'{p1}"new_relation": {_shared(cache, _relation, step.new_relation, p1)},'
        f'{p1}"new_relation_bcnf": {_BOOL[step.new_relation_bcnf]},'
        f'{p1}"reduced_relation": {_shared(cache, _relation, step.reduced_relation, p1)},'
        f'{p1}"schema_after": {_shared(cache, _schema, step.nc_after.schema, p1)},'
        f'{p1}"source": {_quote(step.source_name)}{pad}}}'
    )


def _write_trace(trace: TransformTrace, write: Callable[[str], object]) -> None:
    # Written step by step: only the text of records that later steps may share is kept.
    cache: dict[tuple[int, str], Any] = {}
    first, last = trace.initial_nc, trace.final_nc
    write(
        f'{{\n  "final": {_shared(cache, _schema, last.schema, _TOP)},'
        f'\n  "final_nc": {_shared(cache, _schema_nc, last, _TOP)},'
        f'\n  "initial": {_shared(cache, _schema, first.schema, _TOP)},'
        f'\n  "initial_nc": {_shared(cache, _schema_nc, first, _TOP)},'
        f'\n  "kind": "transform_trace",\n  "mode": {_quote(first.mode.value)},'
        f'\n  "schema": {_quote(first.schema.name)},\n  "steps": '
    )
    pad = _TOP + "  "
    separator = "[" + pad
    for step in trace.steps:
        write(separator + _step(step, pad, cache))
        separator = "," + pad
        # The next step's nc_before is this nc_after; nothing else reuses either text.
        cache.pop((id(step.nc_before), pad + "  "), None)
        cache.pop((id(step.nc_after.schema), pad + "  "), None)
    unpreserved = _names(trace.unpreserved_fd_labels, _TOP)
    write(f'{_TOP + "]" if trace.steps else "[]"},\n  "unpreserved_fds": {unpreserved}\n}}\n')


def _labels(fds: tuple[FunctionalDependency, ...]) -> str:
    return ", ".join(fd.label for fd in fds) or "(none)"


def _term(value: Ratio) -> str:
    return str(value[0]) if value[1] == 1 else _truncated(*value)


def _exact(value: Ratio) -> str:
    # str(Fraction(*value)): the numerator alone when the denominator is 1.
    return str(value[0]) if value[1] == 1 else f"{value[0]}/{value[1]}"


def _equation(nc: SchemaNC) -> str:
    if len(nc.per_relation) < 2:
        return nc.total_display
    terms = " + ".join(_term(r._nc) for r in nc.per_relation)
    return f"{terms} = {nc.total_display}"


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
            f"  membership x = {_truncated(*rnc._membership)} (exact {_exact(rnc._membership)})",
            f"  NC = {rnc.nc_display} (exact {_exact(rnc._nc)})",
        ]
    lines += ["", _equation(nc)]
    return lines


def _snapshot_fd_lines(fds: tuple[FunctionalDependency, ...], indent: str, _: object) -> list[str]:
    return [f"{indent}{_fd_line(fd)}" for fd in fds]


def _text_trace(trace: TransformTrace, dsl_snapshots: bool) -> list[str]:
    # Every step's schema shares one FD tuple: its snapshot lines are rendered once.
    cache: dict[tuple[int, str], Any] = {}
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
            lines += _shared(cache, _snapshot_fd_lines, step.nc_after.schema.fds, "    ")
    lines += [
        "",
        f"final NC: {_equation(trace.final_nc)}",
        f"unpreserved FDs: {', '.join(trace.unpreserved_fd_labels) or '(none)'}",
    ]
    return lines


def emit_report(
    report: SchemaNC | TransformTrace,
    format: str = "text",
    *,
    dsl_snapshots: bool = False,
) -> str:
    """Render a schema score, partitions inside, or a trace as text or stable JSON.

    ``dsl_snapshots`` adds the schema after every step, in DSL form, to the text
    rendering of a trace (the structured form always embeds schemas). Structured
    output is what ``json.dumps(tree, indent=2, sort_keys=True)`` plus a newline
    gives for the report's tree, but no tree is built: each record writes its
    own JSON text, and a record the report shares, such as a score carried over
    from step to step, is rendered once per indent. The CLI streams a structured
    trace to stdout step by step with the same renderers. Another format or
    report type is a programmer error (ValueError, TypeError).
    """
    if format not in ("text", "structured"):
        raise ValueError(f"unknown report format {format!r}")
    from .completeness import SchemaNC

    if isinstance(report, SchemaNC):
        if format == "text":
            return "\n".join(_text_schema_nc(report)) + "\n"
        return _schema_nc(report, "\n", {}, kind='\n  "kind": "schema_nc",') + "\n"
    from .transform import TransformTrace

    if not isinstance(report, TransformTrace):
        raise TypeError(f"cannot render {type(report).__name__} as a report")
    if format == "text":
        return "\n".join(_text_trace(report, dsl_snapshots)) + "\n"
    chunks: list[str] = []
    _write_trace(report, chunks.append)
    return "".join(chunks)
