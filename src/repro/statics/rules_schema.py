"""Schema drift detection (cross-artifact).

Two rules guard two schemas:

``REP-S001`` — the trace event schema, which lives in two places that
must agree field-for-field;

``REP-S002`` — the corpus on-disk layout (``corpus/format.py``), whose
version-stamped digest must be recomputed and re-registered on any
layout change.

The trace schema lives in two places that must agree field-for-field:

* ``trace/records.py`` — the event dataclasses (the schema of record);
* ``trace/columns.py`` — the columnar view: ``TraceColumns.from_log``
  must *read* every field, ``TraceColumns.event`` must *construct* with
  every field.

The columnar view is the codec of record: the corpus stores its exact
buffers, and ``REP-S002`` pins that layout.  A field added to a record
but forgotten in the columns silently serializes to its default; a
field removed from a record leaves the columns reading a ghost
attribute.  ``REP-S001`` turns the agreement into a CI property: it
parses both artifacts and reports any field present in one but missing
from the other, in either direction.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .findings import Finding, Severity
from .registry import cross_rule

__all__ = ["check_corpus_schema", "check_trace_schema", "TRACE_ARTIFACTS"]

#: File names that make up one trace-schema artifact set (both must sit
#: in the same directory to be checked as a unit).
TRACE_ARTIFACTS = ("records.py", "columns.py")


@dataclass(slots=True)
class _ClassUsage:
    """How one artifact consumes one event class."""

    reads: set[str] = field(default_factory=set)
    constructed: set[str] = field(default_factory=set)
    read_lines: dict[str, int] = field(default_factory=dict)
    seen_in_branches: bool = False
    seen_in_constructors: bool = False
    branch_line: int = 1
    constructor_line: int = 1


def _event_classes(tree: ast.Module) -> dict[str, tuple[list[str], int]]:
    """Event dataclasses: name -> (ordered field names, def line).

    An event class is any class whose body assigns a ``kind`` tag —
    the discriminator every codec branches on.
    """
    classes: dict[str, tuple[list[str], int]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        has_kind = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "kind"
                for t in stmt.targets
            )
            for stmt in node.body
        )
        if not has_kind:
            continue
        fields = [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ]
        classes[node.name] = (fields, node.lineno)
    return classes


def _isinstance_test(node: ast.expr, class_names: set[str]):
    """``isinstance(var, Cls)`` -> (var name, class name), else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and isinstance(node.args[0], ast.Name)
    ):
        cls = node.args[1]
        if isinstance(cls, ast.Name) and cls.id in class_names:
            return node.args[0].id, cls.id
    return None


def _collect_usage(
    tree: ast.Module, class_names: set[str]
) -> dict[str, _ClassUsage]:
    """Per-class attribute reads and constructor fields in one artifact."""
    usage = {name: _ClassUsage() for name in class_names}

    # Constructor calls anywhere in the module.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name) and func.id in class_names:
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr in class_names:
            name = func.attr
        if name is None:
            continue
        info = usage[name]
        info.seen_in_constructors = True
        info.constructor_line = node.lineno
        for kw in node.keywords:
            if kw.arg is not None:
                info.constructed.add(kw.arg)
        # Positional args map onto the record's field order; the caller
        # resolves indices against the records schema.
        info.constructed.update(
            f"__pos{i}__" for i in range(len(node.args))
        )

    # isinstance-branch attribute reads, per function.
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        branches: list[tuple[str, str, ast.If]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.If):
                test = _isinstance_test(node.test, class_names)
                if test is not None:
                    branches.append((test[0], test[1], node))
        if not branches:
            continue
        var_names = {var for var, _, _ in branches}
        in_branch: set[ast.AST] = set()
        for var, cls, if_node in branches:
            info = usage[cls]
            info.seen_in_branches = True
            info.branch_line = if_node.lineno
            for stmt in if_node.body:
                for sub in ast.walk(stmt):
                    in_branch.add(sub)
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == var
                    ):
                        info.reads.add(sub.attr)
                        info.read_lines.setdefault(sub.attr, sub.lineno)
        # Reads outside every branch (e.g. `times[i] = event.time` before
        # the dispatch) apply to all classes tested in this function.
        tested = {cls for _, cls, _ in branches}
        for sub in ast.walk(fn):
            if sub in in_branch:
                continue
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in var_names
            ):
                for cls in tested:
                    usage[cls].reads.add(sub.attr)
                    usage[cls].read_lines.setdefault(sub.attr, sub.lineno)
    return usage


def _resolve_positionals(
    constructed: set[str], fields: list[str]
) -> set[str]:
    resolved = set()
    for item in constructed:
        if item.startswith("__pos") and item.endswith("__"):
            index = int(item[5:-2])
            if index < len(fields):
                resolved.add(fields[index])
        else:
            resolved.add(item)
    return resolved


def check_trace_schema(records_path: Path, columns_path: Path) -> Iterator[Finding]:
    """Cross-check the two schema artifacts; yield drift findings."""

    def _parse(path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    records_tree = _parse(records_path)
    classes = _event_classes(records_tree)
    if not classes:
        yield Finding(
            rule_id="REP-S001",
            path=str(records_path),
            line=1,
            col=1,
            severity=Severity.ERROR,
            message="no event classes (classes with a `kind` tag) found in "
            "the records artifact",
        )
        return
    class_names = set(classes)

    reader_name, builder_name = "TraceColumns.from_log", "TraceColumns.event"
    usage = _collect_usage(_parse(columns_path), class_names)
    for cls, (fields, _line) in classes.items():
        info = usage[cls]
        if not info.seen_in_branches:
            yield Finding(
                rule_id="REP-S001",
                path=str(columns_path),
                line=1,
                col=1,
                severity=Severity.ERROR,
                message=f"event class `{cls}` is never dispatched on "
                f"(no isinstance branch) in this artifact; "
                f"`{reader_name}` cannot encode it",
            )
        if not info.seen_in_constructors:
            yield Finding(
                rule_id="REP-S001",
                path=str(columns_path),
                line=1,
                col=1,
                severity=Severity.ERROR,
                message=f"event class `{cls}` is never constructed in "
                f"this artifact; `{builder_name}` cannot decode it",
            )
        field_set = set(fields)
        constructed = _resolve_positionals(info.constructed, fields)
        if info.seen_in_branches:
            for missing in sorted(field_set - info.reads):
                yield Finding(
                    rule_id="REP-S001",
                    path=str(columns_path),
                    line=info.branch_line,
                    col=1,
                    severity=Severity.ERROR,
                    message=f"field `{missing}` of `{cls}` is never "
                    f"read by `{reader_name}`; the codec would "
                    "silently drop it",
                )
            for unknown in sorted(info.reads - field_set):
                yield Finding(
                    rule_id="REP-S001",
                    path=str(columns_path),
                    line=info.read_lines.get(unknown, info.branch_line),
                    col=1,
                    severity=Severity.ERROR,
                    message=f"`{reader_name}` reads `{cls}.{unknown}`, "
                    "which is not a field of the record; the schema "
                    "has drifted",
                )
        if info.seen_in_constructors:
            for missing in sorted(field_set - constructed):
                yield Finding(
                    rule_id="REP-S001",
                    path=str(columns_path),
                    line=info.constructor_line,
                    col=1,
                    severity=Severity.ERROR,
                    message=f"field `{missing}` of `{cls}` is never "
                    f"passed by `{builder_name}`; decoded events "
                    "would silently take the default",
                )
            for unknown in sorted(constructed - field_set):
                yield Finding(
                    rule_id="REP-S001",
                    path=str(columns_path),
                    line=info.constructor_line,
                    col=1,
                    severity=Severity.ERROR,
                    message=f"`{builder_name}` passes `{unknown}` to "
                    f"`{cls}`, which is not a field of the record; "
                    "the schema has drifted",
                )


@cross_rule("REP-S001", "trace-schema drift between records and columns")
def check_schema_drift(paths: Iterable[Path]) -> Iterator[Finding]:
    by_dir: dict[Path, dict[str, Path]] = {}
    for path in paths:
        if path.name in TRACE_ARTIFACTS:
            by_dir.setdefault(path.parent, {})[path.name] = path
    for directory, found in sorted(by_dir.items()):
        if len(found) == len(TRACE_ARTIFACTS):
            yield from check_trace_schema(found["records.py"], found["columns.py"])


# -- REP-S002: corpus on-disk schema vs its registered digest ------------------

#: Constants of ``corpus/format.py`` that define the on-disk layout, in
#: the exact key order ``schema_digest()`` feeds them into the canonical
#: repr.  (name in format.py, key in the canonical dict)
_CORPUS_DIGEST_INPUTS = (
    ("FORMAT_VERSION", "version"),
    ("MAGIC", "magic"),
    ("FOOTER_MAGIC", "footer_magic"),
    ("END_MAGIC", "end_magic"),
    ("COLUMN_LAYOUT", "column_layout"),
    ("SEGMENT_STAT_FIELDS", "stat_fields"),
    ("SEGMENT_STAT_STRUCT", "stat_struct"),
    ("FLAG_HIST_BINS", "flag_hist_bins"),
    ("BYTES_PER_EVENT", "bytes_per_event"),
)


def _module_constants(tree: ast.Module) -> tuple[dict[str, object], dict[str, int]]:
    """Literal module-level assignments: name -> value, name -> line.

    Resolves one level of name indirection (``SCHEMA_DIGESTS = {1:
    _SCHEMA_DIGEST_V1}``) against earlier literal assignments, which is
    how format.py keeps the registered digest greppable.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}

    def _eval(node: ast.expr):
        if isinstance(node, ast.Name) and node.id in values:
            return values[node.id]
        if isinstance(node, ast.Dict):
            return {
                _eval(k): _eval(v)
                for k, v in zip(node.keys, node.values)
                if k is not None
            }
        if isinstance(node, (ast.Tuple, ast.List)):
            items = tuple(_eval(item) for item in node.elts)
            return items if isinstance(node, ast.Tuple) else list(items)
        return ast.literal_eval(node)

    for stmt in tree.body:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            continue
        name = stmt.targets[0].id
        try:
            values[name] = _eval(stmt.value)
        except (ValueError, KeyError, TypeError, SyntaxError):
            continue
        lines[name] = stmt.lineno
    return values, lines


def check_corpus_schema(format_path: Path) -> Iterator[Finding]:
    """Recompute the corpus schema digest from source literals.

    Mirrors :func:`repro.corpus.format.schema_digest` without importing
    the package: the canonical string is the repr of a dict built from
    the layout-defining literals, digested with sha256 and truncated to
    12 hex chars.  A layout edit that does not bump ``FORMAT_VERSION``
    and register the new digest in ``SCHEMA_DIGESTS`` is drift.
    """
    tree = ast.parse(
        format_path.read_text(encoding="utf-8"), filename=str(format_path)
    )
    values, lines = _module_constants(tree)

    missing = [name for name, _key in _CORPUS_DIGEST_INPUTS if name not in values]
    if "SCHEMA_DIGESTS" not in values:
        missing.append("SCHEMA_DIGESTS")
    if missing:
        yield Finding(
            rule_id="REP-S002",
            path=str(format_path),
            line=1,
            col=1,
            severity=Severity.ERROR,
            message="cannot recompute the corpus schema digest: no literal "
            f"module-level assignment for {', '.join(sorted(missing))}",
        )
        return

    version = values["FORMAT_VERSION"]
    canonical = repr({key: values[name] for name, key in _CORPUS_DIGEST_INPUTS})
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    registry = values["SCHEMA_DIGESTS"]

    registered = registry.get(version) if isinstance(registry, dict) else None
    if registered is None:
        yield Finding(
            rule_id="REP-S002",
            path=str(format_path),
            line=lines.get("SCHEMA_DIGESTS", 1),
            col=1,
            severity=Severity.ERROR,
            message=f"SCHEMA_DIGESTS has no entry for FORMAT_VERSION "
            f"{version!r}; register its digest {digest!r}",
        )
    elif registered != digest:
        yield Finding(
            rule_id="REP-S002",
            path=str(format_path),
            line=lines.get("SCHEMA_DIGESTS", 1),
            col=1,
            severity=Severity.ERROR,
            message=f"corpus on-disk schema drifted: recomputed digest "
            f"{digest!r} != registered {registered!r} for version "
            f"{version!r}; bump FORMAT_VERSION and register the new digest",
        )

    if isinstance(version, int) and 0 <= version <= 255:
        for name in ("MAGIC", "FOOTER_MAGIC", "END_MAGIC"):
            magic = values[name]
            if not (isinstance(magic, bytes) and len(magic) == 8):
                yield Finding(
                    rule_id="REP-S002",
                    path=str(format_path),
                    line=lines.get(name, 1),
                    col=1,
                    severity=Severity.ERROR,
                    message=f"{name} must be exactly 8 bytes "
                    f"(7-byte tag + version byte), got {magic!r}",
                )
            elif magic[-1] != version:
                yield Finding(
                    rule_id="REP-S002",
                    path=str(format_path),
                    line=lines.get(name, 1),
                    col=1,
                    severity=Severity.ERROR,
                    message=f"{name} ends with version byte {magic[-1]} but "
                    f"FORMAT_VERSION is {version}; the magics must carry "
                    "the current version",
                )


@cross_rule("REP-S002", "corpus schema drift without a format-version bump")
def check_corpus_schema_drift(paths: Iterable[Path]) -> Iterator[Finding]:
    for path in sorted(set(paths)):
        if path.name == "format.py" and path.parent.name == "corpus":
            yield from check_corpus_schema(path)
