"""Per-module analysis context shared by every rule.

One :class:`ModuleContext` is built per linted file.  It carries the
parsed AST plus the cross-cutting facts most rules need:

* an **import map** (local alias -> dotted origin) so a rule can ask
  "what does this call resolve to?" and get ``random.random`` whether
  the source said ``random.random()``, ``rnd.random()`` or
  ``from random import random``;
* a **parent map** so rules can look outward from a node (is this
  comprehension the argument of ``sorted``?);
* **suppression comments** (``# repro: allow[RULE-ID] -- why``) parsed
  from the token stream;
* simple **set-typed local inference** per scope, for the unordered-
  iteration rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Suppression", "ModuleContext", "module_name_for"]


_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s-]+)\]\s*(?:[-—:]*\s*(.*))?$"
)

#: Scope-introducing AST nodes (comprehensions get their own scope at
#: runtime but share the enclosing function's names for our purposes).
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)


@dataclass(frozen=True, slots=True)
class Suppression:
    """One allow comment: which rules it covers, and why."""

    line: int
    rule_ids: frozenset[str]
    justification: str


def module_name_for(path: Path) -> str:
    """Dotted module name for *path*, anchored at the ``repro`` package.

    Files outside the package (tests, benchmarks, fixtures) get their
    bare stem, which keeps them out of every package-scoped rule.
    """
    parts = list(path.resolve().parts)
    name = path.stem
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        dotted = [p for p in parts[idx:]]
        dotted[-1] = path.stem
        if dotted[-1] == "__init__":
            dotted = dotted[:-1]
        return ".".join(dotted)
    return name


def _comment_suppressions(source: str) -> dict[int, Suppression]:
    """Parse ``# repro: allow[...]`` comments, keyed by line number."""
    out: dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if not match:
                continue
            ids = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            justification = (match.group(2) or "").strip()
            out[tok.start[0]] = Suppression(tok.start[0], ids, justification)
    except tokenize.TokenError:
        pass
    return out


class ModuleContext:
    """Everything a per-module rule needs to know about one file."""

    def __init__(self, path: Path, source: str, display_path: str | None = None):
        self.path = path
        self.display_path = display_path if display_path is not None else str(path)
        self.source = source
        self.lines = source.splitlines()
        self.module = module_name_for(path)
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions = _comment_suppressions(source)
        self.used_suppressions: set[int] = set()
        self._parents: dict[ast.AST, ast.AST] = {}
        self.imports: dict[str, str] = {}
        self._set_names: dict[ast.AST, set[str]] = {}
        self._module_level_names: set[str] = set()
        self._index()

    # -- indexing ---------------------------------------------------------

    def _index(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.asname and alias.name or alias.name.split(".")[0]
                    # `import a.b as c` binds c -> a.b; `import a.b` binds a.
                    self.imports[local] = origin
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    # Relative imports resolve inside this repo; record
                    # them with a leading dot so rules can still match
                    # suffixes like ".parallel.executor.run_jobs".
                    base = "." * node.level + (node.module or "")
                else:
                    base = node.module
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}"
        for stmt in self.tree.body:
            for name in _assigned_names(stmt):
                self._module_level_names.add(name)
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self._module_level_names.add(stmt.name)
        self._infer_set_names()

    def _infer_set_names(self) -> None:
        """Names assigned/annotated set-valued, grouped per scope."""
        for scope in ast.walk(self.tree):
            if not isinstance(scope, _SCOPE_NODES):
                continue
            names: set[str] = set()
            for node in self._scope_body_walk(scope):
                if isinstance(node, ast.Assign) and self._is_set_expr(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if (node.value is not None and self._is_set_expr(node.value)) or (
                        _annotation_is_set(node.annotation)
                    ):
                        names.add(node.target.id)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in [
                    *scope.args.posonlyargs,
                    *scope.args.args,
                    *scope.args.kwonlyargs,
                ]:
                    if arg.annotation is not None and _annotation_is_set(
                        arg.annotation
                    ):
                        names.add(arg.arg)
            self._set_names[scope] = names

    def _scope_body_walk(self, scope: ast.AST):
        """Walk *scope* without descending into nested function scopes."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            resolved = self.resolve(node.func)
            return resolved in ("set", "frozenset")
        if isinstance(node, ast.Assign):  # pragma: no cover - defensive
            return False
        return False

    # -- queries ----------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        current = self._parents.get(node)
        while current is not None and not isinstance(current, _SCOPE_NODES):
            current = self._parents.get(current)
        return current if current is not None else self.tree

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        scope = self.enclosing_scope(node)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return scope
        return None

    def set_typed_names(self, node: ast.AST) -> set[str]:
        """Set-typed local names visible at *node* (its enclosing scope)."""
        return self._set_names.get(self.enclosing_scope(node), set())

    def is_module_level_name(self, name: str) -> bool:
        return name in self._module_level_names

    def resolve(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a dotted origin.

        ``rnd.random`` with ``import random as rnd`` resolves to
        ``random.random``; ``self.rng.random`` resolves to ``None``
        (rooted at a runtime value, not an import).  Bare names that are
        not imports resolve to themselves (builtins, locals).
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = current.id
        origin = self.imports.get(root)
        if origin is None:
            if parts:
                return None  # attribute chain rooted at a runtime value
            return root
        parts.append(origin)
        return ".".join(reversed(parts))

    # -- suppression ------------------------------------------------------

    def suppression_for(self, rule_id: str, line: int) -> Suppression | None:
        """The allow comment covering *rule_id* at *line*, if any.

        Same-line comments count, as does an allow on the immediately
        preceding line when that line holds only the comment.
        """
        for candidate in (line, line - 1):
            supp = self.suppressions.get(candidate)
            if supp is None:
                continue
            if candidate == line - 1:
                text = self.lines[candidate - 1].strip() if (
                    0 < candidate <= len(self.lines)
                ) else ""
                if not text.startswith("#"):
                    continue
            if rule_id in supp.rule_ids:
                self.used_suppressions.add(candidate)
                return supp
        return None


def _assigned_names(stmt: ast.stmt) -> list[str]:
    names: list[str] = []
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(
                el.id for el in target.elts if isinstance(el, ast.Name)
            )
    return names


def _annotation_is_set(annotation: ast.expr) -> bool:
    """True for ``set``/``frozenset`` annotations, bare or subscripted."""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet")
    return False
