"""Project-wide symbol table and call graph.

The per-module rules see one file at a time; the engine-parity family
(:mod:`repro.statics.rules_engines`) needs to know *who calls whom
across the tree*: which functions dispatch to a fast-path kernel inside
a ``try`` that falls back on ``VectorFallback``, which kernels those
dispatches reach, and whether any :mod:`repro.fuzz` pillar exercises
the pair.  This module builds that view from the same import/scope
tracking :class:`~repro.statics.context.ModuleContext` already does per
file.

Construction is two-phase so the expensive half caches:

1. :func:`extract_facts` — per file, a pure function of the source
   text: the module's import map, its top-level symbols (functions,
   classes, methods, with parameter lists), every call/reference site
   with its *unresolved* dotted origin, and any engine-dispatch
   structure (``try: ... except VectorFallback:`` blocks).  Facts
   serialize to JSON keyed by a content digest, which is what
   ``repro-fs lint --callgraph-cache`` stores between runs.
2. :class:`CallGraph` assembly — cross-file: relative imports are
   normalized against the module's package, re-exports are followed
   through ``__init__`` alias chains, and each site is resolved to a
   project symbol where possible.

Shadowing follows runtime semantics closely enough for linting: a
module-level ``def``/``class`` with the same name as an import wins, so
a local ``helper`` is not mistaken for another module's.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .context import ModuleContext

__all__ = [
    "CallGraph",
    "CallSite",
    "DispatchSite",
    "ModuleFacts",
    "SymbolInfo",
    "build_callgraph",
    "extract_facts",
    "load_or_build",
]

#: Bump when the serialized fact layout changes; stale caches rebuild.
CACHE_VERSION = 3

#: The exception a fast-path kernel raises to decline an input; a ``try``
#: that catches it is an engine dispatch (matched on the last dotted
#: segment).
_FALLBACK_EXCEPTION = "VectorFallback"

#: How many ``__init__`` re-export hops to follow before giving up.
_ALIAS_DEPTH = 6


@dataclass(frozen=True, slots=True)
class SymbolInfo:
    """One project-defined function, class, or method."""

    qname: str  # "repro.parallel.veccache.stack_curve_numpy"
    module: str
    name: str  # "stack_curve_numpy", "Cls", or "Cls.method"
    kind: str  # "function" | "class" | "method"
    path: str
    lineno: int
    #: Parameter names in order (``self``/``cls`` dropped for methods;
    #: for a class, the ``__init__`` or dataclass-field parameters).
    params: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call, or a bare function reference passed as an argument."""

    caller: str  # qname of the enclosing top-level symbol, or <module>
    callee: str  # project qname when resolved, else the dotted origin
    resolved: bool
    path: str
    lineno: int
    #: "numpy" inside a dispatch's ``try`` body, "fallback" elsewhere
    #: inside a dispatch function, "" outside dispatchers.
    branch: str = ""
    #: True for a function passed by value rather than called.
    ref: bool = False


@dataclass(frozen=True, slots=True)
class DispatchSite:
    """One ``try: <kernel> except VectorFallback: ...`` block."""

    qname: str  # the dispatch function
    module: str
    path: str
    lineno: int
    #: True when a pure-Python path exists: the handler does more than
    #: ``pass``, or statements follow the ``try`` in the same block.
    has_fallback: bool


@dataclass(slots=True)
class ModuleFacts:
    """Everything the graph needs from one file (cacheable)."""

    path: str
    digest: str
    module: str
    is_package: bool
    imports: dict[str, str]
    symbols: list[SymbolInfo] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    dispatches: list[DispatchSite] = field(default_factory=list)


def _digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def _params_of(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, *, drop_self: bool
) -> tuple[str, ...]:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    if drop_self and names and names[0] in ("self", "cls"):
        names = names[1:]
    if args.vararg is not None:
        names.append("*" + args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append("**" + args.kwarg.arg)
    return tuple(names)


def _catches_fallback(ctx: ModuleContext, handler: ast.ExceptHandler) -> bool:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for kind in kinds:
        resolved = ctx.resolve(kind) if kind is not None else None
        if resolved and resolved.rsplit(".", 1)[-1] == _FALLBACK_EXCEPTION:
            return True
    return False


def _fallback_handlers(ctx: ModuleContext, node: ast.AST) -> list[ast.ExceptHandler]:
    """The handlers of *node*, if a ``try``, that catch ``VectorFallback``."""
    if not isinstance(node, ast.Try):
        return []
    return [h for h in node.handlers if _catches_fallback(ctx, h)]


class _FactCollector:
    """Walks one module and fills a :class:`ModuleFacts`."""

    def __init__(self, ctx: ModuleContext, facts: ModuleFacts):
        self.ctx = ctx
        self.facts = facts
        self._local_symbols: set[str] = set()
        self._nodes: dict[str, ast.AST] = {}

    def collect(self) -> None:
        tree = self.ctx.tree
        for node in tree.body:
            self._add_toplevel(node)
        all_defs = {
            node
            for node in ast.walk(tree)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        }
        self._collect_calls(tree, "<module>", skip=all_defs, branch_map={})
        for sym in list(self.facts.symbols):
            if sym.kind == "class":
                continue
            node = self._nodes.get(sym.qname)
            if node is None:
                continue
            branch_map = self._branch_map(node, sym)
            self._collect_calls(node, sym.qname, skip=None, branch_map=branch_map)

    def _add_toplevel(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._add_function(node, owner=None)
        elif isinstance(node, ast.ClassDef):
            self._add_class(node)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional defs (version gates, optional-dep fallbacks):
            # record every branch's definitions; later ones win.
            for seq in ("body", "orelse", "finalbody"):
                for sub in getattr(node, seq, ()):
                    self._add_toplevel(sub)

    # -- symbols -----------------------------------------------------------

    def _add_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, owner: str | None
    ) -> None:
        name = node.name if owner is None else f"{owner}.{node.name}"
        qname = f"{self.facts.module}.{name}"
        self.facts.symbols.append(
            SymbolInfo(
                qname=qname,
                module=self.facts.module,
                name=name,
                kind="function" if owner is None else "method",
                path=self.facts.path,
                lineno=node.lineno,
                params=_params_of(node, drop_self=owner is not None),
            )
        )
        self._local_symbols.add(name.split(".", 1)[0])
        self._nodes[qname] = node

    def _add_class(self, node: ast.ClassDef) -> None:
        init_params: tuple[str, ...] = ()
        methods: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt)
                if stmt.name == "__init__":
                    init_params = _params_of(stmt, drop_self=True)
        if not init_params:
            # Dataclasses: annotated class-body fields are the signature.
            init_params = tuple(
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            )
        self.facts.symbols.append(
            SymbolInfo(
                qname=f"{self.facts.module}.{node.name}",
                module=self.facts.module,
                name=node.name,
                kind="class",
                path=self.facts.path,
                lineno=node.lineno,
                params=init_params,
            )
        )
        self._local_symbols.add(node.name)
        for method in methods:
            self._add_function(method, owner=node.name)

    # -- dispatch structure ------------------------------------------------

    def _branch_map(self, fn: ast.AST, sym: SymbolInfo) -> dict[int, str]:
        """``id(node) -> branch tag`` for nodes inside a dispatch function."""
        gates = [
            node for node in ast.walk(fn) if _fallback_handlers(self.ctx, node)
        ]
        if not gates:
            return {}
        numpy_nodes: set[int] = set()
        for gate in gates:
            for stmt in gate.body:
                for sub in ast.walk(stmt):
                    numpy_nodes.add(id(sub))
        branch_map = {
            id(node): ("numpy" if id(node) in numpy_nodes else "fallback")
            for node in ast.walk(fn)
        }
        gate = gates[0]
        has_fallback = any(
            not isinstance(stmt, ast.Pass)
            for handler in _fallback_handlers(self.ctx, gate)
            for stmt in handler.body
        )
        if not has_fallback:
            parent = self.ctx.parent(gate)
            for attr in ("body", "orelse", "finalbody"):
                seq = getattr(parent, attr, None)
                if isinstance(seq, list) and gate in seq:
                    has_fallback = seq.index(gate) < len(seq) - 1
                    break
        self.facts.dispatches.append(
            DispatchSite(
                qname=sym.qname,
                module=self.facts.module,
                path=self.facts.path,
                lineno=gate.lineno,
                has_fallback=has_fallback,
            )
        )
        return branch_map

    # -- call sites --------------------------------------------------------

    def _collect_calls(
        self,
        root: ast.AST,
        caller: str,
        skip: set[ast.AST] | None,
        branch_map: dict[int, str],
    ) -> None:
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            if skip is not None and node in skip:
                continue
            if isinstance(node, ast.Call):
                self._record(node.func, caller, node.lineno, branch_map, ref=False)
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    # A bare function passed by value (``map_segments(
                    # job, path)``) is a reference edge: the callee runs
                    # it, so coverage flows through it too.
                    if isinstance(arg, (ast.Name, ast.Attribute)):
                        self._record(arg, caller, node.lineno, branch_map, ref=True)
            stack.extend(ast.iter_child_nodes(node))

    def _record(
        self,
        func: ast.expr,
        caller: str,
        lineno: int,
        branch_map: dict[int, str],
        *,
        ref: bool,
    ) -> None:
        if isinstance(func, ast.Name) and func.id in self._local_symbols:
            # A module-level def shadows any same-named import.
            dotted = func.id
        else:
            resolved = self.ctx.resolve(func)
            if resolved is None:
                return
            if "." not in resolved and resolved not in self._local_symbols:
                return  # builtins and plain locals carry no edge
            dotted = resolved
        self.facts.calls.append(
            CallSite(
                caller=caller,
                callee=dotted,
                resolved=False,  # assembly decides
                path=self.facts.path,
                lineno=lineno,
                branch=branch_map.get(id(func), ""),
                ref=ref,
            )
        )


def extract_facts(path: Path, source: str | None = None) -> ModuleFacts:
    """Per-file facts (symbols, raw call sites, dispatch gates)."""
    if source is None:
        source = path.read_text(encoding="utf-8")
    ctx = ModuleContext(path, source, display_path=str(path))
    facts = ModuleFacts(
        path=str(path),
        digest=_digest(source),
        module=ctx.module,
        is_package=path.name == "__init__.py",
        imports=dict(ctx.imports),
    )
    _FactCollector(ctx, facts).collect()
    return facts


def _normalize(module: str, is_package: bool, dotted: str) -> str:
    """Resolve a leading-dots relative origin against *module*.

    The context records ``from .stack import X`` as ``.stack.X`` but
    ``from . import stack`` as ``..stack`` (the join adds a dot when no
    module path follows), so a single trailing segment means the dots
    overcount the level by one.
    """
    if not dotted.startswith("."):
        return dotted
    n = len(dotted) - len(dotted.lstrip("."))
    rest = dotted[n:]
    level = n if "." in rest else n - 1
    level = max(level, 1)
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    base = ".".join(p for p in parts if p)
    if base and rest:
        return f"{base}.{rest}"
    return base or rest


class CallGraph:
    """The assembled cross-module view."""

    def __init__(self, facts: Iterable[ModuleFacts]):
        self.facts: list[ModuleFacts] = sorted(facts, key=lambda f: f.path)
        self.symbols: dict[str, SymbolInfo] = {}
        self.modules: dict[str, ModuleFacts] = {}
        self.calls: list[CallSite] = []
        self.dispatches: list[DispatchSite] = []
        self._callers: dict[str, list[CallSite]] = {}
        self._callees: dict[str, list[CallSite]] = {}
        for f in self.facts:
            self.modules[f.module] = f
            for sym in f.symbols:
                self.symbols[sym.qname] = sym
            self.dispatches.extend(f.dispatches)
        self.dispatches.sort(key=lambda d: (d.path, d.lineno))
        for f in self.facts:
            for site in f.calls:
                target = self._resolve_site(f, site.callee)
                caller = (
                    f"{f.module}.<module>"
                    if site.caller == "<module>"
                    else site.caller
                )
                out = CallSite(
                    caller=caller,
                    callee=target if target is not None else site.callee,
                    resolved=target is not None,
                    path=site.path,
                    lineno=site.lineno,
                    branch=site.branch,
                    ref=site.ref,
                )
                self.calls.append(out)
                if out.resolved:
                    self._callers.setdefault(out.callee, []).append(out)
                self._callees.setdefault(out.caller, []).append(out)

    # -- resolution --------------------------------------------------------

    def _resolve_site(
        self, facts: ModuleFacts, dotted: str, depth: int = 0
    ) -> str | None:
        if depth > _ALIAS_DEPTH:
            return None
        dotted = _normalize(facts.module, facts.is_package, dotted)
        if "." not in dotted:
            qname = f"{facts.module}.{dotted}"
            return qname if qname in self.symbols else None
        if dotted in self.symbols:
            return dotted
        # Longest module prefix + remainder (symbol, or alias to follow
        # through an ``__init__`` re-export).
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            owner = self.modules.get(mod)
            if owner is None:
                continue
            rest = ".".join(parts[cut:])
            if f"{mod}.{rest}" in self.symbols:
                return f"{mod}.{rest}"
            alias = owner.imports.get(parts[cut])
            if alias is not None:
                tail = ".".join(parts[cut + 1 :])
                chained = alias + ("." + tail if tail else "")
                return self._resolve_site(owner, chained, depth + 1)
            return None
        return None

    # -- queries -----------------------------------------------------------

    def callers_of(self, qname: str) -> list[CallSite]:
        return self._callers.get(qname, [])

    def callees_of(self, caller: str) -> list[CallSite]:
        return self._callees.get(caller, [])

    def symbol(self, qname: str) -> SymbolInfo | None:
        return self.symbols.get(qname)

    def reachable_from(self, seeds: Iterable[str]) -> set[str]:
        """Transitive closure over resolved call/ref edges (cycle-safe)."""
        seen: set[str] = set()
        stack = list(seeds)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for site in self._callees.get(current, []):
                if site.resolved and site.callee not in seen:
                    stack.append(site.callee)
        return seen

    def calling_modules(self, qname: str) -> set[str]:
        """Modules containing a call or reference to *qname*."""
        out: set[str] = set()
        for site in self._callers.get(qname, []):
            owner = site.caller
            if owner.endswith(".<module>"):
                owner = owner[: -len(".<module>")]
            else:
                owner = owner.rsplit(".", 1)[0]
                sym = self.symbols.get(site.caller)
                if sym is not None:
                    owner = sym.module
            out.add(owner)
        return out

    def iter_dispatches(self) -> Iterator[DispatchSite]:
        return iter(self.dispatches)


def build_callgraph(paths: Iterable[Path]) -> CallGraph:
    """Extract facts from every parseable file and assemble the graph."""
    facts = []
    for path in sorted(set(Path(p) for p in paths)):
        try:
            facts.append(extract_facts(path))
        except (OSError, SyntaxError, UnicodeDecodeError, ValueError):
            continue  # the engine reports unreadable files separately
    return CallGraph(facts)


# -- JSON cache ---------------------------------------------------------------


def _as_dict(obj) -> dict:
    out = {}
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def _facts_to_json(facts: ModuleFacts) -> dict:
    return {
        "path": facts.path,
        "digest": facts.digest,
        "module": facts.module,
        "is_package": facts.is_package,
        "imports": facts.imports,
        "symbols": [_as_dict(s) for s in facts.symbols],
        "calls": [_as_dict(c) for c in facts.calls],
        "dispatches": [_as_dict(d) for d in facts.dispatches],
    }


def _facts_from_json(data: dict) -> ModuleFacts:
    return ModuleFacts(
        path=data["path"],
        digest=data["digest"],
        module=data["module"],
        is_package=data["is_package"],
        imports=dict(data["imports"]),
        symbols=[
            SymbolInfo(**{**s, "params": tuple(s["params"])})
            for s in data["symbols"]
        ],
        calls=[CallSite(**c) for c in data["calls"]],
        dispatches=[DispatchSite(**d) for d in data["dispatches"]],
    )


def load_or_build(
    paths: Iterable[Path], cache: str | Path | None = None
) -> CallGraph:
    """Build the graph, reusing per-file facts from *cache* where the
    content digest matches; the cache is rewritten with fresh facts."""
    paths = sorted(set(Path(p) for p in paths))
    cached: dict[str, dict] = {}
    if cache is not None:
        try:
            with open(cache, encoding="utf-8") as fh:
                data = json.load(fh)
            if data.get("version") == CACHE_VERSION:
                cached = {
                    entry["path"]: entry for entry in data.get("files", [])
                }
        except (OSError, ValueError, KeyError, TypeError):
            cached = {}
    facts: list[ModuleFacts] = []
    for path in paths:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        entry = cached.get(str(path))
        if entry is not None and entry.get("digest") == _digest(source):
            try:
                facts.append(_facts_from_json(entry))
                continue
            except (KeyError, TypeError):
                pass
        try:
            facts.append(extract_facts(path, source))
        except (SyntaxError, ValueError):
            continue
    if cache is not None:
        payload = {
            "version": CACHE_VERSION,
            "files": [_facts_to_json(f) for f in facts],
        }
        try:
            cache_path = Path(cache)
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            with open(cache_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, separators=(",", ":"), sort_keys=True)
        except OSError:
            pass  # a cache that cannot be written is just not a cache
    return CallGraph(facts)
