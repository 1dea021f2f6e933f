"""Tests for the flow-aware half of repro.statics.

Covers the call-graph core (resolution, shadowing, cycles, caching),
the dataflow interpreter (assignments, branches, loops, comprehensions),
the taint-lattice rule families (REP-D004/D005 RNG provenance, REP-U001
unit mixing), the cross-module engine-parity rules (REP-E001/E002) with
fixture trees that break each leg of the contract, stale-suppression
detection (REP-A001), and the new CLI surface (``--changed``,
``--update-baseline``, ``--format sarif``, ``--callgraph-cache``).

Fixture files live under a ``repro/<pkg>/`` directory inside tmp_path so
:func:`module_name_for` maps them into the scoped packages the rules
guard, exactly as in ``test_statics.py``.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.statics import (
    TaintPolicy,
    analyze_flow,
    build_callgraph,
    check_engine_parity,
    check_fuzz_coverage,
    collect_files,
    extract_facts,
    lint_paths,
    load_or_build,
    render_sarif,
)
from repro.statics.context import ModuleContext
from repro.statics.dataflow import iter_scopes
from repro.statics.rules_engines import shared_graph

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def _write(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def _lint_source(tmp_path: Path, relpath: str, source: str):
    return lint_paths([_write(tmp_path, relpath, source)])


def _rule_ids(report) -> list[str]:
    return [f.rule_id for f in report.findings]


# -- call graph: symbols and edges ------------------------------------------


def test_callgraph_symbols_and_edges(tmp_path):
    _write(tmp_path, "repro/a.py", "def f():\n    return 1\n")
    _write(
        tmp_path,
        "repro/b.py",
        "from repro.a import f\n\ndef g():\n    return f()\n",
    )
    graph = build_callgraph(collect_files([tmp_path]))
    assert graph.symbol("repro.a.f").kind == "function"
    assert graph.symbol("repro.b.g").params == ()
    callers = graph.callers_of("repro.a.f")
    assert [c.caller for c in callers] == ["repro.b.g"]
    assert all(c.resolved for c in callers)


def test_callgraph_relative_import_resolution(tmp_path):
    _write(tmp_path, "repro/pkg/__init__.py", "")
    _write(tmp_path, "repro/pkg/impl.py", "def helper():\n    return 1\n")
    _write(
        tmp_path,
        "repro/pkg/caller.py",
        "from .impl import helper\n\ndef use():\n    return helper()\n",
    )
    graph = build_callgraph(collect_files([tmp_path]))
    callers = graph.callers_of("repro.pkg.impl.helper")
    assert [c.caller for c in callers] == ["repro.pkg.caller.use"]


def test_callgraph_reexport_following(tmp_path):
    _write(tmp_path, "repro/pkg/__init__.py", "from .impl import helper\n")
    _write(tmp_path, "repro/pkg/impl.py", "def helper():\n    return 1\n")
    _write(
        tmp_path,
        "repro/use.py",
        "from repro.pkg import helper\n\ndef go():\n    return helper()\n",
    )
    graph = build_callgraph(collect_files([tmp_path]))
    callers = graph.callers_of("repro.pkg.impl.helper")
    assert [c.caller for c in callers] == ["repro.use.go"]


def test_callgraph_cycles_terminate(tmp_path):
    _write(
        tmp_path,
        "repro/c1.py",
        "from repro.c2 import g\n\ndef f():\n    return g()\n",
    )
    _write(
        tmp_path,
        "repro/c2.py",
        "from repro.c1 import f\n\ndef g():\n    return f()\n",
    )
    graph = build_callgraph(collect_files([tmp_path]))
    reached = graph.reachable_from(["repro.c1.f"])
    assert {"repro.c1.f", "repro.c2.g"} <= reached


def test_callgraph_local_def_shadows_import(tmp_path):
    _write(tmp_path, "repro/a.py", "def f():\n    return 1\n")
    _write(
        tmp_path,
        "repro/s.py",
        "from repro.a import f\n\n"
        "def f():\n    return 0\n\n"
        "def g():\n    return f()\n",
    )
    graph = build_callgraph(collect_files([tmp_path]))
    assert [c.caller for c in graph.callers_of("repro.s.f")] == ["repro.s.g"]
    assert graph.callers_of("repro.a.f") == []


def test_callgraph_conditional_defs_recorded(tmp_path):
    _write(
        tmp_path,
        "repro/cond.py",
        "try:\n"
        "    def fast():\n        return 1\n"
        "except ImportError:\n"
        "    def fast():\n        return 2\n",
    )
    graph = build_callgraph(collect_files([tmp_path]))
    assert graph.symbol("repro.cond.fast") is not None


def test_callgraph_dispatch_detection(tmp_path):
    path = _write(
        tmp_path,
        "repro/vec/mod.py",
        "from repro.analysis.vectorized import VectorFallback\n\n\n"
        "def work(cols):\n"
        "    try:\n"
        "        return fast_numpy(cols)\n"
        "    except VectorFallback:\n"
        "        pass\n"
        "    return slow(cols)\n\n\n"
        "def fast_numpy(cols):\n    return 1\n\n\n"
        "def slow(cols):\n    return 2\n",
    )
    facts = extract_facts(path)
    (dispatch,) = facts.dispatches
    assert dispatch.qname == "repro.vec.mod.work"
    assert dispatch.has_fallback
    branches = {
        c.callee: c.branch for c in facts.calls if c.caller == dispatch.qname
    }
    assert branches["fast_numpy"] == "numpy"
    assert branches["slow"] == "fallback"


def test_callgraph_dispatch_fallback_in_handler(tmp_path):
    path = _write(
        tmp_path,
        "repro/vec/mod.py",
        "from repro.analysis import vectorized\n\n\n"
        "def work(cols):\n"
        "    try:\n"
        "        return fast_numpy(cols)\n"
        "    except (ValueError, vectorized.VectorFallback):\n"
        "        return slow(cols)\n\n\n"
        "def fast_numpy(cols):\n    return 1\n\n\n"
        "def slow(cols):\n    return 2\n\n\n"
        "def other(cols):\n"
        "    try:\n"
        "        return fast_numpy(cols)\n"
        "    except ValueError:\n"
        "        return slow(cols)\n",
    )
    facts = extract_facts(path)
    (dispatch,) = facts.dispatches  # `other` catches no VectorFallback
    assert dispatch.qname == "repro.vec.mod.work"
    assert dispatch.has_fallback


def test_callgraph_cache_roundtrip_and_invalidation(tmp_path):
    src = _write(tmp_path, "repro/cached.py", "def f():\n    return 1\n")
    cache = tmp_path / "graph-cache.json"
    load_or_build([src], cache=cache)
    data = json.loads(cache.read_text(encoding="utf-8"))
    assert data["version"] == 3
    # Prove the cache is consulted: inject a symbol under the still-valid
    # digest and observe it surface in the rebuilt graph...
    entry = data["files"][0]
    entry["symbols"][0]["name"] = "injected"
    entry["symbols"][0]["qname"] = "repro.cached.injected"
    cache.write_text(json.dumps(data), encoding="utf-8")
    graph = load_or_build([src], cache=cache)
    assert graph.symbol("repro.cached.injected") is not None
    # ...then change the source and observe digest invalidation: the
    # injected entry is discarded and the real facts re-extracted.
    src.write_text("def f():\n    return 2\n", encoding="utf-8")
    graph = load_or_build([src], cache=cache)
    assert graph.symbol("repro.cached.injected") is None
    assert graph.symbol("repro.cached.f") is not None


# -- dataflow interpreter ---------------------------------------------------


class _SourcePolicy(TaintPolicy):
    """Taints the free name ``SRC``; everything else flows untainted."""

    def name_taint(self, ctx, name):
        return frozenset({"src"}) if name == "SRC" else frozenset()


def _returns_of(tmp_path, body: str) -> frozenset:
    path = _write(tmp_path, "repro/flowfx.py", body)
    ctx = ModuleContext(path, body)
    fn = next(
        node
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.FunctionDef)
    )
    return analyze_flow(ctx, fn, _SourcePolicy()).returns


def test_flow_assignment_chain(tmp_path):
    assert _returns_of(
        tmp_path, "def f():\n    x = SRC\n    y = x\n    return y\n"
    ) == {"src"}


def test_flow_ternary_join(tmp_path):
    assert _returns_of(
        tmp_path, "def f(c):\n    x = SRC if c else 0\n    return x\n"
    ) == {"src"}


def test_flow_comprehension(tmp_path):
    assert _returns_of(
        tmp_path,
        "def f():\n"
        "    xs = [SRC]\n"
        "    ys = [y for y in xs]\n"
        "    return ys\n",
    ) == {"src"}


def test_flow_loop_fixpoint(tmp_path):
    # tmp only picks up the taint on the second loop pass: the fixpoint
    # iteration is what carries it.
    assert _returns_of(
        tmp_path,
        "def f(n):\n"
        "    tmp = 0\n"
        "    acc = 0\n"
        "    for i in range(n):\n"
        "        tmp = acc\n"
        "        acc = SRC\n"
        "    return tmp\n",
    ) == {"src"}


def test_flow_tuple_unpack_and_augassign(tmp_path):
    assert _returns_of(
        tmp_path, "def f():\n    a, b = (SRC, 0)\n    return a\n"
    ) == {"src"}
    assert _returns_of(
        tmp_path, "def f():\n    x = 0\n    x += SRC\n    return x\n"
    ) == {"src"}


def test_flow_walrus_binds(tmp_path):
    assert _returns_of(
        tmp_path,
        "def f():\n    if (y := SRC):\n        pass\n    return y\n",
    ) == {"src"}


def test_iter_scopes_yields_module_and_nested_defs(tmp_path):
    source = "def outer():\n    def inner():\n        pass\n"
    ctx = ModuleContext(tmp_path / "m.py", source)
    scopes = list(iter_scopes(ctx))
    assert len(scopes) == 3  # module + outer + inner


# -- REP-D004 / REP-D005: RNG provenance through dataflow -------------------


def test_d004_aliased_module_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/flowrng.py",
        "import random\n\n\ndef pick(xs):\n    r = random\n    r.shuffle(xs)\n",
    )
    assert _rule_ids(report) == ["REP-D004"]


def test_d004_aliased_draw_function_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/flowrng.py",
        "import random\n\n\ndef draw():\n    f = random.random\n    return f()\n",
    )
    assert _rule_ids(report) == ["REP-D004"]


def test_d005_unseeded_factory_bypass_flagged(tmp_path):
    # The seeded-Generator-bypass regression: the function accepts rng
    # but draws from a locally constructed, unseeded generator.
    report = _lint_source(
        tmp_path,
        "repro/cache/flowrng.py",
        "import random\n\n\n"
        "def pick(files, rng):\n"
        "    make = random.Random\n"
        "    r = make()\n"
        "    r.shuffle(files)\n"
        "    return rng.choice(files)\n",
    )
    assert _rule_ids(report) == ["REP-D005"]


def test_d005_seeded_and_param_draws_clean(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/flowrng.py",
        "import random\n\n\n"
        "def pick(files, seed, rng):\n"
        "    make = random.Random\n"
        "    r = make(seed)\n"
        "    r.shuffle(files)\n"
        "    rng.shuffle(files)\n"
        "    return files\n",
    )
    assert report.ok


def test_rng_flow_rules_scoped_to_determinism_packages(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/tools/flowrng.py",
        "import random\n\n\ndef pick(xs):\n    r = random\n    r.shuffle(xs)\n",
    )
    assert report.ok


# -- REP-U001: seconds/centiseconds unit taint ------------------------------


def test_u001_comparison_regression_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/trace/unitsfx.py",
        "_MAX_CS = 4294967295\n\n\n"
        "def check(event_time):\n"
        "    return event_time <= _MAX_CS\n",
    )
    assert _rule_ids(report) == ["REP-U001"]


def test_u001_explicit_conversion_clean(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/trace/unitsfx.py",
        "_MAX_CS = 4294967295\n\n\n"
        "def check(event_time):\n"
        "    return round(event_time * 100) <= _MAX_CS\n",
    )
    assert report.ok


def test_u001_assignment_and_keyword_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/corpus/unitsfx.py",
        "def store(row, elapsed):\n"
        "    row_cs = elapsed\n"
        "    return row_cs\n\n\n"
        "def emit(writer, start_cs):\n"
        "    writer.write(time_first=start_cs)\n",
    )
    assert _rule_ids(report) == ["REP-U001", "REP-U001"]


def test_u001_scoped_to_unit_packages(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/unitsfx.py",
        "_MAX_CS = 4294967295\n\n\n"
        "def check(event_time):\n"
        "    return event_time <= _MAX_CS\n",
    )
    assert report.ok


# -- REP-E001 / REP-E002: engine parity fixture trees -----------------------


def _engine_tree(
    tmp_path,
    *,
    name: str = "tree",
    fallback: bool = True,
    drift: bool = False,
    orphan: bool = False,
    fuzz_calls: bool = True,
    fuzz_module: bool = True,
) -> Path:
    root = tmp_path / name
    _write(root, "repro/vec/__init__.py", "")
    kernel_sig = "cols, window, chunk=64" if drift else "cols, window, scale=1.0"
    kernels = f"def scan_numpy({kernel_sig}):\n    return 1\n"
    if orphan:
        kernels += "\n\ndef extra_numpy(cols):\n    return 2\n"
    _write(root, "repro/vec/kernels.py", kernels)
    _write(
        root,
        "repro/vec/oracle.py",
        "def scan_python(cols, window, scale=1.0):\n    return 1\n",
    )
    gate = (
        "from repro.analysis.vectorized import VectorFallback\n"
        "from .kernels import scan_numpy\n"
        "from .oracle import scan_python\n\n\n"
        "def scan(cols, window, scale=1.0):\n"
        "    try:\n"
        "        return scan_numpy(cols, window)\n"
        "    except VectorFallback:\n"
        "        pass\n"
    )
    if fallback:
        gate += "    return scan_python(cols, window, scale=scale)\n"
    _write(root, "repro/vec/dispatch.py", gate)
    if fuzz_module:
        _write(root, "repro/fuzz/__init__.py", "")
        if fuzz_calls:
            pillar = (
                "from ..vec.kernels import scan_numpy\n"
                "from ..vec.oracle import scan_python\n\n\n"
                "def check(cols):\n"
                "    return scan_numpy(cols, 4) == scan_python(cols, 4)\n"
            )
        else:
            pillar = "def check(cols):\n    return True\n"
        _write(root, "repro/fuzz/pillar.py", pillar)
    return root


def test_engine_fixture_tree_clean(tmp_path):
    report = lint_paths([_engine_tree(tmp_path)])
    assert report.ok, _rule_ids(report)


def test_e001_missing_fallback(tmp_path):
    root = _engine_tree(tmp_path, fallback=False)
    report = lint_paths([root])
    assert _rule_ids(report) == ["REP-E001"]
    assert "fallback" in report.findings[0].message


def test_e001_signature_drift(tmp_path):
    root = _engine_tree(tmp_path, drift=True)
    report = lint_paths([root])
    assert _rule_ids(report) == ["REP-E001"]
    assert "chunk" in report.findings[0].message


def test_e001_orphan_fast_path(tmp_path):
    root = _engine_tree(tmp_path, orphan=True)
    report = lint_paths([root])
    assert _rule_ids(report) == ["REP-E001"]
    assert "extra_numpy" in report.findings[0].message


def test_e002_missing_differential(tmp_path):
    root = _engine_tree(tmp_path, fuzz_calls=False)
    report = lint_paths([root])
    assert _rule_ids(report) == ["REP-E002"]


def test_e002_silent_without_fuzz_modules_in_scan(tmp_path):
    # A scan that includes no fuzz-package module cannot judge coverage.
    root = _engine_tree(tmp_path, fuzz_module=False)
    report = lint_paths([root])
    assert report.ok


def test_engine_rules_skipped_on_scoped_run(tmp_path):
    root = _engine_tree(tmp_path, fallback=False, fuzz_calls=False)
    report = lint_paths([root], scoped=True)
    assert report.ok


# -- REP-A001: stale suppressions -------------------------------------------


def test_stale_suppression_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/stale.py",
        "x = 1  # repro: allow[REP-D001] -- historical\n",
    )
    assert _rule_ids(report) == ["REP-A001"]
    assert "stale" in report.findings[0].message


def test_used_suppression_not_stale(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/used.py",
        "import time\nt0 = time.time()  # repro: allow[REP-D001] -- fixture\n",
    )
    assert report.ok
    assert report.suppressed_count == 1


def test_stale_check_skipped_on_scoped_run(tmp_path):
    path = _write(
        tmp_path,
        "repro/cache/stale.py",
        "x = 1  # repro: allow[REP-D001] -- historical\n",
    )
    assert lint_paths([path], scoped=True).ok


# -- CLI: --changed, --update-baseline, sarif, --callgraph-cache ------------


def _git(root: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *argv], cwd=root, capture_output=True, text=True
    )


@pytest.fixture
def git_tree(tmp_path, monkeypatch):
    if shutil.which("git") is None:
        pytest.skip("git unavailable")
    monkeypatch.chdir(tmp_path)
    assert _git(tmp_path, "init", "-q").returncode == 0
    _write(tmp_path, "repro/cache/clean.py", "x = 1\n")
    _git(tmp_path, "add", "-A")
    commit = _git(
        tmp_path,
        "-c", "user.email=lint@example.invalid",
        "-c", "user.name=lint",
        "commit", "-q", "-m", "seed",
    )
    assert commit.returncode == 0, commit.stderr
    return tmp_path


def test_cli_changed_scopes_to_touched_files(git_tree, capsys):
    _write(git_tree, "repro/cache/dirty.py", "import time\nt0 = time.time()\n")
    rc = main(
        ["lint", str(git_tree), "--changed", "HEAD", "--format", "json"]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_scanned"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["REP-D001"]


def test_cli_changed_bad_ref_is_an_error(git_tree):
    assert main(["lint", str(git_tree), "--changed", "no-such-ref"]) == 2


def test_cli_changed_conflicts_with_update_baseline(git_tree):
    rc = main(
        [
            "lint", str(git_tree),
            "--changed", "HEAD",
            "--baseline", "b.json",
            "--update-baseline",
        ]
    )
    assert rc == 2


def test_cli_update_baseline_refreshes(tmp_path, capsys):
    dirty = _write(
        tmp_path,
        "repro/cache/mod.py",
        "import time\nt0 = time.time()\n",
    )
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(dirty), "--write-baseline", str(baseline)]) == 0
    dirty.write_text(
        "import time\nt0 = time.time()\n"
        "import random\nx = random.random()\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    rc = main(
        ["lint", str(dirty), "--baseline", str(baseline), "--update-baseline"]
    )
    assert rc == 0
    assert "2 grandfathered" in capsys.readouterr().out
    rc = main(
        ["lint", str(dirty), "--baseline", str(baseline), "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["baselined"] == 2


def test_cli_update_baseline_requires_a_baseline(tmp_path, monkeypatch):
    # chdir away from the repo so its pyproject cannot supply a baseline.
    monkeypatch.chdir(tmp_path)
    clean = _write(tmp_path, "repro/cache/mod.py", "x = 1\n")
    assert main(["lint", str(clean), "--update-baseline"]) == 2


def test_sarif_payload_shape(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/clocky.py",
        "import time\nt0 = time.time()\n",
    )
    payload = json.loads(render_sarif(report))
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-statics"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"REP-D001", "REP-E001", "REP-A001"} <= rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "REP-D001"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("clocky.py")
    assert location["region"]["startLine"] == 2
    assert result["partialFingerprints"]["reproStaticsFingerprint/v1"]


def test_cli_sarif_output_file(tmp_path, capsys):
    dirty = _write(
        tmp_path,
        "repro/cache/mod.py",
        "import time\nt0 = time.time()\n",
    )
    out = tmp_path / "statics.sarif"
    rc = main(
        ["lint", str(dirty), "--format", "sarif", "--output", str(out)]
    )
    assert rc == 1
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["runs"][0]["results"]


def test_cli_callgraph_cache_written(tmp_path):
    root = _engine_tree(tmp_path)
    cache = tmp_path / "facts.json"
    rc = main(["lint", str(root), "--callgraph-cache", str(cache)])
    assert rc == 0
    data = json.loads(cache.read_text(encoding="utf-8"))
    assert data["version"] == 3
    assert data["files"]


def test_lint_paths_rejects_unknown_override(tmp_path):
    path = _write(tmp_path, "repro/cache/mod.py", "x = 1\n")
    with pytest.raises(ValueError):
        lint_paths([path], overrides={"bogus_option": []})


def test_lint_paths_override_widens_scope(tmp_path):
    path = _write(
        tmp_path,
        "repro/tools/clocky.py",
        "import time\nt0 = time.time()\n",
    )
    assert lint_paths([path]).ok
    report = lint_paths(
        [path], overrides={"determinism_packages": ["repro.tools"]}
    )
    assert _rule_ids(report) == ["REP-D001"]


# -- whole-tree regression ---------------------------------------------------


def test_tree_dispatches_all_paired_and_fuzzed():
    files = collect_files([REPO_SRC])
    graph = shared_graph(files)
    assert {
        "repro.analysis.onepass.analyze_onepass",
        "repro.corpus.stream.analyze_corpus",
        "repro.parallel.packed.pack_stream",
        "repro.parallel.veccache.replay_packed",
        "repro.parallel.veccache.stack_curve",
    } <= {d.qname for d in graph.dispatches}
    known = "repro.parallel.packed.pack_stream"
    fast = [
        c.callee
        for c in graph.callees_of(known)
        if c.branch == "numpy" and c.resolved
    ]
    assert any(q.endswith("pack_stream_numpy") for q in fast)
    assert list(check_engine_parity(files)) == []
    assert list(check_fuzz_coverage(files)) == []
