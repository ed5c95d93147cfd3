"""The five promises the source tree keeps (docs/STATIC_ANALYSIS.md).

Each check has one test over the real tree and one over an inline bad
sample, so it is seen to fire.  Calls resolve through the module's
imports (after ``import time as t``, ``t.time()`` is ``time.time``); a
call on a local object never resolves.  There is no suppression comment:
a real exception becomes a named case here.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "datetime.date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
})
SEEDED_RANDOM = frozenset({"random.Random", "random.SystemRandom"})
BLOCKING_CALLS = frozenset({
    "time.sleep", "open", "socket.socket", "socket.create_connection",
    "os.fsync", "os.system", "urllib.request.urlopen",
})
BLOCKING_PREFIXES = ("sqlite3.", "subprocess.", "requests.")
DROP_NAME = re.compile(r"(^|_)(evict|shed|drop)")
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
URL_SCHEME = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


def modules(root):
    """``(dotted name, path)`` of every module under ``src/repro``."""
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        yield ".".join(path.relative_to(root / "src").with_suffix("").parts), path


def dotted(node):
    """``a.b.c`` as ``["a", "b", "c"]``; None unless a chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def import_aliases(tree):
    """Each name a module imports, anywhere in it, mapped to its origin."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                root = name.name.partition(".")[0]
                aliases[name.asname or root] = name.name if name.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def resolved_calls(nodes, aliases):
    """``(line, origin)`` of each call among ``nodes`` whose origin is
    known; a bare unimported name (a builtin) stands as it is."""
    for node in nodes:
        parts = dotted(node.func) if isinstance(node, ast.Call) else None
        if parts is None:
            continue
        origin = aliases.get(parts[0])
        if origin is not None:
            yield node.lineno, ".".join([origin, *parts[1:]])
        elif len(parts) == 1:
            yield node.lineno, parts[0]


def own_body(function):
    """Every node of a function body, without nested function bodies
    (their decorators and defaults run in this body, so they stay)."""
    nodes, stack = [], list(function.body)
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            stack += [*node.decorator_list, *args.defaults, *filter(None, args.kw_defaults)]
        else:
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def wallclock_reads(tree):
    """Deterministic code reads no wall clock and no process-global RNG."""
    return {
        (line, origin)
        for line, origin in resolved_calls(ast.walk(tree), import_aliases(tree))
        if origin in WALLCLOCK_CALLS
        or (origin.startswith("random.") and origin not in SEEDED_RANDOM)
    }


def blocking_calls(tree):
    """An ``async def`` never blocks the event loop that serves every
    connection."""
    aliases = import_aliases(tree)
    return {
        (line, origin)
        for function in ast.walk(tree)
        if isinstance(function, ast.AsyncFunctionDef)
        for line, origin in resolved_calls(own_body(function), aliases)
        if origin in BLOCKING_CALLS or origin.startswith(BLOCKING_PREFIXES)
    }


def silent_drops(tree):
    """A function that sheds, evicts or drops, or drains a queue with
    ``.get_nowait()``, counts what it throws away."""
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        callees = [
            node.func for node in own_body(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ]
        drops = DROP_NAME.search(function.name) or "get_nowait" in {c.attr for c in callees}
        if drops and not any(c.attr in ("count", "inc") and dotted(c) for c in callees):
            found.add((function.lineno, function.name))
    return found


#: Each source check, with the packages it covers.
CHECKS = {
    "wall clock": (
        ("repro.tracking", "repro.rtec", "repro.maritime", "repro.pipeline"),
        wallclock_reads,
    ),
    "blocking": (("repro.service", "repro.transport", "repro.gateway"), blocking_calls),
    "silent drop": (
        ("repro.service", "repro.resilience", "repro.ais", "repro.transport",
         "repro.gateway"),
        silent_drops,
    ),
}


def findings(check, module, source):
    """What one check finds in one module; nothing outside its packages."""
    packages, scan = CHECKS[check]
    if not any(module == p or module.startswith(p + ".") for p in packages):
        return set()
    return scan(ast.parse(source))


@pytest.mark.parametrize("check", CHECKS)
def test_src_repro_keeps_the_promise(check):
    found = {
        module: sorted(hits)
        for module, path in modules(ROOT)
        if (hits := findings(check, module, path.read_text(encoding="utf-8")))
    }
    assert found == {}


#: Per check: a module name inside its packages, one outside, a bad
#: sample and exactly what the check finds in it.
SAMPLES = {
    "wall clock": ("repro.tracking.sample", "repro.simulator.sample", """
        import random
        import time as clock
        from datetime import datetime
        def stamps():
            return (clock.time(),
                    datetime.now(),
                    random.random())
        def allowed():
            return clock.perf_counter(), random.Random(2015).random()
    """, {(5, "time.time"), (6, "datetime.datetime.now"), (7, "random.random")}),
    "blocking": ("repro.service.sample", "repro.tracking.sample", """
        import sqlite3
        import time
        async def blocking():
            time.sleep(0.1)
            with open("somefile") as handle:
                handle.read()
            return sqlite3.connect(":memory:")
        async def fine():
            import asyncio
            await asyncio.sleep(0)
            def nested():
                time.sleep(0.1)
        def sync_helper():
            time.sleep(0.1)
    """, {(4, "time.sleep"), (5, "open"), (7, "sqlite3.connect")}),
    "silent drop": ("repro.service.sample", "repro.tracking.sample", """
        class LossyQueue:
            def shed_oldest(self):
                self.items.pop(0)
            def drain(self, queue):
                return [queue.get_nowait()]
            def evict_counted(self, obs):
                self.items.clear()
                obs.count("demo.evicted")
    """, {(2, "shed_oldest"), (4, "drain")}),
}


@pytest.mark.parametrize("check", CHECKS)
def test_check_fires_on_its_bad_sample(check):
    inside, outside, source, expected = SAMPLES[check]
    source = textwrap.dedent(source).lstrip("\n")
    assert findings(check, inside, source) == expected
    assert findings(check, outside, source) == set()


def undocumented_modules(root):
    """Modules that no ``docs/*.md`` names, by dotted name or by path;
    ``__init__`` and ``__main__`` are exempt."""
    docs = sorted((root / "docs").glob("*.md"))
    corpus = "\n".join(doc.read_text(encoding="utf-8") for doc in docs)
    return [
        name for name, path in modules(root)
        if path.stem not in ("__init__", "__main__") and name not in corpus
        and name.split(".", 1)[1].replace(".", "/") + ".py" not in corpus
    ]


def broken_links(root):
    """Relative links in ``docs/*.md`` and README.md that name no file;
    URLs and in-page anchors are skipped."""
    broken = []
    for document in [*sorted((root / "docs").glob("*.md")), root / "README.md"]:
        lines = document.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            for target in LINK.findall(line):
                # An in-page anchor leaves the document's own directory.
                path = document.parent / target.split("#", 1)[0]
                if not URL_SCHEME.match(target) and not path.exists():
                    broken.append((document.relative_to(root).as_posix(), number, target))
    return broken


def test_docs_name_every_module_and_every_link_resolves():
    assert undocumented_modules(ROOT) == []
    assert broken_links(ROOT) == []


def test_doc_checks_fire(tmp_path):
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    for name in ("__init__", "__main__", "named", "by_path", "missing"):
        (package / f"{name}.py").write_text("x = 1\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "`repro.pkg.named` and `pkg/by_path.py`.\n"
        "[gone](MISSING.md) [ok](GUIDE.md#section) [top](#heading)\n"
        "[web](https://example.org/x) [mail](mailto:a@b.c)\n"
    )
    (tmp_path / "README.md").write_text("[docs](docs/GUIDE.md) [bad](nope.md)\n")
    assert undocumented_modules(tmp_path) == ["repro.pkg.missing"]
    assert broken_links(tmp_path) == [
        ("docs/GUIDE.md", 2, "MISSING.md"), ("README.md", 1, "nope.md"),
    ]
