#!/usr/bin/env python
"""Lightweight documentation gate for CI.

Seven checks, any failure exits non-zero:

1. **README snippets run.**  Every fenced ``python`` code block in
   ``README.md`` is executed (in order, each in a fresh namespace), so the
   quickstart can never rot.
2. **Doctests pass.**  ``doctest`` runs over every module in the ``repro``
   package (docstring examples like the package-root quickstart).
3. **Public API is documented.**  Every importable ``repro`` module must
   have a module docstring, and every public function/class/method defined
   in it must have a non-empty docstring (a pydocstyle-style D1xx subset,
   without the external dependency).
4. **Scripts are documented.**  Every ``benchmarks/*.py`` and
   ``tools/*.py`` script must carry a module docstring and docstrings on
   its public top-level functions and classes — checked via ``ast`` so the
   gate never executes (or even imports) the scripts.
5. **Examples run.**  Every ``examples/*.py`` script is executed in its
   ``--smoke`` mode (a tiny-instance variant each example must provide),
   so the worked examples can never drift away from the library API.
6. **File references resolve.**  In ``README.md``, ``docs/*.md`` and the
   verification runbook ``.claude/skills/verify/SKILL.md``, every
   relative Markdown link target must exist, and so must every backticked
   path under a top-level directory (``src/``, ``tests/``, ``tools/``,
   ``benchmarks/``, ``docs/``, ``perfbench/``, ``examples/``) or naming a
   root ``BENCH_*.json`` — so a deleted file cannot leave its mentions
   behind.
7. **Code names resolve.**  In the same files, every backticked bare or
   dotted identifier (optionally called, ``name()``) that is not a file
   name is split at its dots, and each part with an inner underscore or a
   camelCase hump must occur as a word in some ``src/`` or ``tests/``
   Python file — so a deleted class, function or constant cannot leave its
   mentions behind either.  The runbook quotes the benchmark's metric
   names, so its names may also resolve in ``perfbench/`` and ``tools/``.

Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import doctest
import glob
import importlib
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
import traceback

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def iter_repro_modules():
    """Yield (name, module) for the repro package and every submodule."""
    import repro

    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name, importlib.import_module(info.name)


def check_readme_snippets() -> list[str]:
    """Execute every fenced python block in README.md, collecting failures."""
    failures = []
    readme = os.path.join(REPO_ROOT, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    if not blocks:
        return ["README.md contains no ```python blocks to check"]
    for idx, block in enumerate(blocks, 1):
        namespace: dict = {"__name__": f"readme_block_{idx}"}
        stdout, sys.stdout = sys.stdout, io.StringIO()
        try:
            exec(compile(block, f"README.md[block {idx}]", "exec"), namespace)
        except Exception:
            failures.append(
                f"README.md python block {idx} failed:\n{traceback.format_exc()}"
            )
        finally:
            sys.stdout = stdout
    return failures


def check_doctests() -> list[str]:
    """Run doctest over every repro module, collecting failures."""
    failures = []
    for name, module in iter_repro_modules():
        try:
            result = doctest.testmod(module, verbose=False)
        except Exception:
            failures.append(f"doctest collection failed in {name}:\n{traceback.format_exc()}")
            continue
        if result.failed:
            failures.append(f"{result.failed} doctest failure(s) in {name}")
    return failures


def _missing_docstrings(name: str, module) -> list[str]:
    missing = []
    if not (module.__doc__ or "").strip():
        missing.append(f"{name}: missing module docstring")
    for attr_name, attr in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if not (inspect.isfunction(attr) or inspect.isclass(attr)):
            continue
        if getattr(attr, "__module__", None) != name:
            continue  # re-export; checked where it is defined
        if not (inspect.getdoc(attr) or "").strip():
            missing.append(f"{name}.{attr_name}: missing docstring")
        if inspect.isclass(attr):
            for meth_name, meth in vars(attr).items():
                if meth_name.startswith("_"):
                    continue
                func = meth.fget if isinstance(meth, property) else meth
                if not inspect.isfunction(func) and not isinstance(
                    meth, (classmethod, staticmethod)
                ):
                    continue
                if isinstance(meth, (classmethod, staticmethod)):
                    func = meth.__func__
                if not (inspect.getdoc(func) or "").strip():
                    missing.append(
                        f"{name}.{attr_name}.{meth_name}: missing docstring"
                    )
    return missing


def check_docstrings() -> list[str]:
    """Docstring lint over the repro package's public API."""
    failures = []
    for name, module in iter_repro_modules():
        failures.extend(_missing_docstrings(name, module))
    return failures


SCRIPT_DIRS = ("benchmarks", "tools")


def _script_missing_docstrings(path: str) -> list[str]:
    rel = os.path.relpath(path, REPO_ROOT)
    with open(path, encoding="utf-8") as handle:
        try:
            tree = ast.parse(handle.read(), filename=rel)
        except SyntaxError as exc:
            return [f"{rel}: failed to parse ({exc})"]
    missing = []
    if not (ast.get_docstring(tree) or "").strip():
        missing.append(f"{rel}: missing module docstring")
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        if not (ast.get_docstring(node) or "").strip():
            missing.append(f"{rel}:{node.lineno}: {node.name}: missing docstring")
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name.startswith("_"):
                    continue
                if not (ast.get_docstring(member) or "").strip():
                    missing.append(
                        f"{rel}:{member.lineno}: {node.name}.{member.name}: "
                        "missing docstring"
                    )
    return missing


def check_script_docstrings() -> list[str]:
    """Docstring lint over the benchmark/tool scripts (AST-only, no import)."""
    failures = []
    for dirname in SCRIPT_DIRS:
        root = os.path.join(REPO_ROOT, dirname)
        if not os.path.isdir(root):
            continue
        for entry in sorted(os.listdir(root)):
            if entry.endswith(".py"):
                failures.extend(
                    _script_missing_docstrings(os.path.join(root, entry))
                )
    return failures


#: Per-example wall-clock budget for the --smoke runs (generous: the smoke
#: instances finish in ~1-2s; the timeout only catches hangs).
EXAMPLE_SMOKE_TIMEOUT = 120


def check_example_smoke_runs() -> list[str]:
    """Execute every ``examples/*.py`` in ``--smoke`` mode, collecting failures.

    Each example must accept a ``--smoke`` flag that shrinks its instances
    to CI scale; a missing flag, a non-zero exit, or a hang past
    :data:`EXAMPLE_SMOKE_TIMEOUT` seconds is a failure.
    """
    failures = []
    root = os.path.join(REPO_ROOT, "examples")
    if not os.path.isdir(root):
        return ["examples/ directory is missing"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    scripts = [e for e in sorted(os.listdir(root)) if e.endswith(".py")]
    if not scripts:
        return ["examples/ contains no scripts to smoke-run"]
    for entry in scripts:
        path = os.path.join(root, entry)
        try:
            proc = subprocess.run(
                [sys.executable, path, "--smoke"],
                capture_output=True,
                text=True,
                env=env,
                timeout=EXAMPLE_SMOKE_TIMEOUT,
                cwd=REPO_ROOT,
            )
        except subprocess.TimeoutExpired:
            failures.append(
                f"examples/{entry} --smoke exceeded {EXAMPLE_SMOKE_TIMEOUT}s"
            )
            continue
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-8:]
            failures.append(
                f"examples/{entry} --smoke exited {proc.returncode}:\n    "
                + "\n    ".join(tail)
            )
    return failures


#: Top-level directories whose backticked paths must exist.
REFERENCE_ROOTS = (
    "src/", "tests/", "tools/", "benchmarks/", "docs/", "perfbench/", "examples/",
)


def _path_exists(path: str) -> bool:
    """Whether ``path`` exists; a path with ``*`` must match at least one file."""
    return bool(glob.glob(path)) if "*" in path else os.path.exists(path)


#: Directories whose Python files resolve the code names of README.md and
#: docs/*.md.
NAME_ROOTS = ("src", "tests")
#: The verification runbook, checked with the docs; it quotes the
#: benchmark's metric names, so its code names may also resolve in the
#: benchmark and the tools.
RUNBOOK = os.path.join(".claude", "skills", "verify", "SKILL.md")
RUNBOOK_NAME_ROOTS = NAME_ROOTS + ("perfbench", "tools")


def _doc_texts():
    """Yield ``(path, text, name_roots)`` for each checked document, minus fenced code.

    The documents are README.md, each docs/*.md and, when present, the
    :data:`RUNBOOK`; ``name_roots`` are the directories whose Python files
    resolve its code names.
    """
    docs = sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    entries = [(path, NAME_ROOTS) for path in [os.path.join(REPO_ROOT, "README.md")] + docs]
    runbook = os.path.join(REPO_ROOT, RUNBOOK)
    if os.path.exists(runbook):
        entries.append((runbook, RUNBOOK_NAME_ROOTS))
    for path, name_roots in entries:
        with open(path, encoding="utf-8") as handle:
            text = re.sub(r"```.*?```", "", handle.read(), flags=re.DOTALL)
        yield path, text, name_roots


def check_file_references() -> list[str]:
    """Resolve the file references of the checked documents, collecting misses.

    Relative Markdown link targets resolve against the linking file's
    directory (a ``#fragment`` is ignored); backticked paths resolve against
    the repository root (a ``::test`` suffix and anything after the first
    space are ignored).  Fenced code blocks are skipped.
    """
    failures = []
    for path, text, _ in _doc_texts():
        rel = os.path.relpath(path, REPO_ROOT)
        for target in re.findall(r"\]\(([^)\s]+)\)", text):
            if target.startswith("#") or re.match(r"[A-Za-z][\w+.-]*:", target):
                continue  # an anchor, or a URL such as https: or mailto:
            target = target.split("#", 1)[0]
            if not _path_exists(os.path.join(os.path.dirname(path), target)):
                failures.append(f"{rel}: link target {target} does not exist")
        for span in re.findall(r"`([^`\n]+)`", text):
            token = span.split()[0].split("::", 1)[0] if span.strip() else ""
            if not (
                token.startswith(REFERENCE_ROOTS)
                or re.fullmatch(r"BENCH_[\w*]+\.json", token)
            ):
                continue
            if not _path_exists(os.path.join(REPO_ROOT, token)):
                failures.append(f"{rel}: `{token}` does not exist")
    return failures


#: A bare or dotted identifier, optionally followed by ``()``.
CODE_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")
#: Last parts that make a dotted name a file name (section 6's concern).
FILE_EXTENSIONS = ("py", "md", "json", "npz", "txt", "yml", "yaml", "toml", "cfg", "sh")
#: An inner underscore or a camelCase hump: the parts worth resolving.
CODE_LIKE = re.compile(r"[A-Za-z0-9]_[A-Za-z0-9]|[a-z][A-Z]")


def _words(root: str) -> set[str]:
    """Every identifier-like word in the Python files under ``root``."""
    words = set()
    for path in glob.glob(os.path.join(REPO_ROOT, root, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            words.update(re.findall(r"[A-Za-z_]\w*", handle.read()))
    return words


def check_code_names() -> list[str]:
    """Resolve the code names backticked in the checked documents, collecting misses.

    Every part of a :data:`CODE_NAME` span that matches :data:`CODE_LIKE`
    must occur as a word in a Python file under one of the document's name
    roots (``src/`` and ``tests/``; for the runbook also ``perfbench/``
    and ``tools/``) — in code, a docstring or a comment, so paper notation
    such as ``A_i`` resolves; spans ending in one of
    :data:`FILE_EXTENSIONS` are skipped.
    """
    words = {root: _words(root) for root in RUNBOOK_NAME_ROOTS}
    failures = []
    for path, text, name_roots in _doc_texts():
        rel = os.path.relpath(path, REPO_ROOT)
        known = set().union(*(words[root] for root in name_roots))
        where = " or ".join(f"{root}/" for root in name_roots)
        for span in re.findall(r"`([^`\n]+)`", text):
            span = span.strip()
            if not CODE_NAME.fullmatch(span):
                continue
            parts = span.removesuffix("()").split(".")
            if len(parts) > 1 and parts[-1] in FILE_EXTENSIONS:
                continue
            for part in parts:
                if CODE_LIKE.search(part) and part not in known:
                    failures.append(f"{rel}: `{span}`: `{part}` occurs nowhere in {where}")
    return failures


def main() -> int:
    """Run every documentation check and return the process exit code."""
    sections = (
        ("README snippets", check_readme_snippets),
        ("doctests", check_doctests),
        ("docstring coverage", check_docstrings),
        ("script docstring coverage", check_script_docstrings),
        ("example --smoke runs", check_example_smoke_runs),
        ("file references", check_file_references),
        ("code names", check_code_names),
    )
    any_failed = False
    for title, check in sections:
        failures = check()
        status = "FAIL" if failures else "ok"
        print(f"[{status}] {title}")
        for line in failures:
            print(f"    {line}")
        any_failed = any_failed or bool(failures)
    return 1 if any_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
