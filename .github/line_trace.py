"""List the statements of ``src/losem`` that a pytest run never executes.

A pytest plugin on the standard library's ``sys.settrace``.  It starts
tracing when it is imported, so load it with ``-p``: pytest imports it
before the root conftest imports ``losem``, and the module bodies count
as run.  Only code in the process is traced; a test that runs the command
line in a subprocess reaches nothing here.

    PYTHONPATH=.github:src python -m pytest -q -p line_trace --hypothesis-seed=0

At the end of the session the unreached statements are printed, one per
line as ``path:line: source``, and, where ``GITHUB_STEP_SUMMARY`` names a
file, appended to it as a Markdown list.  Any of them but a statement of
``ALLOWED`` directly under ``if __name__ == "__main__":``, which runs only
when its module is the program, fails a session that passed; so run it
over the whole suite.

A statement is one of the ``ast`` module's: for a compound statement the
header lines (``if``, ``for``, ``def`` with its decorators, ...), for any
other all its lines.  It counts as reached when one of its lines with
bytecode ran; statements with no bytecode, such as docstrings, are left
out.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "losem"
# the source text of each statement that may stay unreached under a
# ``__main__`` guard
ALLOWED = {"sys.exit(main())"}

# the lines run, per file of the package
_hits: dict[Path, set[int]] = {}
# per code file name seen: its set in _hits, or None outside the package
_files: dict[str, set[int] | None] = {}


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    try:
        hits = _files[name]
    except KeyError:
        path = Path(name).resolve()
        inside = name.endswith(".py") and path.parent == PACKAGE
        hits = _files[name] = _hits.setdefault(path, set()) if inside else None
    if hits is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return local

    # the first line event of a frame goes to its local tracer
    return local(frame, event, arg)


sys.settrace(_global)
threading.settrace(_global)


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _span(node) -> set[int]:
    """The lines of a statement or handler, decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(first, node.end_lineno + 1))


def _statements(tree):
    """Each statement of ``tree`` but docstrings, with the lines that are
    its own: its span without those of the statements and handlers nested
    in it."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        own = _span(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                own -= _span(child)
        yield node, own


def _allowed(tree) -> set[ast.stmt]:
    """The statements of ``ALLOWED`` directly under a ``__main__`` guard."""
    return {stmt for node in ast.walk(tree)
            if isinstance(node, ast.If)
            and ast.unparse(node.test) == "__name__ == '__main__'"
            for stmt in node.body if ast.unparse(stmt) in ALLOWED}


def unreached() -> list[tuple[str, int, str, bool]]:
    """(path, line, first source line, allowed) of every statement of the
    package that holds bytecode and never ran, file by file."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        executable = _code_lines(compile(source, str(path), "exec"))
        hits = _hits.get(path.resolve(), set())
        text = source.splitlines()
        tree = ast.parse(source)
        allowed = _allowed(tree)
        for node, own in sorted(_statements(tree), key=lambda item: item[0].lineno):
            lines = own & executable
            if lines and not lines & hits:
                out.append((str(path.relative_to(PACKAGE.parent.parent)),
                            node.lineno, text[node.lineno - 1].strip(),
                            node in allowed))
    return out


missed: list[tuple[str, int, str, bool]] = []


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    missed[:] = unreached()
    if session.exitstatus == 0 and not all(ok for *_, ok in missed):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    gaps = sum(not ok for *_, ok in missed)
    terminalreporter.section(f"line trace: {len(missed)} unreached statements, "
                             f"{gaps} not allowed")
    for path, line, text, ok in missed:
        terminalreporter.write_line(f"{path}:{line}: {text}"
                                    + ("" if ok else "  (not allowed)"))
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write(f"### `src/losem` statements the tests never ran: {len(missed)}\n")
            for path, line, text, _ in missed:
                fh.write(f"- `{path}:{line}`: `{text}`\n")
