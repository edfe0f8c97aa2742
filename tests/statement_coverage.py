"""Statement coverage of the package under the test suite.

Runs the tests recording the lines run in the modules of ``src/infalg``
and lists every statement that never ran, docstrings excluded. A compound
statement runs when one of its own lines does, its header and not its
body. A statement whose first line carries ``# unreachable: <reason>`` is
exempt. Exits 1 on a statement that never ran or on a failing test. Lines
are recorded by a ``sys.monitoring`` LINE callback on Python 3.12 or
later, and below 3.12 by a ``sys.settrace`` line tracer, installed in new
threads too by ``threading.settrace``, which makes the run several times
slower. Standard library and pytest only, and not collected by pytest:

    HYPOTHESIS_PROFILE=ci PYTHONPATH=src python tests/statement_coverage.py
"""

import ast
import functools
import os
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "infalg")
hit = set()


@functools.cache
def package_file(filename):
    path = os.path.realpath(filename)
    return path if os.path.dirname(path) == SRC else None


def on_line(code, line):
    path = package_file(code.co_filename)
    if path is not None:
        hit.add((path, line))
    return sys.monitoring.DISABLE   # each line is recorded once


@functools.cache
def line_tracer(path):
    def trace(frame, event, arg):
        if event == "line":
            hit.add((path, frame.f_lineno))
        return trace
    return trace


def on_call(frame, event, arg):
    """sys.settrace's global function: trace the lines of package frames only."""
    path = package_file(frame.f_code.co_filename)
    return None if path is None else line_tracer(path)


def run_tests(args) -> int:
    """pytest.main(args) with every line run in the package recorded in ``hit``."""
    if sys.version_info >= (3, 12):
        mon = sys.monitoring
        mon.use_tool_id(mon.COVERAGE_ID, "statement_coverage")
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, on_line)
        mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
        status = pytest.main(args)
        mon.set_events(mon.COVERAGE_ID, 0)
        return status
    threading.settrace(on_call)
    sys.settrace(on_call)
    status = pytest.main(args)
    sys.settrace(None)
    threading.settrace(None)
    return status


def unexecuted(path):
    text = path.read_text()
    lines = text.splitlines()
    for node in sorted(ast.walk(ast.parse(text)), key=lambda node: getattr(node, "lineno", 0)):
        if not isinstance(node, ast.stmt) or "# unreachable: " in lines[node.lineno - 1]:
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue   # a docstring
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(start, node.end_lineno + 1))
        for child in ast.walk(node):
            if isinstance(child, ast.stmt) and child is not node:
                own -= set(range(child.lineno, child.end_lineno + 1))
        if not any((str(path), line) in hit for line in own):
            yield f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}"


def main() -> int:
    status = run_tests(["-q", "-W", "error", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = [m for path in sorted(pathlib.Path(SRC).glob("*.py")) for m in unexecuted(path)]
    print("\n".join(missed) or "every statement ran")
    return 1 if status or missed else 0


if __name__ == "__main__":
    sys.exit(main())
