"""Source checks on the package modules, each parsed once:

* stdlib-only: every absolute import's top-level module is one of the
  interpreter's own, as the package depends on the standard library alone;
* broad-except: no bare except, and no handler naming Exception or
  BaseException alone or in a tuple, which could hide a programming error;
* unused-import: every name a module imports is read somewhere in it
  (``__init__.py`` imports only to re-export, so it is skipped);
* report-format: a failing Report becomes an error only in Report.require,
  which attaches the report, so no other raise calls a zero-argument
  ``.format()`` to build that message by hand (``report.py`` is skipped).

Prints one ``path:line: rule: text`` line per hit and exits 1 on any.
The tests' reference kernel, which must not import the package it checks,
is held to the same rules by naming it. Standard library only, and not
collected by pytest:

    python tests/source_checks.py [directory or module]   # default src/infalg
    python tests/source_checks.py tests/reference.py
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BROAD = {"Exception", "BaseException"}


def stdlib_only(path, tree, lines):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((node.lineno, f"import {name}") for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names)


def broad_except(path, tree, lines):
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(k, ast.Name) and k.id in BROAD for k in kinds):
            yield node.lineno, lines[node.lineno - 1].strip()


def unused_import(path, tree, lines):
    if path.name == "__init__.py":
        return
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name not in used)


def report_format(path, tree, lines):
    if path.name == "report.py":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "format" and not call.args and not call.keywords
                for call in ast.walk(node.exc)):
            yield node.lineno, lines[node.lineno - 1].strip()


RULES = {"stdlib-only": stdlib_only, "broad-except": broad_except,
         "unused-import": unused_import, "report-format": report_format}


def hits(target) -> list[str]:
    """Every hit of every rule on a module, or on a directory's modules in
    path order, then rule order, then line order."""
    target, out = pathlib.Path(target), []
    for path in sorted(target.glob("*.py")) if target.is_dir() else [target]:
        text = path.read_text()
        tree, lines = ast.parse(text, str(path)), text.splitlines()
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        for rule, check in RULES.items():
            out += [f"{shown}:{line}: {rule}: {what}"
                    for line, what in sorted(check(path, tree, lines))]
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    found = hits(args[0] if args else ROOT / "src" / "infalg")
    print("\n".join(found) or "every source check holds")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
