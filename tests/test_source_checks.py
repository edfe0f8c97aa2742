"""The source checks CI runs, run on the package and on planted violations."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "source_checks.py"
REFERENCE = SCRIPT.parent / "reference.py"


@pytest.fixture(scope="module")
def source_checks():
    spec = importlib.util.spec_from_file_location("source_checks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_package_passes_every_source_check(source_checks, capsys):
    assert source_checks.main([]) == 0
    assert capsys.readouterr().out == "every source check holds\n"


@pytest.mark.parametrize("name, text, line, rule, shown", [
    ("mod.py", "import os\nimport numpy.linalg\n\nos, numpy\n", 2, "stdlib-only",
     "import numpy.linalg"),
    ("mod.py", "from hypothesis import given\n\ngiven\n", 1, "stdlib-only", "import hypothesis"),
    ("mod.py", "try:\n    pass\nexcept:\n    pass\n", 3, "broad-except", "except:"),
    ("mod.py", "try:\n    pass\nexcept (KeyError, Exception):\n    pass\n", 3, "broad-except",
     "except (KeyError, Exception):"),
    ("mod.py", "try:\n    pass\nexcept BaseException as exc:\n    raise exc\n", 3,
     "broad-except", "except BaseException as exc:"),
    ("mod.py", "import os\nfrom sys import argv as args\n\nos\n", 2, "unused-import", "args"),
    ("mod.py", "import os.path\n", 1, "unused-import", "os"),
    ("mod.py", "def f(report):\n    raise ValueError('bad: ' + report.format())\n", 2,
     "report-format", "raise ValueError('bad: ' + report.format())"),
], ids=["import", "from-import", "bare", "tuple", "base", "unused-from", "unused-dotted",
        "format"])
def test_each_rule_names_a_planted_violation(source_checks, tmp_path, capsys, name, text, line,
                                             rule, shown):
    (tmp_path / name).write_text(text)
    assert source_checks.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == f"{tmp_path / name}:{line}: {rule}: {shown}\n"


@pytest.mark.parametrize("planted", ["import infalg\n\ninfalg\n",
                                     "from infalg.order import bits\n\nbits\n"],
                         ids=["import", "from-import"])
def test_the_reference_kernel_imports_nothing_from_the_package(source_checks, tmp_path, capsys,
                                                              planted):
    # the kernel passes as a module path, and a copy with the package
    # imported fails at the planted line
    assert source_checks.main([str(REFERENCE)]) == 0
    assert capsys.readouterr().out == "every source check holds\n"
    text = REFERENCE.read_text()
    copy = tmp_path / "reference.py"
    copy.write_text(text + planted)
    assert source_checks.main([str(copy)]) == 1
    line = text.count("\n") + 1
    module = planted.split()[1]
    assert capsys.readouterr().out == f"{copy}:{line}: stdlib-only: import {module}\n"


@pytest.mark.parametrize("name, text", [
    ("__init__.py", "from os import path\n"),
    ("report.py", "def f(report):\n    raise ValueError(report.format())\n"),
    ("mod.py", "from __future__ import annotations\n"),
    ("mod.py", "from . import files\n\nfiles\n"),
    ("mod.py", "try:\n    pass\nexcept KeyError:\n    pass\n"),
    ("mod.py", "def f(text):\n    raise ValueError('{}'.format(text))\n"),
], ids=["init-reexports", "report-module", "future", "relative", "narrow", "format-args"])
def test_exempt_modules_and_lawful_code_pass(source_checks, tmp_path, capsys, name, text):
    (tmp_path / name).write_text(text)
    assert source_checks.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "every source check holds\n"
