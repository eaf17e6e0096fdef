"""The package's exit-code policy, read from its source: three exception classes,
one per nonzero exit code, and one function that opens output files."""

import ast
from pathlib import Path

import theftdetect

SRC = Path(theftdetect.__file__).parent
POLICY = ("ConfigError", "DataError", "InfeasibleKError")


def name_of(node: ast.expr) -> str:
    """The name a class base, raise or call target ends in."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_three_exception_classes_in_the_package_module():
    exceptions = {
        (module, node.name)
        for module, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(name_of(b) == "Exception" or name_of(b).endswith("Error") for b in node.bases)
    }
    assert exceptions == {("__init__.py", name) for name in POLICY}
    assert issubclass(theftdetect.InfeasibleKError, theftdetect.DataError)
    assert not issubclass(theftdetect.DataError, theftdetect.ConfigError)


def test_every_raise_names_a_policy_class():
    """``error`` is the ConfigError or DataError class a file reader is given."""
    raised = {
        (module, name_of(node.exc))
        for module, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    assert {name for _, name in raised} <= {*POLICY, "error"}
    assert {module for module, name in raised if name == "error"} == {"ingest.py"}


def test_main_catches_one_class_per_exit_code():
    tree = dict(modules())["cli.py"]
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [h for n in ast.walk(main) if isinstance(n, ast.Try) for h in n.handlers]
    caught = [name_of(h.type) for h in handlers if name_of(h.type) != "SystemExit"]
    assert caught == ["ConfigError", "InfeasibleKError", "DataError"]


def test_only_write_file_makes_directories_or_opens_files():
    writers = {"mkdir", "open", "write_text", "write_bytes"}
    openers = set()
    for module, tree in modules():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and name_of(node) in writers:
                        openers.add((module, func.name, name_of(node)))
    assert openers == {("ingest.py", "write_file", "mkdir"), ("ingest.py", "write_file", "open")}
