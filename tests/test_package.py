import ast
import subprocess
import sys
from pathlib import Path

import pseudo3d

_PACKAGE = Path(pseudo3d.__file__).parent


def test_export_list_resolves_and_star_imports():
    assert len(pseudo3d.__all__) == len(set(pseudo3d.__all__))
    missing = [name for name in pseudo3d.__all__ if not hasattr(pseudo3d, name)]
    assert missing == []
    namespace: dict = {}
    exec("from pseudo3d import *", namespace)
    assert set(pseudo3d.__all__) <= set(namespace)


def test_runtime_imports_are_numpy_only():
    """Importing the library and its CLI loads no third-party module but numpy."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pseudo3d, pseudo3d.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - sys.stdlib_module_names))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "['numpy', 'pseudo3d']\n"


def _class_names(expr: ast.expr) -> set[str]:
    """The class names in ``C`` or ``(C1, C2, ...)``."""
    return {ast.unparse(e) for e in (expr.elts if isinstance(expr, ast.Tuple) else [expr])}


def test_every_raise_is_a_class_from_errors():
    """Each ``raise`` in the package raises, or re-raises, a class errors.py defines.

    A raised name may also be a parameter annotated ``type[C]``, a local bound
    to ``C(...)`` or the ``as`` name of ``except C``, for C from errors.py.
    """
    errors_tree = ast.parse((_PACKAGE / "errors.py").read_text())
    classes = {node.name for node in errors_tree.body if isinstance(node, ast.ClassDef)}
    assert len(classes) <= 9, sorted(classes)
    checked, wrong = 0, []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound: dict[str, set[str]] = {}  # local name -> the classes it may hold
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and isinstance(node.annotation, ast.Subscript) \
                    and ast.unparse(node.annotation.value) == "type":
                bound.setdefault(node.arg, set()).update(_class_names(node.annotation.slice))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                    and [type(t) for t in node.targets] == [ast.Name]:
                bound.setdefault(node.targets[0].id, set()).add(ast.unparse(node.value.func))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, set()).update(_class_names(node.type))
        re_raised = {id(raise_): _class_names(handler.type)
                     for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
                     for raise_ in ast.walk(handler) if isinstance(raise_, ast.Raise)
                     and raise_.exc is None and handler.type is not None}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            if node.exc is None:
                raised = re_raised.get(id(node), {"<bare raise>"})
            else:
                name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
                raised = bound.get(name, {name})
            checked += 1
            if not raised <= classes:
                wrong.append(f"{path.name}:{node.lineno} raises {sorted(raised)}")
    assert checked > 50
    assert wrong == []


def test_no_collected_test_is_decorated_with_given():
    """Every ``@given`` function is nested inside a test, never collected itself.

    When a collected ``@given`` test fails under ``filterwarnings = ["error"]``,
    hypothesis's ``pytest_runtest_makereport`` hook raises a
    DeprecationWarning (``mypy_extensions.TypedDict``): pytest stops with
    INTERNALERROR, hides the failure and runs none of the tests after it.
    This holds for module-level functions and for methods of test classes.
    """
    bare = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        collected = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        collected += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                      for node in cls.body if isinstance(node, ast.FunctionDef)]
        for node in collected:
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if ast.unparse(target).rpartition(".")[2] == "given":
                    bare.append(f"{path.name}:{node.lineno} {node.name}")
    assert bare == []
