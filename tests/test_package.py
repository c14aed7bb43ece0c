import ast
import builtins
import functools
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import pseudo3d

_PACKAGE = Path(pseudo3d.__file__).parent
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_README = Path(__file__).resolve().parent.parent / "README.md"


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

    A raised name may also be a local bound to ``C(...)`` or the ``as`` name
    of ``except C``, for C from errors.py.
    """
    errors_tree = ast.parse((_PACKAGE / "errors.py").read_text())
    classes = {node.name for node in errors_tree.body if isinstance(node, ast.ClassDef)}
    assert len(classes) <= 4, sorted(classes)
    checked, wrong = 0, []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound: dict[str, set[str]] = {}  # local name -> the classes it may hold
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
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


def test_every_array_parameter_goes_through_float_array():
    """No module but errors.py converts a function parameter with ``np.asarray``
    (or ``np.asanyarray``, ``np.ascontiguousarray``, ``np.array(..., dtype=...)``):
    array arguments go through ``errors.float_array``, one contract for all."""
    converters = {"np.asarray", "np.asanyarray", "np.ascontiguousarray"}
    found = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                continue
            a = func.args
            params = {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          *filter(None, [a.vararg, a.kwarg])]}
            for call in ast.walk(func):
                if not isinstance(call, ast.Call) or not call.args \
                        or not isinstance(call.args[0], ast.Name) \
                        or call.args[0].id not in params:
                    continue
                name = ast.unparse(call.func)
                if name in converters or name == "np.array" and (
                        len(call.args) > 1 or any(k.arg == "dtype" for k in call.keywords)):
                    found.add((path.name, getattr(func, "name", "<lambda>")))
    assert found == set()


def test_no_module_calls_splitlines():
    """No module calls ``str.splitlines``, which also ends a line at ``\\x0b``,
    ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``, U+2028 and U+2029: a text file's
    line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only, in every reader."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(_PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "splitlines"]
    assert found == []


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


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_every_name_the_benchmark_calls_resolves():
    """Each name ``perfbench/*.py`` reaches on the package exists, so deleting one
    the benchmark calls fails here and not in a benchmark run.

    The benchmark holds the package as ``p3``, ``self.p3``, ``wl.p3`` or
    ``pseudo3d``, and its tracer wraps the keys of ``tracing.TRACED``.
    """
    import pseudo3d.cli  # noqa: F401  (the gen-cloud workload calls p3.cli.main)
    roots = ("p3.", "self.p3.", "wl.p3.", "pseudo3d.")
    chains = set()
    for path in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node) or ""
                chains.update(dotted[len(root):] for root in roots if dotted.startswith(root))
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
                chains.update(ast.literal_eval(key) for key in node.value.keys)
    missing = []
    for chain in sorted(chains):
        try:
            functools.reduce(getattr, chain.split("."), pseudo3d)
        except AttributeError:
            missing.append(chain)
    assert len(chains) > 20, sorted(chains)
    assert missing == []


def test_the_benchmark_depth_chain_runs(tmp_path):
    """The calls ``perfbench``'s policy-train item makes, in its order, on a small
    PFM frame: the names it keeps are run, not only resolved."""
    p3 = pseudo3d
    d = np.random.default_rng(3).uniform(0.5, 10.0, (6, 8)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "frame.pfm")
    p3.write_pfm(path, d)
    intr = p3.CameraIntrinsics(fx=5.0, fy=5.0, cx=3.5, cy=2.5)

    depth = p3.load_depth_map(path, "pfm", p3.DepthKind.PREDICTED_RELATIVE)
    cloud = p3.cloud_from_depth(p3.pipeline_relative_to_dr(depth), intr)
    cmap, _ = p3.normalize_coordinate_map(p3.to_coordinate_map(cloud))

    lo, span = d.min(), d.max() - d.min()
    assert cloud.tobytes() == p3.backproject(1 - (d - lo) / span, intr).tobytes()
    planar, _ = p3.normalize_coordinate_map(np.ascontiguousarray(cloud.transpose(2, 0, 1)))
    assert cmap.tobytes() == planar.tobytes()


def test_readme_layout_lists_every_module():
    """README's "Library layout" block names each module of the package once, and
    nothing else; ``__init__.py`` and ``__main__.py`` go unlisted."""
    block = _README.read_text().split("## Library layout", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^  (\S+)", block, re.MULTILINE)
    modules = [path.name for path in _PACKAGE.glob("*.py") if not path.name.startswith("__")]
    assert sorted(listed) == sorted(modules)


def test_readme_error_list_names_every_class():
    """README's list of exception classes, the sentence that opens it and its
    bullets, names each class errors.py defines and no other but Python's own."""
    after = _README.read_text().split("Every exception the library raises", 1)[1]
    intro, bullets = after.split("\n\n")[:2]
    listed = set(re.findall(r"`(\w+Error)`", intro + bullets)) - set(dir(builtins))
    tree = ast.parse((_PACKAGE / "errors.py").read_text())
    assert listed == {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
