import subprocess
import sys

import pseudo3d


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
