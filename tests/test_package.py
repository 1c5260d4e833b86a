import ast
import re
from pathlib import Path

import sumfree

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.M)
    assert match and match.group(1) == sumfree.__version__


def test_every_exported_name_resolves():
    assert len(set(sumfree.__all__)) == len(sumfree.__all__)
    for name in sumfree.__all__:
        assert hasattr(sumfree, name), name


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    """``from .lp import _x`` and ``lp_mod._x`` cross a module boundary."""
    package = Path(sumfree.__file__).resolve().parent
    crossings = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()  # local names bound to sumfree modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "sumfree"):
                for alias in node.names:
                    if _private(alias.name):
                        crossings.append(f"{path.name}: imports {alias.name}")
                    if not node.module or node.module == "sumfree":
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                crossings.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert crossings == []


def test_no_float_in_the_package():
    """Every computation is exact: no float literal and no use of ``float``."""
    package = Path(sumfree.__file__).resolve().parent
    floats = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                floats.append(f"{path.name}:{node.lineno}: {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                floats.append(f"{path.name}:{node.lineno}: float")
    assert floats == []
