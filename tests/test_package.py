import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

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


def _reads(tree: ast.AST) -> tuple[set[str], set[str]]:
    """What ``tree`` reads: ``Name`` ids and import aliases, and attribute names
    (``x.name``)."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname or node.name))
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def test_every_definition_is_reached():
    """Each ``def`` and ``class`` of the package is named somewhere in it or in
    ``__all__``.  What only the tests or the bench scripts read is dead code
    here: the package is the prover, and the bench times it.  A method counts
    only when read as an attribute (``x.name``), never by a bare name that a
    local variable may share.  A name that an unrelated attribute shares
    passes, so this is a floor against dead code, not a proof of use."""
    package = Path(sumfree.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    names, attributes = set(sumfree.__all__), set()
    for tree in trees.values():
        tree_names, tree_attributes = _reads(tree)
        names |= tree_names
        attributes |= tree_attributes
    methods = {id(node) for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    unreached = [f"{name}:{node.lineno}: {node.name}" for name, tree in trees.items()
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))
                 and node.name not in (attributes if id(node) in methods else names | attributes)]
    assert unreached == []


_UNION = sumfree.parse_union("(2/3,1)")
# each public function with integer or rational parameters, and arguments it accepts
_NUMERIC_CALLS = [
    (sumfree.maximize_measure, {"m": 2, "k": 3, "parallel": 1, "node_limit": 1000}),
    (sumfree.build_pattern_lp, {"m": 2}),
    (sumfree.f_max, {"n": 10, "k": 3, "node_limit": 1000}),
    (sumfree.enumerate_maximum_sets, {"n": 10, "k": 3, "node_limit": 1000}),
    (sumfree.forbidden_triples, {"n": 10, "k": 3}),
    (sumfree.discretize, {"u": _UNION, "n": 10, "k": 3}),
    (sumfree.mu_formula, {"k": 4}),
    (sumfree.is_k_sum_free, {"u": _UNION, "k": 3}),
    (sumfree.check_chain, {"delta": Fraction(1, 114), "set_inf": 0, "top_gap": 0}),
    (sumfree.sumset_bound_harness, {"trials": 10, "max_intervals": 2, "seed": 1}),
    (sumfree.IntervalUnion.from_numerators, {"pairs": [(1, 2)], "den": 3}),
]


@pytest.mark.parametrize("fn,kwargs,name", [
    pytest.param(fn, kwargs, name, id=f"{fn.__name__}-{name}")
    for fn, kwargs in _NUMERIC_CALLS for name in kwargs if name != "u"])
def test_a_float_argument_raises_type_error(fn, kwargs, name):
    """A float, even an integral one, is rejected up front, never computed with."""
    fn(**kwargs)
    value = kwargs[name]
    bad = [(lo, float(hi)) for lo, hi in value] if name == "pairs" else float(value)
    with pytest.raises(TypeError):
        fn(**{**kwargs, name: bad})
