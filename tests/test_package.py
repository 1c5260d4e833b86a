import ast
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sumfree
from sumfree.cache import make_record

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")


def test_version_matches_pyproject():
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.M)
    assert match and match.group(1) == sumfree.__version__


def test_every_exported_name_resolves():
    assert len(set(sumfree.__all__)) == len(sumfree.__all__)
    for name in sumfree.__all__:
        assert hasattr(sumfree, name), name


def test_public_names_are_pinned():
    """Adding or removing a public name is an edit of this list."""
    assert sumfree.__all__ == [
        "RationalParseError",
        "Interval", "IntervalUnion", "Witness", "is_k_sum_free", "parse_union",
        "LinearProgram", "solve", "SearchResult", "build_pattern_lp",
        "maximize_measure", "forbidden_triples", "f_max",
        "enumerate_maximum_sets", "derive_delta", "check_chain",
        "sumset_bound_harness",
    ]


def test_readme_library_example_runs_on_public_names():
    """README's ``python`` block runs, and it imports from ``sumfree`` only
    names in ``__all__``, so a name gone from the package cannot stay there."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    imported = []
    for node in ast.walk(ast.parse(blocks[0])):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "sumfree" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sumfree":
            assert node.module == "sumfree"
            imported += [alias.name for alias in node.names]
    assert imported and set(imported) <= set(sumfree.__all__)
    exec(compile(blocks[0], "README.md", "exec"), {})


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


def test_every_range_check_goes_through_require_int():
    """A count's lower bound is ``require_int``'s ``least``, so what a bad
    count raises and how it reads is decided in one place: no comparison
    takes a ``require_int(...)`` call as an operand."""
    package = Path(sumfree.__file__).resolve().parent
    checks = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(operand, ast.Call)
                    and getattr(operand.func, "id", getattr(operand.func, "attr", None))
                    == "require_int"
                    for operand in (node.left, *node.comparators)):
                checks.append(f"{path.name}:{node.lineno}")
    assert checks == []


def test_every_search_node_closes_through_one_call():
    """``search._expand`` closes a node only by ``return state.close(reason)``,
    which counts it by its reason: no ``return`` in it gives a literal ``[]``."""
    source = Path(sumfree.__file__).resolve().with_name("search.py")
    expand, = (node for node in ast.walk(ast.parse(source.read_text(), str(source)))
               if isinstance(node, ast.FunctionDef) and node.name == "_expand")
    bare = [node.lineno for node in ast.walk(expand) if isinstance(node, ast.Return)
            and isinstance(node.value, ast.List) and not node.value.elts]
    assert bare == []


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
    """Each ``def`` and ``class`` of the package is named somewhere in a module
    of it other than ``__init__.py``.  What only the tests or the bench scripts
    read is dead code here: the package is the prover, and the bench times it.
    ``__all__`` and ``__init__.py``'s re-exports do not count as a reader, so a
    public name needs a caller on a prover path too.  A method counts only when
    read as an attribute (``x.name``), never by a bare name that a local
    variable may share.  A name that an unrelated attribute shares passes, so
    this is a floor against dead code, not a proof of use."""
    package = Path(sumfree.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    names, attributes = set(), set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
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


def _stored_attributes(tree: ast.AST):
    """``(class, attribute, lineno)`` for each field of each NamedTuple
    class, an annotation in the body of a ``NamedTuple`` subclass or a name
    in the field list of a functional ``NamedTuple(...)`` base, and each
    ``self.<name>`` or ``object.__setattr__(self, "<name>", ...)`` store
    in a class's methods."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id == "NamedTuple":
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        yield cls.name, node.target.id, node.lineno
            elif isinstance(base, ast.Call) and getattr(base.func, "id", None) == "NamedTuple":
                for field in base.args[1].elts:
                    yield cls.name, field.elts[0].value, field.lineno
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                yield cls.name, node.attr, node.lineno
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
                  and ast.unparse(node.args[0]) == "self"):
                yield cls.name, node.args[1].value, node.lineno


def test_every_stored_attribute_is_read():
    """Each attribute the package stores, a NamedTuple field or a
    ``self.<name>`` store, is read as an attribute (``x.name``) in some
    module of the package: one only written holds data that no caller sees
    and no checker reads.  No class is exempt: a ``CacheRecord`` field that
    ``append_record`` writes to the file with ``_asdict`` still needs a reader.
    As in the dead-definition guard, what only the tests or the bench read
    does not count, and an unrelated attribute of the same name lets one
    pass."""
    package = Path(sumfree.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    stored = [(name, *attribute) for name, tree in trees.items()
              for attribute in _stored_attributes(tree)]
    # the walk finds each kind at all: NamedTuple fields in a class body and
    # in a functional base, self stores and object.__setattr__ stores
    assert {("CacheRecord", "kind"), ("Interval", "lo"), ("Tableau", "pivots"),
            ("IntervalUnion", "den")} <= {(cls, attribute) for _, cls, attribute, _ in stored}
    unread = [f"{name}:{lineno}: {cls}.{attribute}" for name, cls, attribute, lineno in stored
              if attribute not in read]
    assert unread == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """``import sumfree.cli``, which every CLI call pays first, builds its
    classes without generated code and lists its source files without
    ``pathlib``: in a fresh interpreter it loads none of ``dataclasses``,
    ``inspect`` and ``pathlib``.  The child runs with ``-S``, as ``site``
    may load ``pathlib`` itself (through a ``.pth`` file)."""
    code = ("import sys; before = set(sys.modules); import sumfree.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pathlib'} & (set(sys.modules) - before)))")
    import_root = str(Path(sumfree.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [import_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_unions_and_records_are_immutable_values():
    """``IntervalUnion`` equals and hashes as ``(den, nums)`` against unions
    only, refuses every assignment and deletion, keeps the field-list
    ``repr`` and survives a pickle round trip with its ``intervals`` view
    read; each result record refuses an assignment to a field."""
    u = sumfree.IntervalUnion(3, [(1, 2)])
    assert u == sumfree.IntervalUnion(3, ((1, 2),)) and u != (3, ((1, 2),))
    assert sumfree.IntervalUnion() != (1, ()) and (1, ()) != sumfree.IntervalUnion()
    assert hash(u) == hash(sumfree.IntervalUnion(den=3, nums=((1, 2),)))
    assert repr(u) == "IntervalUnion(den=3, nums=((1, 2),))"
    for name in ("den", "nums", "intervals", "other"):
        with pytest.raises(AttributeError):
            setattr(u, name, 1)
        with pytest.raises(AttributeError):
            delattr(u, name)
    assert (u.den, u.nums) == (3, ((1, 2),))
    u.intervals
    v = pickle.loads(pickle.dumps(u))
    assert v == u and hash(v) == hash(u) and v.intervals == u.intervals
    certificate = sumfree.derive_delta()
    fields = [
        (sumfree.maximize_measure(1, 3), "optimum"),
        (sumfree.sumset_bound_harness(10, 2, 1), "min_slack"),
        (certificate, "delta_star"), (certificate.steps[0], "ok"),
        (make_record("discrete", {"n": 1}, {"f": 1}, "0"), "result"),
        (sumfree.build_pattern_lp(1), "rows"), (u.intervals[0], "lo"),
    ]
    assert [type(record).__name__ for record, _ in fields] == [
        "SearchResult", "HarnessReport", "Certificate", "ChainStep", "CacheRecord",
        "LinearProgram", "Interval"]
    for record, name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value


_LP = sumfree.LinearProgram((1, 2), ((1, -1),))


@pytest.mark.parametrize("record,change,error", [
    (sumfree.Interval(Fraction(0), Fraction(1)), {"hi": Fraction(0)}, ValueError),
    (_LP, {"rows": ((1,),)}, ValueError),
    (_LP, {"rows": ((1.5, 2),)}, TypeError),
], ids=["degenerate-interval", "short-lp-row", "float-lp-coefficient"])
def test_replace_runs_the_record_checks(record, change, error):
    """``_replace`` rejects what the constructor rejects, with the same
    error, and a change that passes the checks still goes through."""
    with pytest.raises(error):
        type(record)(**{**record._asdict(), **change})
    with pytest.raises(error):
        record._replace(**change)
    assert record._replace() == record and type(record._replace()) is type(record)


_UNION =sumfree.parse_union("(2/3,1)")
# each public function with integer or rational parameters, and arguments it accepts
_NUMERIC_CALLS = [
    (sumfree.maximize_measure, {"m": 2, "k": 3, "parallel": 1, "node_limit": 1000}),
    (sumfree.build_pattern_lp, {"m": 2}),
    (sumfree.f_max, {"n": 10, "k": 3, "node_limit": 1000}),
    (sumfree.enumerate_maximum_sets, {"n": 10, "k": 3, "node_limit": 1000}),
    (sumfree.forbidden_triples, {"n": 10, "k": 3}),
    (sumfree.is_k_sum_free, {"u": _UNION, "k": 3}),
    (sumfree.check_chain, {"delta": Fraction(1, 114), "set_inf": 0, "top_gap": 0}),
    (sumfree.sumset_bound_harness, {"trials": 10, "max_intervals": 2, "seed": 1}),
    (sumfree.IntervalUnion, {"den": 3, "nums": [(1, 2)]}),
]


@pytest.mark.parametrize("fn,kwargs,name,kind", [
    pytest.param(fn, kwargs, name, kind, id=f"{fn.__name__}-{name}{suffix}")
    for fn, kwargs in _NUMERIC_CALLS for name in kwargs if name != "u"
    for kind, suffix in ((float, ""), (bool, "-bool")) if (name, kind) != ("nums", bool)])
def test_a_float_argument_raises_type_error(fn, kwargs, name, kind):
    """A float, even an integral one, and a bool are rejected up front, never
    computed with."""
    fn(**kwargs)
    value = kwargs[name]
    bad = [(lo, kind(hi)) for lo, hi in value] if name == "nums" else kind(value)
    with pytest.raises(TypeError):
        fn(**{**kwargs, name: bad})


# the least value of each bounded integer parameter in _NUMERIC_CALLS
_LEAST = {"m": 1, "k": 1, "n": 1, "parallel": 1, "node_limit": 0,
          "trials": 1, "max_intervals": 1, "den": 1}


@pytest.mark.parametrize("fn,kwargs,name", [
    pytest.param(fn, kwargs, name, id=f"{fn.__name__}-{name}")
    for fn, kwargs in _NUMERIC_CALLS for name in kwargs if name in _LEAST])
def test_a_count_below_its_least_value_raises_value_error(fn, kwargs, name):
    """One below the least value raises ``ValueError`` naming the parameter."""
    least = _LEAST[name]
    with pytest.raises(ValueError) as exc:
        fn(**{**kwargs, name: least - 1})
    assert str(exc.value) == f"{name} must be >= {least}, got {least - 1}"
