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
