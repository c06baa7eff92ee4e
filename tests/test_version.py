import re
from pathlib import Path

import afbm

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_matches_package():
    # tomllib is 3.11+, and the package supports 3.10, so read the one
    # key of the [project] table directly.
    project = PYPROJECT.read_text().split("[project]", 1)[1]
    project = project.split("\n[", 1)[0]
    [version] = re.findall(r'^version\s*=\s*"([^"]+)"', project, re.M)
    assert version == afbm.__version__
