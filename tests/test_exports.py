"""The public surface: every name in a module's ``__all__`` exists, and the
package re-exports only names that their module declares public."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import conemix

MODULES = sorted(info.name for info in pkgutil.iter_modules(conemix.__path__))
#: a cone's private state, which only ``cones.py`` may read
CONE_PRIVATE = re.compile(
    r"\._(inner|poly|delegate|gens|dual_rays|extremal|gens_f|dual_f|"
    r"gens_int|dual_int)\b")
#: the parts of a rational, and the lcm that clears denominators: only
#: ``linalg.py`` turns rationals into integers
DENOMINATORS = re.compile(r"\.(denominator|numerator)\b|\blcm\b")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"conemix.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_public_names():
    tree = ast.parse(Path(conemix.__file__).read_text(encoding="utf-8"))
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            declared = importlib.import_module(
                f"conemix.{node.module}").__all__
            stray += [f"{node.module}.{alias.name}" for alias in node.names
                      if not alias.name.startswith("_")
                      and alias.name not in declared]
    assert stray == []


def _lines_outside(owner, pattern):
    """Lines of the package's modules other than ``owner`` that match."""
    hits = []
    for path in sorted(Path(conemix.__file__).parent.glob("*.py")):
        if path.name == owner:
            continue
        for n, line in enumerate(path.read_text(encoding="utf-8")
                                 .splitlines(), 1):
            if pattern.search(line):
                hits.append(f"{path.name}:{n}: {line.strip()}")
    return hits


def test_only_cones_reads_private_cone_state():
    assert _lines_outside("cones.py", CONE_PRIVATE) == []


def test_only_linalg_clears_denominators():
    assert _lines_outside("linalg.py", DENOMINATORS) == []
