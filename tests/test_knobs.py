"""The environment knobs the package reads, as a checked list.

Every ``REPRO_*`` variable is a mode someone can set in production, so
adding one is a design decision: a new name read under ``src/`` fails
this test until it is added to :data:`KNOBS` on purpose.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every ``REPRO_*`` environment variable the package reads.
KNOBS = []

#: The only modules that read the environment at all.
ENV_READERS = []

_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _reads_environment(tree) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        for node in ast.walk(tree)
    )


def test_repro_env_names_read_under_src():
    names = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _NAME.fullmatch(node.value):
                    names.add(node.value)
    assert sorted(names) == KNOBS


def test_only_known_modules_read_the_environment():
    readers = [name for name, tree in _modules() if _reads_environment(tree)]
    assert readers == ENV_READERS
