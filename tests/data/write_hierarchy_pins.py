"""Print the shape and sha256 pins of every AMG hierarchy that ``tests/test_amg.py`` checks.

The hierarchies are those of its ``hierarchies`` fixture, built by
``build_hierarchies`` there from the ``operators`` of ``build_operators``. A
shape pin is the ``(n, nnz)`` of each level and the operator complexity; a
sha256 pin digests every level's prolongator and its operator, which the
levels do not keep and ``level_operators`` replays. After a deliberate
change to AMG set-up, replace the tables ``HIERARCHY_SHAPES`` and
``HIERARCHY_SHA256`` in ``tests/test_amg.py`` with the output and review
the diff.
Run from the repository root: ``PYTHONPATH=src python tests/data/write_hierarchy_pins.py``.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_amg import _hierarchy_sha256, build_hierarchies, build_operators  # noqa: E402


def pin_tables(operators, hierarchies) -> tuple[str, str]:
    """The tables ``HIERARCHY_SHAPES`` and ``HIERARCHY_SHA256`` of the given
    hierarchies of the given operators, as ``tests/test_amg.py`` writes
    them."""
    shapes, hashes = ["HIERARCHY_SHAPES = {"], ["HIERARCHY_SHA256 = {"]
    for name, h in hierarchies.items():
        stats = h.stats()
        levels = [(lev["n"], lev["nnz"]) for lev in stats["levels"]]
        shapes.append(f'    "{name}": ({levels}, {stats["operator_complexity"]!r}),')
        hashes.append(f'    "{name}": "{_hierarchy_sha256(operators[name], h)}",')
    return "\n".join(shapes + ["}"]), "\n".join(hashes + ["}"])


if __name__ == "__main__":
    operators = build_operators()
    print("\n\n".join(pin_tables(operators, build_hierarchies(operators))))
