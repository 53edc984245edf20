"""The suite's relative tolerances check what they state.

``pytest.approx(x, rel=r)`` keeps its default ``abs=1e-12``, which swamps
SI values of 1e-26 to 1e-5: such a call accepts anything within 1e-12 of
``x``, zero included.  Every call that sets ``rel`` must set ``abs`` too.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _rel_without_abs(source: str) -> list[int]:
    """Line numbers of the ``approx`` calls in ``source`` that set ``rel``
    and leave ``abs`` at its default."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        keywords = {k.arg for k in node.keywords}
        if name == "approx" and "rel" in keywords and "abs" not in keywords:
            lines.append(node.lineno)
    return lines


def test_checker_flags_rel_only_calls():
    source = ("a = pytest.approx(1.0, rel=1e-3)\n"
              "b = approx(1.0, rel=1e-3, abs=0)\n"
              "c = approx(1.0, abs=1e-3)\n"
              "d = approx(2.0,\n    rel=0.1)\n")
    assert _rel_without_abs(source) == [1, 4]


def test_every_rel_tolerance_sets_abs():
    found = [f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py"))
             for line in _rel_without_abs(path.read_text())]
    assert not found, ("approx(..., rel=...) without abs= keeps the default "
                       "abs=1e-12: " + ", ".join(found))
