"""The benchmark's tracer names functions of this package by string.

``perfbench/tracing.py`` wraps each ``(module, function)`` of its ``TARGETS``
table and reads counters off the wrapped calls' arguments and results. These
tests keep those names and shapes in step with the code, so a rename fails
here instead of crashing a traced benchmark run. The tracer file is read,
never imported as a package module or modified.
"""

import importlib
import types
from pathlib import Path

from concord.domain import Combiner, VariableSpace
from concord.reasoner import (
    Reasoner,
    _canonical_levels,
    _lex_consistent_from_signs,
    _lex_greedy,
    is_consistent_hier,
    sign_matrix,
)
from conftest import row_signs, stmt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> types.ModuleType:
    mod = types.ModuleType("perfbench_tracing")
    mod.__file__ = str(TRACING)
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), mod.__dict__)
    return mod


def test_every_trace_target_resolves():
    targets = _tracing().TARGETS
    assert targets
    missing = []
    for modname, fname, _span, _counters in targets:
        module = importlib.import_module("concord." + modname)
        if not callable(getattr(module, fname, None)):
            missing.append("concord.%s.%s" % (modname, fname))
    assert missing == []


def test_traced_return_shapes():
    # sign_matrix -> (signs, strict); the tracer counts signs cells,
    # statements x variables.
    statements = (stmt((1, 0), (0, 1)), stmt((0, 0), (0, 1), strict=False))
    space = VariableSpace.binary(("x", "y"))
    signs, strict = sign_matrix(statements, space, Combiner("sum"))
    assert signs.size == 2 * 2 and strict == (True, False)
    assert [row_signs(row, 2) for row in signs.rows] == [(1, -1), (0, -1)]
    # _lex_greedy's item 2 is the node count: one variable chosen per node.
    chosen, _pending, nodes, _stalled = _lex_greedy(signs.rows)
    assert isinstance(nodes, int) and nodes == len(chosen)
    assert _lex_consistent_from_signs(Reasoner(space, Combiner("sum"), "lex"), signs.rows)
    res = is_consistent_hier(statements, space, Combiner("sum"))
    assert isinstance(res.stats.nodes, int) and isinstance(res.stats.levels_tried, int)


def test_traced_hier_cells_match_the_built_table():
    # The tracer counts statements x canonical levels for each
    # is_consistent_hier call: one row over every canonical level per
    # distinct statement, a repeated statement compiled once.
    space = VariableSpace(("x", "y", "z"), ((0, 1, 2),) * 3)
    c = Combiner("max")
    statements = (
        stmt((2, 0, 1), (0, 1, 1)),
        stmt((0, 0, 2), (1, 1, 0), strict=False),
        stmt((2, 0, 1), (0, 1, 1)),
    )
    args = (statements, space, c)
    res = is_consistent_hier(*args)
    cells = _tracing()._hier_cells(args, {}, res)
    assert cells == len(set(statements)) * len(_canonical_levels(3)) == 2 * 7
