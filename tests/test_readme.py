"""README's library quick tour runs as written and gives the values its comments state."""
import ast
from pathlib import Path

import numpy as np

from chronoflow import RemainderReport


def _quick_tour() -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


# the called name of each top-level expression, the comment it carries and its check
EXPECTED = {
    "flow_map": ("# ~ (0, 1)", lambda v: np.allclose(v, [0.0, 1.0], rtol=0.0, atol=1e-9)),
    "lie_bracket": ("# (0, 0, 1)", lambda v: np.array_equal(v, [0.0, 0.0, 1.0])),
    "flow_bracket": ("# ~ (0, 0, 0.04)",
                     lambda v: np.allclose(v, [0.0, 0.0, 0.04], rtol=0.0, atol=1e-9)),
    "remainder_eval": ("", lambda v: isinstance(v, RemainderReport)),
    "bracket_rank": ("# 3", lambda v: v == 3),
    "plan_reach": ("", lambda v: v.residual <= 1e-3),
}


def test_readme_quick_tour_runs_and_gives_its_commented_values():
    tour = _quick_tour()
    lines = tour.splitlines()
    namespace: dict = {}
    shown = {}  # called name -> (value, the expression's last line)
    for node in ast.parse(tour).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            shown[ast.unparse(node.value).split("(", 1)[0]] = value, lines[node.end_lineno - 1]
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert shown.keys() == EXPECTED.keys()
    for name, (comment, check) in EXPECTED.items():
        value, line = shown[name]
        assert line.endswith(comment), (name, line)
        assert check(value), (name, value)
