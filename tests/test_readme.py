"""The README's library tour runs, and each expression gives the value its comment names."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    scope, values = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        # A bare tuple such as `M.dim(), M.depth()` is commented without parentheses.
        shown = repr(value)[1:-1] if isinstance(stmt.value, ast.Tuple) else repr(value)
        comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
        assert comment == shown or comment.startswith(shown + ","), (comment, shown)
        values.append(value)
    assert values == [32003, (2, 1), (1, 2, 1), (0, 1, 1), 2]
    assert type(values[0]) is int
