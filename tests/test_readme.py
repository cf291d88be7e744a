import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_expression_values():
    """Run README's one python block and return, in order, the value of each
    statement that is a bare expression (the lines whose comments state a value)."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return values


def test_readme_library_example_gives_the_values_its_comments_state():
    (predicted, numerical, min_phases, design_shape, deficit, span_rank, orbit_rank,
     displaced_rank, elements_shape, counts_shape, fidelity) = readme_expression_values()
    assert predicted == numerical == 32
    assert min_phases == 2
    assert design_shape == (12, 9)
    assert deficit < 1e-15
    assert span_rank == 5
    assert orbit_rank == 9
    assert displaced_rank == 4
    assert elements_shape == (21, 3, 3)
    assert counts_shape == (3, 7)
    assert fidelity >= 0.99
