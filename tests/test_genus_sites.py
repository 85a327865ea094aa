"""Every comparison of the genus with an integer left in the engine.

Each one is code that a further genus has to generalize or to turn down,
so the sites are listed here with the reason they stay, and a new one
fails until it is listed.  What is true at a genus belongs in its
`curve.MODELS` entry instead.
"""

import ast
import pathlib

import curvecones

SITES = {
    # at g = 4 no section vanishes doubly at two general points, so the
    # pair comes from the points whose tangent line meets that of a panel
    # point, one resultant on the ruling sweep
    ("cone.py", "contained_double_secant.draw", "ctx.g == 4"),
    # the point source of the genus-4 model
    ("curve.py", "RulingChart.__init__", "curve.genus != 4"),
    # the point source of the genus-5 model
    ("curve.py", "hyperplane_section", "curve.genus != 5"),
}


def _genus(node):
    return isinstance(node, ast.Name) and node.id == "g" \
        or isinstance(node, ast.Attribute) and node.attr in ("g", "genus")


def _integer(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


def genus_comparisons():
    """(file, enclosing definition, source) of each comparison of g, .g or
    .genus with an integer in the package."""
    hits = set()

    def visit(node, scope, path, text):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Compare):
                sides = [child.left, *child.comparators]
                if any(map(_genus, sides)) and any(map(_integer, sides)):
                    hits.add((path.name, scope or "<module>",
                              ast.get_source_segment(text, child)))
            visit(child, inner, path, text)

    for path in sorted(pathlib.Path(curvecones.__file__).parent.glob("*.py")):
        text = path.read_text()
        visit(ast.parse(text), "", path, text)
    return hits


def test_only_the_listed_genus_comparisons_are_left():
    assert genus_comparisons() == SITES
