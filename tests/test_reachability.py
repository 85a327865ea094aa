"""Every definition in `src/curvecones` is reachable from what runs it.

The roots are `cli.main`, the module-level code of every engine module,
and every engine name the benchmark under `perfbench/` uses: the functions
its tracer wraps (`metrics.LAYERS`, `tracer.TARGETS`) and the names that
`perfbench/kernels.py` calls.  A function or class that none of these
reaches is code that only tests or demos run, and belongs with them.
`tracer_only` lists the definitions that the benchmark's roots alone keep
reached.

The walk matches by name, not by binding, so it over-approximates: a
reached body that mentions a name reaches every definition with that name,
whatever the name is bound to there.  A local variable, keyword or
attribute with the same name as a method therefore hides that method from
this test (a local `coords` in `pencil.build_pencil`, for example, once
kept an unused `CurveContext.coords` looking reached).  A name this test
reports is dead; a name it passes may still be.

An engine module must also read every name it imports.  The same name
matching applies: an import counts as read when its name appears anywhere
in the module, as a variable or as an attribute.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "curvecones")
BENCH = os.path.join(ROOT, "perfbench")


def _names(nodes) -> set[str]:
    """Every identifier and attribute name referenced inside `nodes`."""
    found: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def modules() -> dict[str, ast.Module]:
    """The parsed source of every engine module, by module name."""
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                trees[fname[:-3]] = ast.parse(fh.read())
    return trees


def definitions() -> tuple[dict[str, tuple[str, set[str]]], set[str]]:
    """Top-level functions, classes and methods of every engine module, as
    qualified name -> (short name, names its body references), and the
    names that module-level code references.  Dunder methods run with their
    class, so they count as part of it."""
    defs: dict[str, tuple[str, set[str]]] = {}
    module_names: set[str] = set()
    for mod, tree in modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{mod}.{node.name}"] = (node.name, _names([node]))
            elif isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.decorator_list, *node.keywords]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) \
                            and not _is_dunder(item.name):
                        defs[f"{mod}.{node.name}.{item.name}"] = (
                            item.name, _names([item]))
                    else:
                        own.append(item)
                defs[f"{mod}.{node.name}"] = (node.name, _names(own))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                module_names |= _names([node])
    return defs, module_names


def bench_roots() -> tuple[set[str], set[str]]:
    """Qualified names the benchmark's tracer wraps, and the names that
    `perfbench/kernels.py` references."""
    sys.path.insert(0, BENCH)
    try:
        import tracer
    finally:
        sys.path.remove(BENCH)
    with open(os.path.join(BENCH, "kernels.py")) as fh:
        kernel_names = _names([ast.parse(fh.read())])
    return set(tracer.TARGETS), kernel_names


def unreached(bench: bool = True) -> list[str]:
    """The definitions the walk does not reach; without `bench`, the walk
    starts from `cli.main` and module-level code alone."""
    defs, module_names = definitions()
    by_short: dict[str, list[str]] = {}
    for qual, (short, _) in defs.items():
        by_short.setdefault(short, []).append(qual)
    targets, kernel_names = bench_roots() if bench else (set(), set())
    reached: set[str] = set()
    todo = ["cli.main", *targets]
    for name in module_names | kernel_names:
        todo += by_short.get(name, [])
    while todo:
        qual = todo.pop()
        if qual in reached or qual not in defs:
            continue
        reached.add(qual)
        todo += [q for n in defs[qual][1] for q in by_short.get(n, [])]
    return sorted(set(defs) - reached)


def tracer_only() -> list[str]:
    """The definitions that only the benchmark's roots reach: nothing the
    command line runs calls them."""
    return sorted(set(unreached(bench=False)) - set(unreached()))


def test_every_definition_is_reached():
    dead = unreached()
    assert not dead, "defined in src/curvecones but reached neither from " \
        "cli.main nor from perfbench: " + ", ".join(dead)


def test_bench_roots_only_add_to_the_command_line_walk():
    # so `tracer_only` is what the benchmark's roots add, nothing else
    assert set(unreached()) <= set(unreached(bench=False))


# the definitions that only the benchmark's tracer keeps reached: each
# leaves `src/` when the tracer stops wrapping it (ROADMAP item 1b), and no
# new one joins them.  The walk matches names, so an engine local must not
# share the name of a definition the engine does not call.
TRACER_ONLY = [
    "algebra.poly_pow_mod", "canring.CurveContext.in_ideal",
    "curve.on_curve",
    "cone.CubicPolar", "cone.oracle_agreement", "cone.polar_cubic",
    "cone.secant_criterion", "cone.split_fiber", "cone.verify_cone",
    "net.fw_oracle", "net.oracle_value", "net.oracle_witness",
    "net.polar_oracle",
    "pencil.CupGram", "pencil.PencilData", "pencil.build_pencil",
    "pencil.cup_gram",
]


def test_tracer_only_definitions_are_pinned():
    assert tracer_only() == sorted(TRACER_ONLY)


def unread_imports() -> list[str]:
    """module.name for every name an engine module imports but never
    reads; `from __future__` imports are directives, not names."""
    unread = []
    for mod, tree in modules().items():
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        read = _names([tree])   # an import statement holds no Name
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{mod}.{name}")
    return sorted(unread)


def test_every_import_is_read():
    unread = unread_imports()
    assert not unread, "imported in src/curvecones but never read: " \
        + ", ".join(unread)
