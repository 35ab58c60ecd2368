"""The shipped package holds what the command line runs, plus the graph
constructors that build its input; references that only the tests use
live in tests/oracles.py."""

import ast
import pathlib

import sepgamma
from sepgamma.errors import BOUNDS

PACKAGE = pathlib.Path(sepgamma.__file__).parent
ORACLES = pathlib.Path(__file__).with_name("oracles.py")
CONSTRUCTORS = ("empty_graph", "path_graph", "cycle_graph", "star_graph",
                "complete_graph", "complete_bipartite")
EXEMPT_METHODS = ("Graph.make",)  # the validating constructor
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
               ast.Assign, ast.AnnAssign)


def _defined_names(node) -> list:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign):
        return [node.target.id] if isinstance(node.target, ast.Name) else []
    return [node.name]


def _package_definitions() -> tuple:
    """({module: {name: top-level node}}, {module: [other top-level
    statements]}, {module: {alias: (module, name) or module}}) over every
    module of the package but __init__, which only re-exports."""
    defs, loose, aliases = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem
        defs[module], loose[module], aliases[module] = {}, [], {}
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                for name in _defined_names(node):
                    defs[module][name] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                loose[module].append(node)
        for node in ast.walk(tree):  # function-level imports count too
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    aliases[module][a.asname or a.name] = (
                        a.name if node.module is None else (node.module, a.name))
    return defs, loose, aliases


def _references(module: str, node, defs: dict, aliases: dict):
    """(module, name) of every package definition that `node` names.  The
    name of a field declared in a class body names nothing."""
    fields = {id(sub.target) for cls in ast.walk(node)
              if isinstance(cls, ast.ClassDef)
              for sub in cls.body if isinstance(sub, ast.AnnAssign)}
    for sub in ast.walk(node):
        if id(sub) in fields:
            continue
        if isinstance(sub, ast.Name):
            if sub.id in defs[module]:
                yield module, sub.id
            elif isinstance(aliases[module].get(sub.id), tuple):
                yield aliases[module][sub.id]
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and isinstance(aliases[module].get(sub.value.id), str)):
            yield aliases[module][sub.value.id], sub.attr


def test_every_definition_is_reached_from_the_cli():
    defs, loose, aliases = _package_definitions()
    todo = [("cli", "main")] + [("graphs", name) for name in CONSTRUCTORS]
    todo += [(module, node) for module, nodes in loose.items() for node in nodes]
    reached = set()
    while todo:
        module, item = todo.pop()
        if isinstance(item, str):
            if (module, item) in reached or item not in defs.get(module, {}):
                continue
            reached.add((module, item))
            item = defs[module][item]
        todo.extend(_references(module, item, defs, aliases))
    unreached = [f"{module}.{name} ({node.end_lineno - node.lineno + 1} lines)"
                 for module in defs for name, node in defs[module].items()
                 if (module, name) not in reached]
    assert unreached == []


def _package_trees() -> list:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))]


def _attributes_read(trees) -> set:
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_method_is_read_in_the_package():
    """A method of a shipped class that nothing in the package reads as an
    attribute serves only the tests.  Methods are matched by name, not
    by class."""
    trees = _package_trees()
    read = _attributes_read(trees)
    unread = [f"{cls.name}.{fn.name}"
              for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (fn.name.startswith("__") and fn.name.endswith("__"))
              and fn.name not in read
              and f"{cls.name}.{fn.name}" not in EXEMPT_METHODS]
    assert unread == []


def test_every_field_is_read_in_the_package():
    """A field declared in the body of a shipped class (a dataclass or
    NamedTuple field) that nothing in the package reads as an attribute
    serves only the tests.  Fields are matched by name, not by class."""
    trees = _package_trees()
    read = _attributes_read(trees)
    unread = [f"{cls.name}.{field.target.id}"
              for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              for field in cls.body
              if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
              and field.target.id not in read]
    assert unread == []


def test_references_import_no_private_code():
    """The test references stand apart from the code they check: they
    import no underscore name from the package."""
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.split(".")[0] == "sepgamma"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_every_bound_names_a_guard():
    """Each --bound-override name in errors.BOUNDS is a literal argument of
    some call in the package outside the table's module, the guard that
    reads it: no override outlives the check it moves."""
    named = {arg.value for path in sorted(PACKAGE.glob("*.py")) if path.stem != "errors"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             for arg in node.args if isinstance(arg, ast.Constant)}
    assert [name for name in BOUNDS if name not in named] == []
