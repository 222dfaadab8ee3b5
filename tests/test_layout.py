"""Package layout: src/tea holds only code the public API or the CLI reaches.

A static walk over the AST of every module in the package starts at the
names in `tea.__all__` and at `cli.main` and `cli.entrypoint`, follows every
name and module attribute a reached definition mentions, and reports the
top-level functions, classes and assignments it never reaches. Test-only
references belong in `tests/`.
"""

import ast
from pathlib import Path

import tea

PACKAGE = Path(tea.__file__).parent
ROOTS = [("cli", "main"), ("cli", "entrypoint")]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Module:
    def __init__(self, tree: ast.Module) -> None:
        self.defs: dict[str, list[ast.AST]] = {}
        self.modules: dict[str, str] = {}                # alias -> module
        self.names: dict[str, tuple[str, str]] = {}      # alias -> (module, name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            self.defs.setdefault(leaf.id, []).append(node)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        self.modules[bound] = alias.name
                    else:
                        self.names[bound] = (node.module, alias.name)

    def references(self, name: str):
        """(module, name) pairs the definitions of `name` mention."""
        for node in self.defs.get(name, []):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in self.names:
                    yield self.names[sub.id]
                elif isinstance(sub, ast.Name) and sub.id in self.defs:
                    yield None, sub.id
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in self.modules):
                    yield self.modules[sub.value.id], sub.attr


def load_package(root: Path) -> dict[str, _Module]:
    return {path.stem: _Module(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in sorted(root.glob("*.py"))}


def unreachable(root: Path) -> list[str]:
    """Top-level definitions in the package at `root` that no root reaches."""
    modules = load_package(root)
    init = modules["__init__"]
    exported = ast.literal_eval(init.defs["__all__"][0].value)
    todo = [init.names.get(name, ("__init__", name)) for name in exported] + ROOTS
    seen: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        if key in seen or key[0] not in modules:
            continue
        seen.add(key)
        mod, name = key
        if name in modules[mod].names:
            todo.append(modules[mod].names[name])
        for ref_mod, ref_name in modules[mod].references(name):
            todo.append((ref_mod or mod, ref_name))
    return sorted(f"{mod}.{name}" for mod, module in modules.items()
                  for name in module.defs
                  if not _is_dunder(name) and (mod, name) not in seen)


def test_every_top_level_definition_is_reachable():
    dead = unreachable(PACKAGE)
    assert dead == [], ("unreachable from tea.__all__, cli.main and cli.entrypoint "
                        f"(move test-only code to tests/): {dead}")


def test_score_user_steps_reaches_the_potentials_through_their_scorers():
    model = load_package(PACKAGE)["model"]
    reached = sorted(ref for ref in model.references("score_user_steps")
                     if ref[0] in ("transition", "unary"))
    assert reached == [("transition", "transition_scores"), ("unary", "unary_scores")]


def test_training_and_evaluation_score_through_one_call():
    """train and evaluate_all each call score_user_steps from exactly one place."""
    modules = load_package(PACKAGE)
    for module, function in (("training", "train"), ("evaluation", "evaluate_all")):
        calls = [ref for ref in modules[module].references(function)
                 if ref == ("model", "score_user_steps")]
        assert len(calls) == 1, f"{module}.{function} names score_user_steps {len(calls)} times"
