"""Package layout: src/tea holds only code the public API or the CLI reaches.

A static walk over the AST of every module in the package starts at the
names in `tea.__all__` and at `cli.main` and `cli.entrypoint`, follows every
name and module attribute a reached definition mentions, and reports the
top-level functions, classes and assignments it never reaches. Test-only
references belong in `tests/`.
"""

import ast
from collections import Counter
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
    assert reached == [("transition", "transition_scores"), ("unary", "user_vectors")]


def test_training_and_evaluation_score_through_one_call():
    """train and evaluate_all each call score_user_steps from exactly one place."""
    modules = load_package(PACKAGE)
    for module, function in (("training", "train"), ("evaluation", "evaluate_all")):
        calls = [ref for ref in modules[module].references(function)
                 if ref == ("model", "score_user_steps")]
        assert len(calls) == 1, f"{module}.{function} names score_user_steps {len(calls)} times"


def test_g_head_is_one_primitive():
    """transition_scores scores through autodiff.candidate_head; the primitives of
    the composed head it replaced are gone."""
    modules = load_package(PACKAGE)
    assert ("autodiff", "candidate_head") in set(
        modules["transition"].references("transition_scores"))
    for name in ("masked_softmax", "row_sum", "AllMaskedError"):
        assert not any(name in module.defs for module in modules.values()), name


def test_training_streams_are_keyed_per_user():
    """train draws each user's negatives through data.sample_negatives (one
    array per user); the per-row stream helpers are gone from the package."""
    modules = load_package(PACKAGE)
    assert ("data", "sample_negatives") in set(modules["training"].references("train"))
    for name in ("_example_rng", "dropout", "keep_masks", "positive_target"):
        assert not any(name in module.defs for module in modules.values()), name


def test_walk_sets_come_from_one_sweep():
    """prepare_dataset builds every has-walk bit with one
    extract_time_restricted_walks call; the per-event co_interactors lives in
    tests/oracles.py, and data.py draws nothing: no seeded subsample, no
    sorted co-user list."""
    modules = load_package(PACKAGE)
    refs = list(modules["data"].references("prepare_dataset"))
    assert refs.count((None, "extract_time_restricted_walks")) == 1
    assert not any("co_interactors" in module.defs for module in modules.values())
    source = (PACKAGE / "data.py").read_text(encoding="utf-8")
    for name in ("SeedSequence", "PCG64", "insort", "choice("):
        assert name not in source, name


def _calls(node: ast.AST) -> set[str]:
    """Names of the functions and methods called anywhere under node."""
    return {sub.func.id if isinstance(sub.func, ast.Name) else sub.func.attr
            for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and isinstance(sub.func, (ast.Name, ast.Attribute))}


def test_prepare_runs_on_arrays():
    """data.py imports no bisect and defines no per-event class; the parse
    loop appends ids, stamps and ratings to lists and builds no object per
    event; every np.load and write_array refuses pickles."""
    source = (PACKAGE / "data.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    assert "bisect" not in source
    assert "Interaction" not in load_package(PACKAGE)["data"].defs
    parse = load_package(PACKAGE)["data"].defs["load_interactions"][0]
    loop = next(node for node in ast.walk(parse) if isinstance(node, ast.For))
    assert _calls(loop) <= {"enumerate", "rstrip", "startswith", "split", "len", "int",
                            "float", "ParseError", "append", "setdefault"}, _calls(loop)
    loads = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("load", "write_array", "savez")
             and ast.unparse(node.func.value) in ("np", "np.lib.format")]
    assert {node.func.attr for node in loads} == {"load", "write_array"}
    for node in loads:
        flags = {kw.arg: ast.unparse(kw.value) for kw in node.keywords}
        assert flags.get("allow_pickle") == "False", ast.unparse(node)


def test_the_head_gathers_its_own_candidates():
    """score_user_steps gathers no candidate embeddings: the head reads them
    from the item table piece by piece. One row budget, EVAL_ROWS, sizes the
    evaluation calls; the per-user and per-cell caps are gone."""
    modules = load_package(PACKAGE)
    assert ("autodiff", "gather_rows") not in set(
        modules["model"].references("score_user_steps"))
    assert "EVAL_ROWS" in modules["evaluation"].defs
    for name in ("EVAL_CHUNK", "EVAL_CELLS"):
        assert not any(name in module.defs for module in modules.values()), name


def test_backward_writes_into_the_gradient_vector():
    """train hands autodiff.backward its views of the flat gradient vector;
    no module defines a Gradients map, and train calls no per-tensor `.of`."""
    modules = load_package(PACKAGE)
    assert not any("Gradients" in module.defs for module in modules.values())
    train = modules["training"].defs["train"][0]
    assert "of" not in _calls(train)
    calls = [ast.unparse(sub) for sub in ast.walk(train) if isinstance(sub, ast.Call)
             and isinstance(sub.func, ast.Name) and sub.func.id == "backward"]
    assert calls == ["backward(loss, tape, grad_views)"]
    assert modules["training"].names["backward"] == ("autodiff", "backward")


def test_the_prepared_corpus_is_its_arrays(tmp_path, monkeypatch):
    """The package scores from the snapshot's arrays: no module defines a
    per-user context, and outside data.py none names UserRecord, reads
    `.users` or `.neighbors`, or calls a `.of`; SocialGraph defines no `of`.
    prepare_dataset, save and load construct no UserRecord and no neighbor
    lists; only the `users` and `neighbors` views, on first access, build
    them."""
    from tea import data

    from corpus import cycle_corpus, write_corpus

    modules = load_package(PACKAGE)
    for name in ("UserContext", "user_context"):
        assert not any(name in module.defs for module in modules.values()), name
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "data.py":
            continue
        source = path.read_text(encoding="utf-8")
        assert "UserRecord" not in source, path.name
        tree = ast.parse(source)
        reads = [sub for sub in ast.walk(tree)
                 if isinstance(sub, ast.Attribute) and sub.attr in ("users", "neighbors")]
        assert not reads, (path.name, [ast.unparse(sub) for sub in reads])
        assert "of" not in _calls(tree), path.name
    graph = modules["data"].defs["SocialGraph"][0]
    assert "of" not in {node.name for node in graph.body if isinstance(node, ast.FunctionDef)}

    built = []

    class Counted(data.UserRecord):
        def __init__(self, *args, **kwargs) -> None:
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(data, "UserRecord", Counted)
    rows, pairs = cycle_corpus(n_users=6, n_items=12, length=8, stride=2)
    prepared = data.prepare_dataset(*write_corpus(str(tmp_path / "corpus"), rows, pairs),
                                    min_actions=1, l_s=8, l_n=3)
    prepared.save(str(tmp_path / "snap"))
    loaded = data.PreparedDataset.load(str(tmp_path / "snap"))
    assert built == []
    assert "neighbors" not in vars(prepared.social) and "neighbors" not in vars(loaded.social)
    assert loaded.users == prepared.users and len(built) == 2 * prepared.n_users


def test_the_parameter_layout_is_written_once():
    """params.py states each tensor's shape once, in one constructor: every
    name trainable() yields is a string literal in exactly one place in the
    package (a GRU's tensors through their prefix and field), params.py
    defines no per-kind init helper, and load_checkpoint reads into zeroed
    tensors without drawing an init it would overwrite."""
    from tea.params import VARIANTS, init_params

    literals = Counter(sub.value for path in sorted(PACKAGE.glob("*.py"))
                       for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(sub, ast.Constant) and isinstance(sub.value, str))
    names = {name for variant in VARIANTS
             for name, _ in init_params(2, 3, 2, 2, variant, seed=0).trainable()}
    for name in sorted(names):
        parts = [name] if name in literals else name.rsplit(".", 1)
        assert all(literals[part] == 1 for part in parts), (name, parts)
    params = load_package(PACKAGE)["params"]
    for helper in ("_weight", "_embedding", "_gru"):
        assert helper not in params.defs, helper
    assert "init_params" not in _calls(params.defs["load_checkpoint"][0])
