"""No dead public surface in ``src/selprover``.

The surface is every public top-level function and class and, in a public
class, every public method or property and every public attribute its
``__init__`` sets on ``self``. A name is used when some part of the
package refers to it outside its own definition, or the benchmark in
``perfbench/`` does. A reference is an identifier, an attribute, or a string
equal to the name, since ``perfbench`` patches entry points by name; a
member is matched by name alone, whatever object it is read from.
``ALLOWED`` holds the exceptions, each with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "selprover"
BENCH = ROOT / "perfbench"

_TAPE = "tape: reference for the closed-form GRU in tests/oracles.py"
ALLOWED = {
    "autodiff.vsum": _TAPE,
    "autodiff.sigmoid": _TAPE,
    "autodiff.concat_cols": _TAPE,
    "autodiff.sum_list": _TAPE,
    "autodiff.softmax": _TAPE,
    "autodiff.cross_entropy_logits": _TAPE,
    "autodiff.finite_difference_check": "tape gradient checks; moves to "
                                        "tests/oracles.py with ROADMAP item 7",
    "evaluate.pooled_region_auc_pr": "the Countries AUC-PR protocol, which "
                                     "no command reports yet",
    "pretrain.ComplExScorer": "ROADMAP item 1: eval's baselines.csv ranks "
                              "the pretrained embeddings through it",
    "kb.Vocabulary.constant_name": "twin of predicate_name; tests read parsed "
                                   "facts back by name with it",
}


def _references(tree: ast.AST) -> Counter:
    """How often ``tree`` refers to each name."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _surface(module: str, tree: ast.Module):
    """(qualified name, name, defining node) of each public definition."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield f"{module}.{node.name}", node.name, node
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if not item.name.startswith("_"):
                yield f"{module}.{node.name}.{item.name}", item.name, item
            elif item.name == "__init__":
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                            and not sub.attr.startswith("_")):
                        yield f"{module}.{node.name}.{sub.attr}", sub.attr, sub


def _unreferenced() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    bench: Counter = Counter()
    for path in sorted(BENCH.glob("*.py")):
        bench += _references(ast.parse(path.read_text()))
    package: Counter = Counter()
    for tree in modules.values():
        package += _references(tree)
    dead = []
    for module, tree in modules.items():
        for qualified, name, node in _surface(module, tree):
            if name not in bench and package[name] <= _references(node)[name]:
                dead.append(qualified)
    return dead


def test_public_surface_has_users():
    dead = _unreferenced()
    assert [d for d in dead if d not in ALLOWED] == []
    # an entry that gained a user, or whose definition is gone, goes too
    assert sorted(set(ALLOWED) - set(dead)) == []
