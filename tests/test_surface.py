"""No dead public surface in ``src/selprover``.

A public top-level function or class is used when another part of the
package refers to it outside its own definition, or the benchmark in
``perfbench/`` does. A reference is an identifier, an attribute, or a string
equal to the name, since ``perfbench`` patches entry points by name.
``ALLOWED`` holds the exceptions, each with the reason it stays.
"""

import ast
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
    "em.load_checkpoint": "reads back what save_checkpoint writes, which "
                          "pins the checkpoint format",
    "evaluate.pooled_region_auc_pr": "the Countries AUC-PR protocol, which "
                                     "no command reports yet",
    "pretrain.ComplExScorer": "ROADMAP item 1: eval's baselines.csv ranks "
                              "the pretrained embeddings through it",
}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``tree`` refers to, leaving out the subtree ``skip``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _unreferenced() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    bench: set[str] = set()
    for path in sorted(BENCH.glob("*.py")):
        bench |= _references(ast.parse(path.read_text()))
    dead = []
    for name, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in bench):
                continue
            if not any(node.name in _references(other, node if other is tree
                                                else None)
                       for other in modules.values()):
                dead.append(f"{name}.{node.name}")
    return dead


def test_public_surface_has_users():
    dead = _unreferenced()
    assert [d for d in dead if d not in ALLOWED] == []
    # an entry that gained a user, or whose definition is gone, goes too
    assert sorted(set(ALLOWED) - set(dead)) == []
