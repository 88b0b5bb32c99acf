"""Run configuration: every field is read by the program."""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from selprover import config
from selprover.config import ConfigError, load_config

SRC = Path(config.__file__).resolve().parent


class _Reads(ast.NodeVisitor):
    """Attribute names, keyword names and string constants in a module,
    skipping ``RunConfig.validate`` (checking a field is not reading it)."""

    def __init__(self) -> None:
        self.names: set[str] = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in node.body:
            if not (node.name == "RunConfig"
                    and isinstance(child, ast.FunctionDef)
                    and child.name == "validate"):
                self.visit(child)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg:
            self.names.add(node.arg)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self.names.add(node.value)


def test_every_field_is_read():
    reads = _Reads()
    for path in sorted(SRC.glob("*.py")):
        reads.visit(ast.parse(path.read_text()))
    unread = [f.name for f in dataclasses.fields(config.RunConfig)
              if f.name not in reads.names]
    assert unread == []


@pytest.mark.parametrize("key, value", [
    ("embedding_dim", "abc"),       # unparsable string
    ("embedding_dim", "4.5"),
    ("embedding_dim", 4.5),         # non-integral number
    ("iterations", True),           # bool in an int field
    ("iterations", None),
    ("min_score", "high"),
    ("pretrain_lr", "nan"),         # passes every range check
    ("min_score", False),
    ("ep_coefficients", [4, 2.5, 2]),
    ("ep_coefficients", 4),
    ("baseline_full_kb", 2),        # numbers other than 0/1 in a bool field
    ("baseline_full_kb", 0.5),
    ("baseline_full_kb", 1.0),
    ("baseline_full_kb", -1),
    ("baseline_full_kb", None),
    ("baseline_full_kb", "maybe"),
    ("baseline_full_kb", [True]),
    ("max_depth", 3),               # beyond the batched scorer's depth 2
    ("max_depth", "3"),
    ("max_depth", 0),
    ("seed", -1),                   # numpy's generators reject it later
    ("pretrain_weight_decay", -1.0),  # the gradient would ascend the decay
    ("templates_implies", -1),      # acts as 0 but hashes to another run
    ("templates_inverse", -1),
    ("templates_chain", -3),
    ("split_ratios", [1.2, -0.2, 0.0]),  # sums to 1
    ("split_ratios", "1.2,-0.2,0.0"),
])
def test_bad_values_name_their_key(tmp_path, key, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=key):
        load_config(str(path))
    if isinstance(value, str):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: value})


def test_numbers_coerce_without_loss():
    cfg = load_config(None, {"embedding_dim": 6.0, "iterations": "7",
                             "min_score": 0, "ep_coefficients": "4, 2 3"})
    assert (cfg.embedding_dim, cfg.iterations) == (6, 7)
    assert type(cfg.embedding_dim) is int
    assert cfg.min_score == 0.0 and type(cfg.min_score) is float
    assert cfg.ep_coefficients == (4, 2, 3)
    # the list form a JSON config takes, as --set passes it
    listed = load_config(None, {"ep_coefficients": "[4, 2, 3]"})
    assert listed.ep_coefficients == (4, 2, 3)


@pytest.mark.parametrize("value, want", [
    (True, True), (False, False), (1, True), (0, False),
    ("true", True), ("Yes", True), (" on ", True), ("1", True),
    ("false", False), ("NO", False), ("off", False), ("0", False),
])
def test_bool_values(value, want):
    cfg = load_config(None, {"baseline_full_kb": value})
    assert cfg.baseline_full_kb is want
