"""Run configuration: every field is read by the program."""

import ast
import dataclasses
from pathlib import Path

from selprover import config

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
