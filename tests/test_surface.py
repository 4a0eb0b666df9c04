"""Every function, class and method that ``src/qsk`` defines is used by ``src/qsk``.

A name counts as used when it is read (a bare name or an attribute) anywhere
in the package outside its own definition; a name read only by tests, or
only by its own recursion, is reported.  The check goes by name, not by
binding, so a method shares its uses with every attribute of the same
name: it is coarse, but it catches test-only code growing back in ``src/``.
Dunder names are exempt, since Python calls them.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qsk"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node: ast.AST) -> Counter:
    """Names read inside ``node``: bare names and attribute names."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
    return names


def unused_definitions(src: Path = SRC) -> list[str]:
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads[name] - _reads(node)[name] <= 0:
                unused.append(f"{module}:{node.lineno}:{name}")
    return unused


def test_every_definition_in_src_is_used_in_src():
    assert unused_definitions() == []


def test_a_definition_used_only_by_itself_is_reported(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Box:\n    def size(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n"
    )
    assert unused_definitions(tmp_path) == ["m.py:5:recursive", "m.py:9:Box", "m.py:10:size"]
