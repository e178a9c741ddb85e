"""Layout of the library: every public name serves the library itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "walkspec"

# public names kept for callers outside the library
DOCUMENTED = {"build_U"}


def test_every_public_name_is_read_by_the_library():
    """Each public top-level function and class of src/walkspec is read
    somewhere in src/walkspec, as a name or an attribute, so none of them is
    kept only for the tests. Methods are out of scope, since names like
    `row` also occur as variables."""
    public, read = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        public.update(node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(public - read - DOCUMENTED) == []
