"""The public surface: every name in ``hochcat.__all__`` is engine code.

A public name must be read by some package module other than ``__init__``
(counted on the syntax tree, as a name or an attribute, so strings and
comments never count), or be named in code in README's "Library" section.
A private helper (a function, method or class named ``_x``, dunders
aside) must be read somewhere in the package, counted the same way.  A
module-level ALL_CAPS constant must be read in the package, in the tests,
or in code in README's "Library" section.
"""

import ast
import os
import re

import hochcat

SRC = os.path.dirname(os.path.abspath(hochcat.__file__))
README = os.path.join(os.path.dirname(os.path.dirname(SRC)), "README.md")
TESTS = os.path.dirname(os.path.abspath(__file__))


def module_trees(directory=SRC):
    """``(file name, syntax tree)`` of every module in ``directory``."""
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            with open(os.path.join(directory, fname), encoding="utf-8") as fh:
                yield fname, ast.parse(fh.read())


def names_read(tree) -> set:
    """Every name and attribute read in ``tree``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def names_read_by_the_engine() -> set:
    return set().union(*(names_read(tree) for fname, tree in module_trees()
                         if fname != "__init__.py"))


def names_documented_as_library() -> set:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = re.search(r"^## Library\n(.*?)(?=^## |\Z)", text, re.S | re.M).group(1)
    code = re.findall(r"```.*?```|`[^`\n]+`", section, re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_every_public_name_is_used_or_documented():
    allowed = names_read_by_the_engine() | names_documented_as_library()
    assert sorted(set(hochcat.__all__) - allowed) == []
    assert all(hasattr(hochcat, name) for name in hochcat.__all__)


def test_every_private_helper_is_read():
    defined, read = [], set()
    for fname, tree in module_trees():
        read |= names_read(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.append((fname, node.name))
    assert [(fname, name) for fname, name in defined if name not in read] == []


def test_every_constant_is_read():
    read = names_documented_as_library()
    for directory in (SRC, TESTS):
        read = read.union(*(names_read(tree) for _fname, tree in module_trees(directory)))
    unread = []
    for fname, tree in module_trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            unread += [(fname, t.id) for t in targets
                       if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
                       and t.id not in read]
    assert unread == []
