"""The public surface: every name in ``hochcat.__all__`` is engine code.

A public name must be read by some package module other than ``__init__``
(counted on the syntax tree, as a name or an attribute, so strings and
comments never count), or be named in code in README's "Library" section;
the names of README's Library table are exactly ``hochcat.__all__``.
A private helper (a function, method or class named ``_x``, dunders
aside) must be read somewhere in the package, counted the same way.  A
module-level ALL_CAPS constant must be read in the package, in the tests,
or in code in README's "Library" section.  Every name a module imports
must be read in that module (``__init__`` re-exports its imports through
``__all__``, which counts as a read there).
Every public function that takes a degree refuses a negative one, and no
matrix builder takes a field: structural matrices are integer matrices,
and a field enters only at an elimination and at an identity's verdict.
"""

import ast
import inspect
import os
import re

import pytest

import hochcat
from hochcat.fields import FieldSpec
from hochcat.hochschild import relative_differential_matrix
from hochcat.matrix import Reading

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


def library_section() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.search(r"^## Library\n(.*?)(?=^## |\Z)", text, re.S | re.M).group(1)


def names_documented_as_library() -> set:
    code = re.findall(r"```.*?```|`[^`\n]+`", library_section(), re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def names_in_the_library_table() -> list:
    """The names column of README's table of ``hochcat.__all__``, row by row."""
    rows = re.findall(r"^\| `\w+` \| (.*) \|$", library_section(), re.M)
    return [name for row in rows for name in re.findall(r"`(\w+)`", row)]


def test_every_public_name_is_used_or_documented():
    allowed = names_read_by_the_engine() | names_documented_as_library()
    assert sorted(set(hochcat.__all__) - allowed) == []
    assert all(hasattr(hochcat, name) for name in hochcat.__all__)


def test_the_library_table_is_the_public_surface():
    # both ways: a public name with no row, a row naming no public name
    listed = names_in_the_library_table()
    assert len(listed) == len(set(listed))
    assert sorted(set(hochcat.__all__) - set(listed)) == []
    assert sorted(set(listed) - set(hochcat.__all__)) == []


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


def test_every_import_is_read():
    unread = []
    for fname, tree in module_trees():
        read = names_read(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unread += [(fname, name) for name in bound if name not in read]
    assert unread == []


def private_names_read_by(module: str, fname: str) -> list:
    """The private functions and classes of ``module`` that module ``fname`` imports or reads."""
    trees = dict(module_trees())
    private = {node.name for node in ast.walk(trees[f"{module}.py"])
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    tree = trees[fname]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == module
                for alias in node.names}
    return sorted(private & (imported | names_read(tree)))


def test_comparison_reads_no_private_nerve_name_but_its_chains():
    # the skeleton, its retraction and its check are the nerve's own business:
    # comparison walks F^ad's chains by prefix (to read T) and ranks it
    # through the public route
    assert private_names_read_by("nerve", "comparison.py") == ["_blocks"]


def test_derivations_reads_no_private_nerve_name():
    # the characters come through the public cocycle route, whichever
    # complex it eliminates
    assert private_names_read_by("nerve", "derivations.py") == []


def test_comparison_reads_no_private_hochschild_name_but_the_relative_index():
    # the differentials and the homotopy are the complex's own business:
    # comparison renumbers T's reads through the relative basis index
    assert private_names_read_by("hochschild", "comparison.py") == ["_slice"]


def test_derivations_reads_no_private_hochschild_name():
    # Theorem B's relative differential comes through the public route
    assert private_names_read_by("hochschild", "derivations.py") == []


# --- degrees ---------------------------------------------------------------------

def parameters(name: str) -> set:
    return set(inspect.signature(getattr(hochcat, name)).parameters)


def takes_a_degree() -> set:
    """The public functions with a parameter ``m`` or ``max_m``."""
    return {name for name in hochcat.__all__
            if inspect.isfunction(getattr(hochcat, name)) and {"m", "max_m"} & parameters(name)}


def _at_degree(fn, cat, field):
    """A call of ``fn`` at degree m, read off its signature: ``fn(cat, field, m)``
    when it takes a field, ``fn(cat, m)`` otherwise."""
    if "field" in inspect.signature(fn).parameters:
        return lambda m: fn(cat, field, m)
    return lambda m: fn(cat, m)


def _degree_calls() -> dict:
    """name -> a call of that function at degree m, on the order-two group,
    or on its F^ad for the functions of the nerve."""
    cat = hochcat.builtin("c2")
    fad = hochcat.adjoint_category(cat)
    field = FieldSpec(2)
    on_fad = {"simplicial_coboundary_matrix", "simplicial_cohomology_dims",
              "simplicial_cocycle_space"}
    calls = {name: _at_degree(getattr(hochcat, name), fad if name in on_fad else cat, field)
             for name in takes_a_degree()}
    calls["relative_differential_matrix"] = _at_degree(relative_differential_matrix, cat, field)
    return calls


DEGREE_CALLS = _degree_calls()


def test_every_public_function_with_a_degree_is_covered():
    assert sorted(takes_a_degree() - set(DEGREE_CALLS)) == []


@pytest.mark.parametrize("name", sorted(DEGREE_CALLS))
def test_a_negative_degree_is_refused(name):
    DEGREE_CALLS[name](0)
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        DEGREE_CALLS[name](-1)


def test_no_matrix_builder_takes_a_field():
    # a public ``*_matrix`` function of any module, and ``Reading.matrix``
    builders = [node for _fname, tree in module_trees() for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.endswith("_matrix")
                and not node.name.startswith("_")]
    assert len(builders) >= 5
    taking_a_field = [node.name for node in builders
                      if "field" in {arg.arg for arg in node.args.args + node.args.kwonlyargs}]
    assert taking_a_field == []
    assert "field" not in inspect.signature(Reading.matrix).parameters
