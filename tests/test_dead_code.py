"""Every module-level function and class of the package, and every method and
property of its classes, has a caller in the package or the benchmark, or is
kept on purpose with a stated reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names no code in src/ or bench/ calls, each kept for what it states; a
# method or property is named Class.name.
KEPT = {
    "v_of_aw": "inverse of the a(v, w) bijection, a definition of the paper",
    "epsilon_k_flag": "the paper's epsilon_k on the flag side",
    "epsilon_k_point": "the paper's epsilon_k on the quiver side",
    "flag_bundle_from_json": "reads the file that verify --dump-bundles writes",
    "flag_dim": "dimension of Ginzburg's flag variety",
    "stable_closure": "the B-closure of im i that defines stability",
    "suite_maffei_acceptance": "the acceptance harness of criterion 3",
}


def _modules(pattern):
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(ROOT.glob(pattern))]


def _referenced(trees) -> set[str]:
    """Names read as a Name, an Attribute or an import alias."""
    names = set()
    for path, tree in trees:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _methods(trees) -> dict[str, str]:
    """The non-dunder methods and properties of every class, as
    Class.name -> file."""
    out = {}
    for path, tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    out[f"{cls.name}.{node.name}"] = path.name
    return out


def test_no_unreferenced_methods():
    src = _modules("src/geocrystal/*.py")
    referenced = _referenced(src + _modules("bench/*.py"))
    unreferenced = {
        name: where
        for name, where in _methods(src).items()
        if name.split(".")[1] not in referenced
    }
    assert sorted(set(unreferenced) - set(KEPT)) == [], unreferenced


def test_no_unreferenced_definitions():
    src = _modules("src/geocrystal/*.py")
    defined = {
        node.name: path.name
        for path, tree in src
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    referenced = _referenced(src + _modules("bench/*.py"))
    unreferenced = {name: where for name, where in defined.items() if name not in referenced}
    assert sorted(set(unreferenced) - set(KEPT)) == [], unreferenced
    assert sorted(set(KEPT) - set(defined) - set(_methods(src))) == []
