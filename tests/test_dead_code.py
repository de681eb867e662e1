"""Every module-level function and class of the package, and every method and
property of its classes, has a caller in the package or the benchmark, or is
kept on purpose with a stated reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names no code in src/ or bench/ calls, each kept for what it states; a
# method or property is named Class.name.
KEPT = {
    "epsilon_k_flag": "the paper's epsilon_k on the flag side",
    "epsilon_k_point": "the paper's epsilon_k on the quiver side",
    "flag_bundle_from_json": "reads the file that verify --dump-bundles writes",
    "suite_maffei_acceptance": "the acceptance harness of criterion 3",
    "RatMat.entries": "the Fraction view of a matrix, which tests read entries and columns from",
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _classes(trees) -> dict[str, tuple[list[str], set[str]]]:
    """Every module-level class, as name -> (base names, the names of its
    non-dunder methods and properties)."""
    out = {}
    for _, tree in trees:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                bases = [getattr(b, "id", None) or getattr(b, "attr", "") for b in cls.bases]
                methods = {
                    node.name
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _is_dunder(node.name)
                }
                out[cls.name] = (bases, methods)
    return out


class _AttributeReads(ast.NodeVisitor):
    """Each attribute read recv.name as (owner, name): owner is the class
    recv is known to be an instance of, or the class itself, and None when
    the receiver's class cannot be told.

    A receiver's class is known when it is a class name, the first argument
    of a method (self or cls), an argument annotated with a class, or a
    local name last bound to a call of a class."""

    def __init__(self, classes):
        self.classes = classes
        self.reads: set[tuple[str | None, str]] = set()
        self.scopes: list[dict[str, str]] = [{}]
        self.methods_of: dict[int, str] = {}  # id of a method's def -> its class

    def _class_named(self, node) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return None
        return name if name in self.classes else None

    def _owner(self, node) -> str | None:
        if isinstance(node, ast.Name):
            return self.scopes[-1].get(node.id) or self._class_named(node)
        return None

    def visit_ClassDef(self, node):
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not any(getattr(d, "id", "") == "staticmethod" for d in child.decorator_list):
                    self.methods_of[id(child)] = node.name
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        scope = dict(self.scopes[-1])
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for arg in args:
            owner = self._class_named(arg.annotation)
            if owner:
                scope[arg.arg] = owner
            else:
                scope.pop(arg.arg, None)
        if id(node) in self.methods_of and args:
            scope[args[0].arg] = self.methods_of[id(node)]
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store):  # rebound: its class is unknown again
            self.scopes[-1].pop(node.id, None)

    def visit_Assign(self, node):
        self.generic_visit(node)
        value = node.value
        owner = self._class_named(value.func) if isinstance(value, ast.Call) else None
        for target in node.targets:
            if owner and isinstance(target, ast.Name):
                self.scopes[-1][target.id] = owner

    def visit_Attribute(self, node):
        self.reads.add((self._owner(node.value), node.attr))
        self.generic_visit(node)


def _referenced_methods(trees, classes) -> set[str]:
    """Class.name for every method or property some attribute read may
    reach: on a receiver of known class, the definition its bases resolve
    the name to and every override of it in a subclass; on a receiver of
    unknown class, the name in every class."""
    reads = _AttributeReads(classes)
    for path, tree in trees:
        if path.name != "__init__.py":
            reads.visit(tree)

    def resolve(cls: str, name: str) -> str | None:
        bases, methods = classes.get(cls, ([], set()))
        if name in methods:
            return cls
        return next(filter(None, (resolve(b, name) for b in bases)), None)

    def inherits(cls: str, ancestor: str) -> bool:
        bases = classes.get(cls, ([], set()))[0]
        return ancestor in bases or any(inherits(b, ancestor) for b in bases)

    out = set()
    for owner, name in reads.reads:
        if owner is None:
            out |= {f"{c}.{name}" for c, (_, methods) in classes.items() if name in methods}
            continue
        defined = resolve(owner, name)
        if defined:
            out.add(f"{defined}.{name}")
        out |= {f"{c}.{name}" for c in classes if name in classes[c][1] and inherits(c, owner)}
    return out


def _methods(trees) -> dict[str, str]:
    """The non-dunder methods and properties of every class, as
    Class.name -> file."""
    out = {}
    for path, tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(
                    node.name
                ):
                    out[f"{cls.name}.{node.name}"] = path.name
    return out


def test_no_unreferenced_methods():
    src = _modules("src/geocrystal/*.py")
    trees = src + _modules("bench/*.py")
    referenced = _referenced_methods(trees, _classes(trees))
    unreferenced = {
        name: where for name, where in _methods(src).items() if name not in referenced
    }
    assert sorted(set(unreferenced) - set(KEPT)) == [], unreferenced


def test_method_reads_are_matched_to_their_owner():
    # a read on a receiver of known class reaches only that class's method,
    # whatever other class defines the same name; an unknown one reaches all
    code = '''
class A:
    def run(self): ...
    def go(self): self.run()
class B:
    def run(self): ...
    def stop(self): ...
class C(A):
    def run(self): ...
def f(a: A, anything):
    b = B()
    b.stop()
    a.go()
    anything.go()
    for b in anything:
        b.go()
'''
    trees = [(Path("m.py"), ast.parse(code))]
    classes = _classes(trees)
    assert _referenced_methods(trees, classes) == {"A.run", "C.run", "A.go", "B.stop"}
    trees = [(Path("m.py"), ast.parse(code + "        b.run()\n"))]
    assert _referenced_methods(trees, classes) == {"A.run", "B.run", "C.run", "A.go", "B.stop"}


def _definers(pattern, names) -> set[str]:
    """file:Class.method for every method in the matched files named one of names."""
    return {
        f"{path.name}:{cls.name}.{node.name}"
        for path, tree in _modules(pattern)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    }


def test_immutability_has_one_owner():
    # values.Frozen alone refuses assignment and deletion and rebuilds
    # copies; a class elsewhere in the package that does any inherits it
    owners = _definers("src/geocrystal/*.py", ("__setattr__", "__delattr__", "__reduce__"))
    assert {name for name in owners if not name.startswith("values.py:")} == set()


def test_int_tuple_views_have_one_owner():
    # cartan.IntTuple alone iterates, sizes, indexes and serialises the
    # tuple field of the index data; the value types inherit it
    views = ("__iter__", "__len__", "__getitem__", "to_json")
    owners = _definers("src/geocrystal/cartan.py", views)
    assert owners == {f"cartan.py:IntTuple.{name}" for name in views}


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


def test_only_linalg_and_errors_lend_private_names():
    # an underscore name stays in its module, except linalg's integer
    # kernels and JSON readers and errors' failure recorder
    lent = {
        (node.module, alias.name, path.name)
        for path, tree in _modules("src/geocrystal/*.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert lent and {module for module, *_ in lent} == {"linalg", "errors"}, lent
