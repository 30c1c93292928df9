"""Every name a module of the package imports is used in that module,
every private function or class of the package is referenced by one, and
every public one is used by the package, exported, documented or read by
the benchmark."""

import ast
import re
from pathlib import Path

import octoterm

PACKAGE = Path(octoterm.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _imported(tree: ast.AST) -> dict[str, int]:
    """Bound name -> line, for every import in the module (any depth)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _referenced(tree: ast.AST) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _referenced(ast.parse(sub.value, mode="eval"))
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # the package's re-exports
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _referenced(tree)
        for name, line in _imported(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert not unused, unused


def _private_defs(tree: ast.AST) -> dict[str, int]:
    """Private function and class name -> line, at any depth (dunders left out)."""
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }


def test_no_unreferenced_private_definitions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        used |= _referenced(tree)
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    dead = [f"{name}:{line}: {fn}"
            for name, tree in trees.items()
            for fn, line in _private_defs(tree).items() if fn not in used]
    assert not dead, dead


def _perfbench_names() -> set[str]:
    """Names the benchmark imports from the package, reads as an attribute,
    or spells in a string (the functions its tracer wraps).  A bare name
    does not count: a local variable may share a dead function's name."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("octoterm"):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_definition_is_used():
    # names read by each module-level statement of the package
    reads = []
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = _referenced(stmt)
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            reads.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defs.append((path.name, stmt))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    kept = set(octoterm.__all__) | readme | _perfbench_names()
    dead = [f"{name}:{node.lineno}: {node.name}" for name, node in defs
            if node.name not in kept
            and not any(node.name in names for stmt, names in reads if stmt is not node)]
    assert not dead, dead


def test_names_the_benchmark_reads_exist():
    # a name perfbench imports from the package, reads off ``import
    # octoterm as ot``, or wraps for tracing, must still be there
    import importlib
    import importlib.util

    missing = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "octoterm"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("octoterm"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and not hasattr(octoterm, node.attr)):
                missing.append(f"{path.name}:{node.lineno}: octoterm.{node.attr}")
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod, names in spans.WRAPPED.items():
        module = importlib.import_module(f"octoterm.{mod}")
        missing += [f"spans.WRAPPED: octoterm.{mod}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing, missing


def _package_defines(names: set[str]) -> list[str]:
    """Where a package module defines or assigns one of ``names``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            else:
                continue
            if name in names:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_no_characteristic_polynomial_code():
    # the affine fragments are decided by the matrix identity
    # A^N (A^L - I)^k = 0; the characteristic polynomial and its polynomial
    # algebra are only the tests' reference for the root-of-unity order
    moved = {"char_poly", "_poly_divmod", "_poly_deriv", "_poly_gcd", "_x_power_mod"}
    found = _package_defines(moved)
    assert not found, found


def test_one_power_walk_and_one_guard_pull_back():
    # finite_monoid_wnt walks the powers of A once, and affine composes two
    # affine relations by its one pull-back of a guard; the former power
    # and offset walks are only the tests' references
    gone = {"power_cycle", "trajectory_offsets", "_compose_affine"}
    found = _package_defines(gone)
    assert not found, found


def test_program_builds_members_without_pdbm():
    # one builder turns a closed dual matrix into a summary member, and a
    # member converts exactly to an octagon through one memoized function
    import inspect

    from octoterm import program

    tree = ast.parse((PACKAGE / "program.py").read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert not [m for m in imported if m and m.split(".")[-1] == "pdbm"], imported
    found = _package_defines({"term_bound", "_member_from_entries"})
    assert not found, found
    assert "exact_only" not in inspect.signature(program.member_to_octagon).parameters
