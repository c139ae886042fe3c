"""No package module uses a ``_``-prefixed name of another package
module: a helper shared across modules is public where it lives.  Both
spellings count: ``from <module> import _name`` and ``mod._name`` on a
module bound by ``import <module> as mod`` or ``from <pkg> import
<module> as mod``."""

import ast
import pathlib

import nyc_taxi_data_pipeline_ray

PKG = pathlib.Path(nyc_taxi_data_pipeline_ray.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def private_cross_imports(pkg: pathlib.Path = PKG) -> list[str]:
    """``path:line name`` for each private name that a module of ``pkg``
    imports from, or reads as an attribute of, another module of
    ``pkg``."""
    modules = {
        ".".join(p.relative_to(pkg.parent).with_suffix("").parts[: -1 if p.stem == "__init__" else None])
        for p in pkg.rglob("*.py")
    }
    found = []
    for path in sorted(pkg.rglob("*.py")):
        parts = list(path.relative_to(pkg.parent).with_suffix("").parts)
        here = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), str(path))
        bound: dict[str, str] = {}  # local name -> the package module it names
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name in modules:
                        bound[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
                continue
            if not isinstance(node, ast.ImportFrom):
                continue
            src = node.module or ""
            if node.level:  # relative: resolve against the importing package
                base = parts[: len(parts) - node.level]
                src = ".".join(base + ([src] if src else []))
            if src.split(".")[0] != pkg.name:
                continue
            for a in node.names:
                if f"{src}.{a.name}" in modules:
                    bound[a.asname or a.name] = f"{src}.{a.name}"
            if src != here:
                found += [
                    f"{path.relative_to(pkg.parent)}:{node.lineno} {a.name}"
                    for a in node.names
                    if _private(a.name)
                ]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and _private(node.attr)):
                continue
            owner = _dotted(node.value)
            if owner is None or owner.split(".")[0] not in bound:
                continue
            head, _, rest = owner.partition(".")
            module = ".".join([bound[head]] + ([rest] if rest else []))
            if module in modules and module != here:
                found.append(f"{path.relative_to(pkg.parent)}:{node.lineno} {node.attr}")
    return sorted(found)


def test_no_private_name_imported_across_modules():
    assert private_cross_imports() == []


def test_guard_sees_both_spellings(tmp_path):
    """A synthetic package: every cross-module spelling of a private
    name is listed, a module's use of its own private names and of a
    public name is not."""
    pkg = tmp_path / "synth"
    (pkg / "state").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "state" / "__init__.py").write_text("")
    (pkg / "state" / "merge.py").write_text(
        "def _mask(t):\n    return t\n\ndef public(t):\n    return _mask(t)\n"
    )
    (pkg / "engine.py").write_text(
        "from synth.state import merge as mg\n"
        "import synth.state.merge as mg2\n"
        "import synth.state.merge\n"
        "from synth.state.merge import _mask\n"
        "from .state.merge import public\n"
        "a = mg._mask\n"
        "b = mg2._mask\n"
        "c = synth.state.merge._mask\n"
        "d = mg.public\n"
        "e = public._private_attr_of_a_function\n"
    )
    assert private_cross_imports(pkg) == [
        "synth/engine.py:4 _mask",
        "synth/engine.py:6 _mask",
        "synth/engine.py:7 _mask",
        "synth/engine.py:8 _mask",
    ]
