"""No package module imports a ``_``-prefixed name from another package
module: a helper shared across modules is public where it lives."""

import ast
import pathlib

import nyc_taxi_data_pipeline_ray

PKG = pathlib.Path(nyc_taxi_data_pipeline_ray.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_cross_imports(pkg: pathlib.Path = PKG) -> list[str]:
    """``path:line name`` for each private name that a module of ``pkg``
    imports (``from <module> import _name``) from another module of
    ``pkg``."""
    found = []
    for path in sorted(pkg.rglob("*.py")):
        parts = list(path.relative_to(pkg.parent).with_suffix("").parts)
        here = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            src = node.module or ""
            if node.level:  # relative: resolve against the importing package
                base = parts[: len(parts) - node.level]
                src = ".".join(base + ([src] if src else []))
            if src.split(".")[0] != pkg.name or src == here:
                continue
            found += [
                f"{path.relative_to(pkg.parent)}:{node.lineno} {a.name}"
                for a in node.names
                if _private(a.name)
            ]
    return found


def test_no_private_name_imported_across_modules():
    assert private_cross_imports() == []
