"""``os.replace`` / ``os.rename`` appear in the package only inside
``io.commit_file``: every file is published through that one primitive,
so the crash-point matrix (``tests/test_crash_points.py``) reaches every
commit point by wrapping it."""

import ast
import pathlib

import nyc_taxi_data_pipeline_ray

PKG = pathlib.Path(nyc_taxi_data_pipeline_ray.__file__).parent
RENAMES = {"replace", "rename", "renames"}


def rename_sites(pkg: pathlib.Path = PKG) -> list[str]:
    """``path:line`` of each use of ``os.replace``/``os.rename``/
    ``os.renames`` (attribute or ``from os import``) in ``pkg`` outside
    ``io.commit_file``."""
    found = []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed: set[int] = set()
        if path == pkg / "io.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "commit_file":
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            hit = (
                isinstance(node, ast.Attribute)
                and node.attr in RENAMES
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(a.name in RENAMES for a in node.names)
            )
            if hit and id(node) not in allowed:
                found.append(f"{path.relative_to(pkg.parent)}:{node.lineno}")
    return found


def test_renames_only_in_the_commit_primitive():
    assert rename_sites() == []


def test_rename_sites_finds_a_private_copy(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "io.py").write_text(
        "import os\n\ndef commit_file(path, write):\n    os.replace(path + '.tmp', path)\n"
    )
    (pkg / "engine.py").write_text(
        "import os\nfrom os import rename\n\ndef save(p):\n    os.replace(p + '.tmp', p)\n"
    )
    assert [s.split(":")[1] for s in rename_sites(pkg)] == ["2", "5"]
