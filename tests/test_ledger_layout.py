"""Only ``state/manifest.py`` spells the lake's ledger layout: every other
package module reaches the commit log, its records and its checkpoints
through that module, and none spells the retired per-partition ledger
(``manifest-*.json``, ``_epochs/``, ``_watermark.json``)."""

import ast
import pathlib
import re

import nyc_taxi_data_pipeline_ray

PKG = pathlib.Path(nyc_taxi_data_pipeline_ray.__file__).parent
OWNER = pathlib.Path("state", "manifest.py")
#: the log dir, its record and checkpoint names, the retired ledger files
LEDGER = re.compile(
    r"(?<!\w)_log(?!\w)|commit-|checkpoint-|manifest-|(?<!\w)_epochs|(?<!\w)_watermark\.json"
)


def _docstrings(tree: ast.AST) -> set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def ledger_spellings(pkg: pathlib.Path = PKG) -> list[str]:
    """``path:line`` of each string literal (f-string parts included,
    docstrings not) outside ``state/manifest.py`` that spells the
    ledger layout."""
    found = []
    for path in sorted(pkg.rglob("*.py")):
        if path.relative_to(pkg) == OWNER:
            continue
        tree = ast.parse(path.read_text(), str(path))
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docs
                and LEDGER.search(node.value)
            ):
                found.append(f"{path.relative_to(pkg.parent)}:{node.lineno}")
    return found


def test_only_the_manifest_module_spells_the_ledger():
    assert ledger_spellings() == []


def test_ledger_spellings_finds_a_private_copy(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "state").mkdir(parents=True)
    (pkg / "state" / "manifest.py").write_text(
        "def record_path(lake, seq):\n    return f'{lake}/_log/commit-{seq:06d}.json'\n"
    )
    (pkg / "engine.py").write_text(
        '"""Commits land in ``_log/commit-*.json``."""\n'
        "import os\n\n"
        "def old(lake):\n"
        "    '''Once read ``_epochs/``.'''\n"
        "    change_log, max_epochs = 'change_log', 'max_epochs'\n"
        "    return os.path.join(lake, '_epochs'), f'{lake}/_log/commit-{1:06d}.json'\n"
        "\n"
        "def ckpt(lake, seq):\n"
        "    return f'checkpoint-{seq:06d}.json'\n"
    )
    assert sorted(int(s.split(":")[1]) for s in ledger_spellings(pkg)) == [7, 7, 10]
