"""``engine.py`` reads whole lake runs only through ``_read_run``
(``pq.ParquetFile(path).read()``): ``pq.read_table``'s dataset layer
(discovery, partitioning, fragment scans) costs more per run and adds
nothing for one write-once file."""

import ast
import pathlib

import nyc_taxi_data_pipeline_ray

ENGINE = pathlib.Path(nyc_taxi_data_pipeline_ray.__file__).parent / "engine.py"


def read_table_sites(path: pathlib.Path = ENGINE) -> list[int]:
    """Line of each use of ``read_table`` from ``pyarrow.parquet`` in
    ``path``: an attribute of the module, however it is bound, or a
    ``from pyarrow.parquet import read_table``."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {"pyarrow.parquet"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "pyarrow.parquet"}
        elif isinstance(node, ast.ImportFrom) and node.module == "pyarrow":
            modules |= {a.asname or a.name for a in node.names if a.name == "parquet"}

    def dotted(n: ast.AST) -> str | None:
        if isinstance(n, ast.Name):
            return n.id
        if isinstance(n, ast.Attribute):
            head = dotted(n.value)
            return None if head is None else f"{head}.{n.attr}"
        return None

    found = []
    for node in ast.walk(tree):
        hit = (
            isinstance(node, ast.Attribute)
            and node.attr == "read_table"
            and dotted(node.value) in modules
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "pyarrow.parquet"
            and any(a.name == "read_table" for a in node.names)
        )
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_engine_reads_runs_through_one_reader():
    assert read_table_sites() == []


def test_read_table_sites_finds_every_spelling(tmp_path):
    src = tmp_path / "engine.py"
    src.write_text(
        "import pyarrow.parquet as pq\n"
        "import pyarrow.parquet\n"
        "from pyarrow import parquet as pqx\n"
        "from pyarrow.parquet import read_table\n"
        "def f(p):\n"
        "    pq.ParquetFile(p).read()\n"
        "    return pq.read_table(p), pyarrow.parquet.read_table(p), pqx.read_table(p)\n"
    )
    assert read_table_sites(src) == [4, 7, 7, 7]
