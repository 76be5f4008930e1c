import ast
from pathlib import Path

import oracles


def test_oracles_import_no_private_ginlab_name():
    """A reference must not share private kernel code with what it
    checks: `tests/oracles.py` imports no underscore-prefixed name from
    ginlab, and no private ginlab module."""
    imported = []
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    private = [name for name in imported if name.split(".")[0] == "ginlab"
               and any(part.startswith("_") for part in name.split("."))]
    assert private == []
