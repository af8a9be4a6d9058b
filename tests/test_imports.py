"""Every name a module imports is used by that module.

The check parses each `rotated_tcf` module with `ast`, collects the names
its imports bind and fails on any that the module never looks up.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rotated_tcf"

# Imported but not called: perfbench/layers.py times a layer by rebinding
# the name in every module that imports it, so these must stay importable
# where they are until the benchmark stops looking them up.
PERFBENCH_REBINDS = {
    ("network", "honest_prover_round1"),
    ("puzzle", "honest_prover_round1"),
    ("puzzle", "invert"),
    ("rsp", "invert"),
    ("rsp", "angle_sequence"),
    ("rsp", "simulate_ghz_measurement"),
    ("rsp", "simulate_basis_measurement"),
}


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    unused = _unused_imports(SRC / f"{module}.py")
    exempt = {name for mod, name in PERFBENCH_REBINDS if mod == module}
    assert unused - exempt == set()
    # an exemption that the module now uses, or no longer imports, goes
    assert exempt <= unused
