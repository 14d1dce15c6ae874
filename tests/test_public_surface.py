import ast
import re
from pathlib import Path

import hurwitz_hodge

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "aut_count", "check_partition", "check_profile", "partitions_of", "z_order",
    "character_value", "brute_force_hurwitz", "connected_hurwitz", "genus_zero_closed_form",
    "cut_and_join_layers", "cut_and_join_hurwitz", "HodgeTable", "prefactor", "degree_LL",
    "hodge_keys", "minimal_grid_bound", "extract_hodge_integrals", "hurwitz_from_hodge",
    "is_stable", "sine_kernel", "hodge_side_coefficient", "verify_faber_pandharipande",
    "InfeasibleError", "ConsistencyError",
}


def _names_in_code() -> set[str]:
    # the names the package's modules use or import, outside __init__.py;
    # a def, a comment or a docstring alone does not reach a name
    names = set()
    for path in (ROOT / "src" / "hurwitz_hodge").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    return names


def _documents() -> str:
    # the README, the acceptance criteria and the benchmark, which also
    # names the functions it times as strings
    files = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    files += [p for p in (ROOT / "perfbench").rglob("*") if p.suffix in (".py", ".md")]
    return "\n".join(p.read_text(encoding="utf-8") for p in files)


def test_public_surface_is_reached():
    # a public name that no module, benchmark, README line or acceptance
    # criterion reaches is a wrapper nobody calls: delete it
    assert set(hurwitz_hodge.__all__) == PUBLIC
    code, documents = _names_in_code(), _documents()
    unreached = sorted(name for name in PUBLIC
                       if name not in code and not re.search(rf"\b{name}\b", documents))
    assert unreached == []
