"""Every public function and class in ``src/pcbnet`` has a reader in the program."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pcbnet"
# kept without a caller: the per-token path that embedding_bag is checked
# against, the relu that dense_epilogue is checked against, and the scalar
# reduction the gradient checks sum with
REFERENCE_OPS = {"mean", "masked_mean", "embedding_lookup", "relu"}
# writers of input formats the program reads: a CSV dataset and a
# precomputed-embedding file
INPUT_WRITERS = {"data.write_csv", "text.save_precomputed_embeddings"}


def public_definitions() -> set[str]:
    """``module.name`` of each public top-level function and class in ``src/pcbnet``."""
    return {f"{path.stem}.{node.name}" for path in SRC.glob("*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def references(path: Path) -> set[str]:
    """``module.name`` of each pcbnet name the file at ``path`` reads.

    A read is a use of the name in its own module, of a name imported from
    its module, or an attribute of the imported module; an import alone is
    not one.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent == SRC else None
    names: dict[str, str] = {}    # local name -> module.name
    modules: dict[str, str] = {}  # local name -> pcbnet module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        base = node.module or ""
        if node.level == 0:
            if base.split(".")[0] != "pcbnet":
                continue
            base = base[len("pcbnet."):]
        for alias in node.names:
            local = alias.asname or alias.name
            if base:
                names[local] = f"{base}.{alias.name}"
            else:
                modules[local] = alias.name
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and (node.id in names or own):
            read.add(names.get(node.id, f"{own}.{node.id}"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            read.add(f"{modules[node.value.id]}.{node.attr}")
    return read


def test_every_public_function_and_class_has_a_caller():
    sources = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    read = set().union(*(references(p) for p in sources))
    exempt = {f"autodiff.{op}" for op in REFERENCE_OPS} | INPUT_WRITERS
    public = public_definitions()
    assert exempt <= public
    assert public - read - exempt == set()
