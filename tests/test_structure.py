"""Module structure: row input has one home, and search needs no transform.

``streaming`` is a leaf that owns every rule for row input; ``whitening``
is the transform alone; ``retrieval`` scores rows without fitting them;
``cli`` writes every command's text through one function, ``_emit``,
and leaves every flag's value to the library's check of it.
The documents state the block size that ``streaming`` sets and the
query tile and score buffer that ``retrieval`` sets.
"""

import ast
import re
from pathlib import Path

from whitevec import retrieval, streaming, whitening

SRC = Path(streaming.__file__).parent
ROW_INPUT = {"as_real", "as_rows", "require_int", "BLOCK_ROWS", "row_blocks", "checked_blocks"}


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def whitevec_imports(module: str) -> set[str]:
    """The whitevec modules that ``module`` imports, in any import form."""
    found = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "whitevec":
                continue
            parts = parts[1:] if node.level == 0 else parts
            found.update([parts[0]] if parts and parts[0] else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] or a.name for a in node.names
                         if a.name.split(".")[0] == "whitevec")
    return found


def defined_names(module: str) -> set[str]:
    """Names that ``module`` binds at top level by def, class or assignment."""
    names = set()
    for node in parse(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_import_scanner_sees_every_form():
    assert whitevec_imports("whitening") == {"errors", "linalg", "streaming"}
    assert whitevec_imports("cli") >= {"evaluation", "fileio", "retrieval", "whitening"}


def test_streaming_imports_only_errors():
    assert whitevec_imports("streaming") == {"errors"}


def test_retrieval_imports_neither_whitening_nor_linalg():
    assert not whitevec_imports("retrieval") & {"whitening", "linalg"}


def test_row_input_is_defined_in_streaming_alone():
    assert ROW_INPUT <= defined_names("streaming")
    for module in ("whitening", "fileio", "retrieval", "evaluation", "cli"):
        assert not ROW_INPUT & defined_names(module), module


def test_blocks_split_into_whole_apply_tiles():
    assert streaming.BLOCK_ROWS % whitening.TILE_ROWS == 0


def test_docs_state_the_block_size_streaming_sets():
    """Every "N-row block" or "N-row slice" and every "BLOCK_ROWS (N)" in
    README.md and docs/*.md names streaming.BLOCK_ROWS."""
    root = SRC.parents[1]
    pattern = re.compile(r"(\d+)-row\s+(?:block|slice)|BLOCK_ROWS`?\)?\s+\((\d+)")
    found = {}
    for doc in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        for match in pattern.finditer(doc.read_text(encoding="utf-8")):
            found.setdefault(int(match.group(1) or match.group(2)), []).append(doc.name)
    assert found, "no block size stated in the documents"
    assert set(found) == {streaming.BLOCK_ROWS}, found


def test_docs_state_the_search_tile_retrieval_sets():
    """Every statement in README.md and docs/*.md of the query tile ("tiles
    of up to N", "N × `--top` running hits", "(R rows at m = N)"), of the
    score buffer's floats ("F Mi / m", "F Mi floats", "F Mi rows") and of
    its size ("B MiB buffer", "floats (B MiB)") names retrieval.QUERY_TILE,
    retrieval.SCORE_FLOATS and SCORE_FLOATS * 4 bytes; R is the chunk of a
    full tile, SCORE_FLOATS // QUERY_TILE rows."""
    root = SRC.parents[1]
    tile, floats = retrieval.QUERY_TILE, retrieval.SCORE_FLOATS
    patterns = {
        "tile": (r"tiles\s+of\s+up\s+to\s+(\d+)|(\d+)\s+×\s+`--top`\s+running"
                 r"|\(\d+\s+(?:rows\s+)?at\s+(?:m\s+=\s+)?(\d+)"),
        "chunk": r"\((\d+)\s+(?:rows\s+)?at\s+(?:m\s+=\s+)?\d+",
        "floats": r"(\d+)\s+Mi\s+(?:/\s+m|floats|rows)",
        "MiB": r"(\d+)\s+MiB\s+buffer|floats\s+\((\d+)\s+MiB\)",
    }
    want = {"tile": tile, "chunk": floats // tile, "floats": floats // 2**20,
            "MiB": floats * 4 // 2**20}
    assert floats % 2**20 == 0
    found = {name: {} for name in patterns}
    for doc in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        text = doc.read_text(encoding="utf-8")
        for name, pattern in patterns.items():
            for match in re.finditer(pattern, text):
                value = int(next(group for group in match.groups() if group))
                found[name].setdefault(value, []).append(doc.name)
    assert {name: set(values) for name, values in found.items()} == {
        name: {value} for name, value in want.items()
    }, found


def test_cli_text_output_goes_through_emit():
    """stdout and ``write_atomic`` are named in ``cli`` only inside ``_emit``,
    and every ``print`` names its file (stderr), so no command writes text
    another way."""
    tree = parse("cli")
    (emit,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_emit"]
    inside = {id(node) for node in ast.walk(emit)}
    writers = {"stdout", "write_atomic"}
    named = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in writers
        or isinstance(node, ast.Name) and node.id in writers
        or isinstance(node, ast.alias) and node.name.rpartition(".")[2] in writers
    ]
    assert {node.attr for node in named if isinstance(node, ast.Attribute)} == writers
    assert all(id(node) in inside for node in named)
    prints = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    assert prints and all(any(kw.arg == "file" for kw in node.keywords) for node in prints)


def test_cli_keeps_no_value_rule_of_its_own():
    """``cli`` raises argparse.ArgumentTypeError only in ``_flag``, which turns
    a library check's WhitevecError into it, and in ``_ks_arg`` ("at least one k")."""
    tree = parse("cli")
    owner = {
        id(node): f.name
        for f in tree.body if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
    }
    raises = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and "ArgumentTypeError" in ast.unparse(node.exc)
    ]
    assert {owner.get(id(node)) for node in raises} == {"_flag", "_ks_arg"}
