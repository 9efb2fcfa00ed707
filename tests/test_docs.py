"""Every recognition rule the engine can name is explained in the glossary."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lodua")


def _literal_bases():
    """(file, line, text, whole) for each literal ``basis=`` argument; for
    an f-string the text is what precedes its first placeholder, and
    ``whole`` is false."""
    out = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.keyword) and node.arg == "basis"):
                continue
            value = node.value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                text, whole = value.value, True
            elif isinstance(value, ast.JoinedStr):
                whole = False
                text = ""
                for part in value.values:
                    if not isinstance(part, ast.Constant):
                        break
                    text += part.value
            else:
                continue
            out.append((name, node.lineno, text, whole))
    return out


def test_every_literal_basis_is_in_the_glossary():
    with open(os.path.join(ROOT, "docs", "recognition.md")) as fh:
        glossary = fh.read()
    bases = _literal_bases()
    assert len(bases) > 40   # the walk found the engine's rules
    missing = [f"{name}:{line}: {text!r}" for name, line, text, _ in bases
               if text not in glossary]
    assert not missing, "\n".join(missing)


def _glossary_rows():
    """The backticked strings in the first cell of each row of the basis
    glossary table of docs/recognition.md."""
    with open(os.path.join(ROOT, "docs", "recognition.md")) as fh:
        text = fh.read()
    table = text[text.index("## Basis glossary"):]
    rows = table[table.index("|---|"):table.index("\n## ")].splitlines()[1:]
    return [name for line in rows
            for name in line.split(" | ")[0].split("`")[1::2]]


def test_every_glossary_row_names_a_basis_the_source_emits():
    # a literal basis matches exactly, an f-string up to its first
    # placeholder
    bases = _literal_bases()
    rows = _glossary_rows()
    assert len(rows) > 30   # the walk found the glossary
    stale = [row for row in rows if not any(
        row == text if whole else row.startswith(text)
        for _, _, text, whole in bases)]
    assert not stale, "\n".join(stale)
