"""Every recognition rule the engine can name is explained in the glossary."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lodua")


def _literal_bases():
    """(file, line, text) for each literal ``basis=`` argument; for an
    f-string the text is what precedes its first placeholder."""
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
                text = value.value
            elif isinstance(value, ast.JoinedStr):
                text = ""
                for part in value.values:
                    if not isinstance(part, ast.Constant):
                        break
                    text += part.value
            else:
                continue
            out.append((name, node.lineno, text))
    return out


def test_every_literal_basis_is_in_the_glossary():
    with open(os.path.join(ROOT, "docs", "recognition.md")) as fh:
        glossary = fh.read()
    bases = _literal_bases()
    assert len(bases) > 40   # the walk found the engine's rules
    missing = [f"{name}:{line}: {text!r}" for name, line, text in bases
               if text not in glossary]
    assert not missing, "\n".join(missing)
