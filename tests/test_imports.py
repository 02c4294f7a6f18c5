"""The radio layer stands below the simulator: ``radio.py`` imports nothing
from ``sim``, ``cli`` or ``analysis``, and from ``protocol`` only
declarations (the envelope, the base station's id, the flood key and the
delivery table with its audiences), never a step or a handler."""

import ast
import os

RADIO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "wcds", "radio.py")

#: What ``radio`` may take from ``protocol``.
PROTOCOL_DECLARATIONS = {"Envelope", "BS_ID", "flood_key", "DELIVERY", "Audience"}


def package_imports(path):
    """Per package module ``path`` imports from, the names it takes (``*``
    for the whole module)."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                module = node.module
            elif node.level == 0 and (node.module or "").startswith("wcds."):
                module = node.module[len("wcds."):]
            elif node.level == 1 or node.module == "wcds":  # from . import x
                for alias in node.names:
                    out.setdefault(alias.name, set()).add("*")
                continue
            else:
                continue
            out.setdefault(module.split(".")[0], set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wcds."):
                    out.setdefault(alias.name.split(".")[1], set()).add("*")
    return out


def test_radio_imports_no_layer_above_it():
    imported = package_imports(RADIO)
    assert not {"sim", "cli", "analysis"} & set(imported)
    assert imported.get("protocol", set()) <= PROTOCOL_DECLARATIONS
