"""Every public name in the package has a caller outside the tests, and
every field of the simulator's state is read outside the tests.

A top-level name in ``src/wcds/*.py`` that does not start with an underscore
must be referred to, as a whole word, somewhere other than its own
definition: in ``src/``, ``perfbench/`` or ``README.md``. A name only tests
use belongs in the tests. Likewise a state field that only tests read is
state kept for the tests alone, and belongs in the tests.
"""

import ast
import dataclasses
import os
import re

from wcds.keys import KeyMaterial, KeyRing
from wcds.protocol import BSState, NodeState, OrphanRecord
from wcds.sim import Adversary, World

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "wcds")

#: Names kept without a caller, each with its reason.
ALLOWED = {}


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def definitions(source):
    """The public top-level names ``source`` defines, each with the span of
    lines (1-based, inclusive) its definition takes."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        out.extend((name, start, node.end_lineno) for name in names if not name.startswith("_"))
    return out


def other_texts():
    """Every text outside the package that may refer to a package name."""
    texts = [read(os.path.join(ROOT, "README.md"))]
    for dirpath, _, files in os.walk(os.path.join(ROOT, "perfbench")):
        texts.extend(read(os.path.join(dirpath, f)) for f in sorted(files) if f.endswith((".py", ".md")))
    return texts


def unreferenced():
    sources = {
        f[:-3]: read(os.path.join(PACKAGE, f)) for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")
    }
    outside = other_texts()
    found = []
    for module, source in sources.items():
        lines = source.splitlines()
        for name, start, end in definitions(source):
            word = re.compile(rf"\b{re.escape(name)}\b")
            rest = "\n".join(lines[: start - 1] + lines[end:])
            texts = [rest, *(s for m, s in sources.items() if m != module), *outside]
            if not any(word.search(t) for t in texts):
                found.append(f"{module}.{name}")
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(unreferenced()) == sorted(ALLOWED)


def attributes_read():
    """Every attribute name loaded (not stored) in ``src/`` or ``perfbench/``."""
    names = set()
    for top in (PACKAGE, os.path.join(ROOT, "perfbench")):
        for dirpath, _, files in os.walk(top):
            for f in sorted(files):
                if f.endswith(".py"):
                    tree = ast.parse(read(os.path.join(dirpath, f)))
                    names.update(
                        node.attr for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    )
    return names


def test_every_state_field_is_read_outside_the_tests():
    read_names = attributes_read()
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in (World, NodeState, BSState, OrphanRecord, Adversary, KeyRing, KeyMaterial)
        for f in dataclasses.fields(cls)
        if f.name not in read_names
    ]
    assert unread == []
