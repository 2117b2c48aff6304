"""Program JSON files are written with one-shot ``json.dumps``.

``json.dump(obj, fh)`` always encodes through the pure-Python
``_make_iterencode``; CPython runs its C encoder only for ``json.dumps``
without ``indent``.  Both produce the same bytes, so every unindented
write uses ``fh.write(json.dumps(obj))``.  Indented dumps (manifests,
profiles) are small human-readable files and may stream.
Shard checkpoints, whose event logs run to megabytes, encode one piece
at a time with ``json.dumps`` instead.
"""

import ast
import os

import repro

SOURCE = os.path.dirname(repro.__file__)


def _streaming_dumps(path):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dump"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and not any(kw.arg == "indent" for kw in node.keywords)):
            yield node.lineno


def test_no_unindented_json_dump_in_the_program():
    offenders = []
    for root, _, names in os.walk(SOURCE):
        for name in sorted(names):
            path = os.path.join(root, name)
            relative = os.path.relpath(path, SOURCE)
            if name.endswith(".py"):
                offenders += [f"{relative}:{line}"
                              for line in _streaming_dumps(path)]
    assert offenders == [], (
        "write these with fh.write(json.dumps(...)): " + ", ".join(offenders)
    )
