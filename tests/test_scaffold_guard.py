"""The key co-partition scaffold lives only in ``engine/shuffle.py``.

Keyed operators call :func:`engine.shuffle.by_key`, which owns the
``hash64(key) % P`` partition column, the ``groupby("part")`` shuffle and
the NULL-key / typed-empty contracts. A hand-copied scaffold anywhere
else in ``engine/`` fails this test. One function is exempt, by name.
"""

import ast
import pathlib
import re

ENGINE = pathlib.Path(__file__).resolve().parents[1] / "engine"
SCAFFOLD = re.compile(r"""groupby\(\s*["']part["']\s*\)"""
                      r"|np\.uint64\(\s*P\s*\)")
EXEMPT = {
    # the only pyarrow-format group stage: keeps the key dtype intact
    ("relational.py", "_distinct_keys"),
}


def _scaffold_sites():
    """(file, top-level function, line number, line) of every match."""
    for path in sorted(ENGINE.glob("*.py")):
        if path.name == "shuffle.py":
            continue
        src = path.read_text()
        owner = {}
        for node in ast.parse(src).body:
            for ln in range(node.lineno, node.end_lineno + 1):
                owner[ln] = getattr(node, "name", "<module>")
        for i, line in enumerate(src.splitlines(), 1):
            if SCAFFOLD.search(line):
                yield path.name, owner.get(i, "<module>"), i, line.strip()


def test_no_scaffold_outside_by_key():
    found = [f"{f}:{i} in {fn}: {line}"
             for f, fn, i, line in _scaffold_sites()
             if (f, fn) not in EXEMPT]
    assert not found, ("co-partition scaffold outside shuffle.by_key; "
                       "call engine.shuffle.by_key instead:\n"
                       + "\n".join(found))


def test_exemptions_are_current():
    used = {(f, fn) for f, fn, _, _ in _scaffold_sites()}
    assert EXEMPT <= used, f"stale exemptions: {sorted(EXEMPT - used)}"
