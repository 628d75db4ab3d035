"""The shuffle scaffolds live only in ``engine/shuffle.py``.

Keyed operators call :func:`engine.shuffle.by_key`, which owns the
``hash64(key) % P`` partition column, the ``groupby("part")`` shuffle and
the NULL-key / typed-empty contracts. Decomposable aggregates call
:func:`engine.shuffle.combine`, which owns the per-batch partial, the
balancing repartition, Ray's ``groupby().aggregate(...)`` and the
``"sum(x)"`` -> ``x`` naming. Window operators (``PARTITION BY key
ORDER BY ...``) pass ``order`` to :func:`engine.shuffle.by_key`, which
sorts each key partition, and find key runs with
:func:`engine.shuffle.key_starts`, the one NULL-key equality rule. Hash
joins call :func:`engine.shuffle.join`, which owns the join sizing
(``join_kwargs``) and the typed seed rows that keep every join partition
schemaful, so no join output needs a zero-column guard. Whether an
input is small enough to skip the shuffle is one decision,
``engine.shuffle.SMALL_ROWS``: ``join`` broadcasts a right side up to
that size and ``combine`` merges that many partial rows in one task. A
hand-copied scaffold anywhere else in ``engine/`` fails these tests, and
so does a per-operator size knob anywhere in ``engine/``.
Exemptions are by function name, each with its reason.
"""

import ast
import pathlib
import re

import pytest

ENGINE = pathlib.Path(__file__).resolve().parents[1] / "engine"
CO_PARTITION = re.compile(r"""groupby\(\s*["']part["']\s*\)"""
                          r"|np\.uint64\(\s*P\s*\)")
COMBINE = re.compile(r"""["'](?:sum|min|max|count)\("""
                     r"|\bbalance\("
                     r"|from\s+ray\.data\.aggregate\s+import")
# a key-partition sort, or a hand key break ``keys[1:] != keys[:-1]``
ORDERED = re.compile(r"sort_values\(\[\s*(?:key_col|group_col)\b"
                     r"|\b(\w+)\[1:\]\s*!=\s*\1\[:-1\]")
# a Dataset ``.join(`` (not ``"sep".join(`` or ``os.path.join(``), the join
# sizing, or a zero-column block guard
JOIN = re.compile(r"""(?<!["'])(?<!path)\.join\("""
                  r"|\bjoin_kwargs\b"
                  r"|\bnum_columns\s*==\s*0")
# a reader of the small-side size outside engine/shuffle.py
SMALL_SIDE = re.compile(r"\bSMALL_ROWS\b")
# a per-operator size knob that picked a broadcast, a single task or a
# driver merge on its own, anywhere in engine/ (shuffle.py included)
KNOBS = re.compile(r"broadcast_limit\b|\bsingle_task_limit\b"
                   r"|\b_DRIVER_MERGE_ROWS\b")
GUARDS = {
    "co-partition": (CO_PARTITION, "engine.shuffle.by_key", {
        ("relational.py", "_distinct_keys"):
            "the only pyarrow-format group stage: keeps the key dtype "
            "intact",
    }),
    "combine": (COMBINE, "engine.shuffle.combine", {}),
    "join": (JOIN, "engine.shuffle.join", {
        ("kernels.py", "_root_ctx"):
            "N rows of zero columns are N empty JSON objects to validate, "
            "not a join artefact",
    }),
    "ordered": (ORDERED, "engine.shuffle.by_key(order=...) and "
                "engine.shuffle.key_starts", {
        ("relational.py", "keep_latest"):
            "the same sort is the per-batch combiner too, and it puts "
            "NULL timestamps first (NULLS-LAST under ts DESC)",
        ("relational.py", "grouped_mode"):
            "sorts the partition's (group, value) totals by count "
            "descending, not the partition frame",
        ("textstats.py", "tfidf_topk"):
            "the same sort is the per-batch top-k combiner too, and it "
            "sorts score descending",
    }),
    "small-side": (SMALL_SIDE, "engine.shuffle.join or "
                   "engine.shuffle.combine", {
        ("textstats.py", "tfidf_topk"):
            "its broadcast route fuses the per-doc top-k into the scoring "
            "map; the join route needs a by_key shuffle after the join",
        ("textstats.py", "doc_mean_idf"):
            "its broadcast route fuses the per-doc mean into the scoring "
            "map; the join route needs a by_key shuffle after the join",
        ("cluster.py", "connected_components"):
            "a small edge set runs one numpy union-find task instead of "
            "log(diameter) rounds of label propagation, not a join",
        ("checkpoint.py", "_duplicate_keys"):
            "sums small committed keys files on the driver straight from "
            "parquet, with no Ray dataset to combine",
    }),
}


def _sites(pattern):
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
            if pattern.search(line):
                yield path.name, owner.get(i, "<module>"), i, line.strip()


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_no_scaffold_outside_shuffle(guard):
    pattern, owner, exempt = GUARDS[guard]
    found = [f"{f}:{i} in {fn}: {line}"
             for f, fn, i, line in _sites(pattern)
             if (f, fn) not in exempt]
    assert not found, (f"{guard} scaffold outside engine/shuffle.py; "
                       f"call {owner} instead:\n" + "\n".join(found))


def test_no_size_knob_in_engine():
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(ENGINE.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if KNOBS.search(line)]
    assert not found, ("a per-operator size knob in engine/; route by "
                       "engine.shuffle.SMALL_ROWS instead:\n"
                       + "\n".join(found))


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_exemptions_are_current(guard):
    pattern, _, exempt = GUARDS[guard]
    used = {(f, fn) for f, fn, _, _ in _sites(pattern)}
    assert set(exempt) <= used, \
        f"stale exemptions: {sorted(set(exempt) - used)}"
    assert all(reason.strip() for reason in exempt.values())
