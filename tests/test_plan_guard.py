"""Plan introspection lives only in ``engine/tuning.py``.

Reading a Dataset's logical plan (``ds._logical_plan``) or asking its
datasource for read tasks (``get_read_tasks``) leans on Ray internals that
change between releases. ``engine.tuning`` owns both: ``_is_pure_read``
(metadata-only autotuning) and ``map_read`` (a pure read run inside the
mapping tasks). Any other ``engine/`` file that touches them fails here.
"""

import pathlib
import re

ENGINE = pathlib.Path(__file__).resolve().parents[1] / "engine"
PLAN = re.compile(r"\b_logical_plan\b|\bget_read_tasks\b")
OWNER = "tuning.py"


def _sites():
    for path in sorted(ENGINE.glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if PLAN.search(line):
                yield path.name, i, line.strip()


def test_plan_introspection_only_in_tuning():
    found = [f"{f}:{i}: {line}" for f, i, line in _sites() if f != OWNER]
    assert not found, ("plan introspection outside engine/tuning.py; call "
                       "engine.tuning instead:\n" + "\n".join(found))


def test_tuning_still_owns_it():
    # the guard must keep matching the code it protects
    names = {m.group(0) for f, _, line in _sites() if f == OWNER
             for m in PLAN.finditer(line)}
    assert names == {"_logical_plan", "get_read_tasks"}
