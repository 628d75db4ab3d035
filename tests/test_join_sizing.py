"""Hash joins fit the cluster they run on.

``shuffle.join_partitions`` never asks for more join partitions than the
cluster has CPUs, and ``shuffle.join_kwargs`` keeps the aggregators from
reserving CPU on a 1-CPU cluster. Without both, TPC-H q5 (three chained
joins beside two actor-pool stages) never finished at ``num_cpus=1``.
"""

import json
import subprocess
import sys

import duckdb
import numpy as np
import pytest

from engine import shuffle
from proc_group import REPO, run_group
from test_dataset import SF_DIR

Q5_TIMEOUT_S = 240


@pytest.mark.parametrize("cpus, by2, by4", [
    (1, 1, 1), (2, 2, 2), (4, 4, 4), (32, 16, 8)])
def test_join_partitions_at_most_cpus(monkeypatch, cpus, by2, by4):
    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda default: cpus)
    assert shuffle.join_partitions() == by2
    assert shuffle.join_partitions(4) == by4
    kw = shuffle.join_kwargs()
    assert kw["num_partitions"] == by2
    assert kw["aggregator_ray_remote_args"] == (
        {"num_cpus": 0} if cpus < 2 else None)
    assert shuffle.join_kwargs(num_partitions=3)["num_partitions"] == 3


Q5_SCRIPT = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
import __ray_entry__ as entry
df = entry.queries()["q5_local_supplier_volume"](sys.argv[1])
print(json.dumps(df.to_dict(orient="list")))
ray.shutdown()
"""


def test_q5_finishes_on_one_cpu():
    """q5 in its own 1-CPU Ray session, under a timeout. The child leads a
    new process group, so a hang is killed with every Ray process it
    started (GCS, raylet, workers, agents) and leaves nothing running."""
    try:
        r = run_group([sys.executable, "-c", Q5_SCRIPT, SF_DIR], cwd=REPO,
                      timeout=Q5_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"q5 did not finish in {Q5_TIMEOUT_S} s at num_cpus=1")
    assert r.returncode == 0, r.stderr[-3000:]
    got = json.loads(r.stdout.strip().splitlines()[-1])

    import __ray_entry__ as entry
    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "orders",
              "lineitem"):
        con.sql(f"create view {t} as select * from "
                f"read_parquet('{SF_DIR}/{t}.parquet')")
    exp = con.sql(entry.oracle_sql()["q5_local_supplier_volume"]).df() \
        .sort_values("n_name")
    assert got["n_name"] == exp["n_name"].tolist()
    assert np.allclose(got["revenue"], exp["revenue"], rtol=0, atol=1e-9)
