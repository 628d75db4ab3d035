import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (local mode, 4 CPUs)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True)
    yield
    ray.shutdown()


@pytest.fixture
def large_route(monkeypatch):
    """``large_route()`` sends every later size decision of
    ``engine.shuffle`` in the test down its large route: it sets
    ``shuffle.SMALL_ROWS`` to -1, so even an empty input shuffles (hash
    join, balanced Ray groupby, distributed label propagation, the
    uniqueness ``by_key`` pass). Before the call every test input is
    below ``SMALL_ROWS``: a join broadcasts its right side, a
    ``combine`` merges in one task and ``connected_components`` runs one
    union-find task. A test that compares the two routes calls it
    between its runs."""
    from engine import shuffle
    return lambda: monkeypatch.setattr(shuffle, "SMALL_ROWS", -1)


@pytest.fixture(params=["small", "large"])
def route(request, large_route):
    """Runs a test once per size route of ``engine.shuffle`` (see
    ``large_route``)."""
    if request.param == "large":
        large_route()
    return request.param
