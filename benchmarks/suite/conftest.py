"""Keep the suite's self-test out of ``pytest --benchmark-only`` sessions.

``test_suite.py`` checks the benchmark, it is not a pytest-benchmark
benchmark: a ``--benchmark-only`` session would import it only to skip
every test.  Run it on its own with ``pytest benchmarks/suite``.
"""


def pytest_ignore_collect(collection_path, config):
    if config.getoption("benchmark_only", default=False):
        return True
    return None
