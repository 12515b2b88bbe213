"""The repository benchmark's lookups into the library still resolve.

``perfbench/`` lives outside ``src/`` and reaches about sixty library
names: the entry points its tracer wraps and the values its environment
record stamps.  Dropping or renaming one of them in ``src/`` breaks the
benchmark and nothing else, so these tests install the tracer (every
name it wraps must resolve), take it out again, and read the stamps.
"""

from perfbench import bench, tracing
from repro.kernels import engine, vector

#: The keys every perfbench record is stamped with; records compare
#: only when all of them are equal.
ENVIRONMENT_KEYS = {
    "python",
    "nproc",
    "numpy",
    "kernel_enabled",
    "vector_enabled",
    "trie_enabled",
    "peak_rss_per_pass",
}


def test_tracer_installs_and_uninstalls():
    original = engine.try_simulate_trace
    tracer = tracing.install()
    try:
        assert engine.try_simulate_trace is not original
    finally:
        tracer.uninstall()
    assert engine.try_simulate_trace is original


def test_environment_stamps():
    environment = bench.environment()
    assert set(environment) == ENVIRONMENT_KEYS
    assert environment["kernel_enabled"] is True
    assert environment["numpy"] is environment["vector_enabled"] is vector.available()
    assert environment["trie_enabled"] is False
