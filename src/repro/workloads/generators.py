"""Elementary trace generators.

Each generator produces a :class:`~repro.workloads.trace.Trace` with a
well-understood locality structure; the phased application models in
:mod:`repro.workloads.synthetic` compose them.  Addresses are line
granular (multiples of ``line_size``) on top of a ``base`` offset so
multiple generators can be laid out in disjoint address regions.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import ConfigurationError
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace


def _lines_to_trace(name: str, lines: list[int], line_size: int, base: int) -> Trace:
    return Trace(name=name, addresses=tuple(base + line * line_size for line in lines))


def sequential_scan(
    num_lines: int, passes: int = 1, line_size: int = 64, base: int = 0
) -> Trace:
    """Stream through ``num_lines`` lines, ``passes`` times.

    The classic streaming pattern: no reuse within a pass; reuse distance
    across passes equals the footprint, so it thrashes any cache smaller
    than the footprint under LRU but not under LIP/BIP-style insertion.
    """
    if num_lines < 1 or passes < 1:
        raise ConfigurationError("num_lines and passes must be >= 1")
    lines = [line for _ in range(passes) for line in range(num_lines)]
    return _lines_to_trace(f"scan-{num_lines}x{passes}", lines, line_size, base)


def cyclic_loop(
    working_set_lines: int, iterations: int, line_size: int = 64, base: int = 0
) -> Trace:
    """A tight loop over a fixed working set (scan repeated many times)."""
    trace = sequential_scan(working_set_lines, iterations, line_size, base)
    return Trace(name=f"loop-{working_set_lines}w", addresses=trace.addresses)


def random_uniform(
    num_lines: int, length: int, seed: int = 0, line_size: int = 64, base: int = 0
) -> Trace:
    """Uniformly random accesses over ``num_lines`` lines (no locality)."""
    if num_lines < 1 or length < 1:
        raise ConfigurationError("num_lines and length must be >= 1")
    rng = SeededRng(seed)
    lines = [rng.randrange(num_lines) for _ in range(length)]
    return _lines_to_trace(f"random-{num_lines}", lines, line_size, base)


def zipf(
    num_lines: int,
    length: int,
    alpha: float = 1.0,
    seed: int = 0,
    line_size: int = 64,
    base: int = 0,
) -> Trace:
    """Zipf-distributed accesses: few hot lines, a long cold tail.

    Models the skewed reuse typical of pointer-rich integer codes.
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    rng = SeededRng(seed)
    weights = [1.0 / (rank**alpha) for rank in range(1, num_lines + 1)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    # The first line whose cumulative weight reaches the draw; rounding
    # can leave the total just below 1, so clamp to the last line (line
    # 0 when there are no lines).
    last = max(num_lines - 1, 0)
    lines = [min(bisect_left(cumulative, rng.random()), last) for _ in range(length)]
    return _lines_to_trace(f"zipf-{num_lines}-a{alpha:g}", lines, line_size, base)


def strided(
    stride_lines: int, length: int, footprint_lines: int, line_size: int = 64, base: int = 0
) -> Trace:
    """Constant-stride walk, wrapping inside a footprint (matrix columns)."""
    if stride_lines < 1 or footprint_lines < 1:
        raise ConfigurationError("stride_lines and footprint_lines must be >= 1")
    lines = [(i * stride_lines) % footprint_lines for i in range(length)]
    return _lines_to_trace(f"stride-{stride_lines}", lines, line_size, base)


def pointer_chase(
    num_lines: int, length: int, seed: int = 0, line_size: int = 64, base: int = 0
) -> Trace:
    """Walk a random Hamiltonian cycle over ``num_lines`` lines.

    Every line is revisited exactly every ``num_lines`` accesses — the
    worst-case reuse distance for its footprint, like a randomized linked
    list traversal.
    """
    if num_lines < 1 or length < 1:
        raise ConfigurationError("num_lines and length must be >= 1")
    rng = SeededRng(seed)
    order = list(range(num_lines))
    rng.shuffle(order)
    lines = [order[i % num_lines] for i in range(length)]
    return _lines_to_trace(f"chase-{num_lines}", lines, line_size, base)


def hot_cold(
    hot_lines: int,
    cold_lines: int,
    length: int,
    hot_fraction: float = 0.9,
    seed: int = 0,
    line_size: int = 64,
    base: int = 0,
) -> Trace:
    """A small hot set absorbing most accesses plus a large cold region."""
    if not 0.0 < hot_fraction < 1.0:
        raise ConfigurationError("hot_fraction must be in (0, 1)")
    rng = SeededRng(seed)
    lines = []
    for _ in range(length):
        if rng.random() < hot_fraction:
            lines.append(rng.randrange(hot_lines))
        else:
            lines.append(hot_lines + rng.randrange(cold_lines))
    return _lines_to_trace(f"hotcold-{hot_lines}/{cold_lines}", lines, line_size, base)
