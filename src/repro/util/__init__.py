"""Small shared utilities: bit manipulation, RNG, tables."""

from repro.util.bits import is_power_of_two, ilog2, mask, extract_bits
from repro.util.rng import SeededRng, derive_seed
from repro.util.tables import format_table

__all__ = [
    "is_power_of_two",
    "ilog2",
    "mask",
    "extract_bits",
    "SeededRng",
    "derive_seed",
    "format_table",
]
