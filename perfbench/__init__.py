"""Repository benchmark: see perfbench/README.md."""
