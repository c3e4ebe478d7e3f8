"""Stage-budget benchmark for the hierarchical hypersparse matrix stack.

Run ``python3 -m bench`` from the repository root (see ``bench/README.md``).
Importing this package starts nothing; ``bench.__main__`` is the entry point.
"""
