"""No acceleration layer; ``perfbench/worker.py`` still imports this flag."""

NUMBA_ENABLED = False
