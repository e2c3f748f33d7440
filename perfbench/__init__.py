"""End-to-end benchmark of the repro runtime resource manager (see run.py)."""
