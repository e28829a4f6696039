"""Cost ledger of the analyzer: four seeded workloads measured end to end
from the caller's side, per-layer self times from a traced pass, and a
correctness gate on every verdict.  Run ``python -m benchmarks.ledger``;
see README.md in this directory."""
