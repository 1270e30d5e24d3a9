"""End-to-end and per-layer benchmark of the partitioning toolchain."""
