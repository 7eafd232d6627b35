"""End-to-end and per-layer benchmark of the NR-Scope reproduction."""
