"""Hypergraph beam-search retrosynthesis planner and model evaluation harness."""

__version__ = "0.1.0"
