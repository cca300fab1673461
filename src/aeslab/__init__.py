"""Fault and timing-anomaly injection lab for an AES-128-ECB pipeline."""

__version__ = "0.1.0"
