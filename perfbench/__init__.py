"""Benchmark for the dskg package; see README.md in this directory."""
