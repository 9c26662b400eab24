"""Benchmark of the psdlandscape CLI; see README.md."""
