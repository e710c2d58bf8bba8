"""Benchmark harness for the stieltjes package; see perfbench/README.md."""
