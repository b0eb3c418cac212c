"""Benchmark harness for eicount; see perfbench/README.md."""
