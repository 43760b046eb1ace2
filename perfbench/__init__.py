"""Round-level benchmark of the Fed-CDP simulation (see perfbench/README.md)."""
