"""Repository benchmark: see WORKLOADS.md."""
