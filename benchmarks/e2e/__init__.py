"""End-to-end control-plane benchmark (see README.md in this directory)."""
