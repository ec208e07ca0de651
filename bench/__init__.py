"""The repository's regression benchmark (see bench/README.md)."""
