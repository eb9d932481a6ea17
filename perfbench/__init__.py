"""End-to-end benchmark of the RABIT guard (see README.md)."""
