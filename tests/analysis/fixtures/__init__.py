"""Committed lint fixtures: each file deliberately violates a rule and is
asserted to keep triggering it (the rules' living documentation). Never
imported at runtime."""
