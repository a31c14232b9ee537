"""Whole-system benchmark of the leakage estimator; see README.md."""
