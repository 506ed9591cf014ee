"""Command-line entry points: trace generation, experiments, campaigns.

Each submodule exposes ``main(argv)`` and is runnable as
``python -m repro.tools.<name>``.  The package imports none of them, so
launching one CLI loads only that CLI.
"""
