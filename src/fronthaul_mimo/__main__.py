"""``python -m fronthaul_mimo`` runs the ``fhmimo`` command line from a
checkout on ``PYTHONPATH`` that is not installed."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
