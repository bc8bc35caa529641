"""``python -m corralign``: the ``corralign`` command from a checkout."""

from .cli import entry

if __name__ == "__main__":
    entry()
