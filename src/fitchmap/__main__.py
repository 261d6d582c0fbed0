"""``python -m fitchmap``: the fitchmap command line."""

from .cli import entry

entry()
