"""python -m rotform: the rotform command line (rotform.cli)."""
from .cli import console_main

console_main()
