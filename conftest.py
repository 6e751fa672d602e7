"""Test-session settings: the suite imports nforders from src/ in its own
process, so it writes no bytecode there, whatever PYTHONDONTWRITEBYTECODE
says."""

import sys

sys.dont_write_bytecode = True
