import sys
from pathlib import Path

# The benchmark measures the program in this checkout's src/, not an installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
