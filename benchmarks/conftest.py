import sys
from pathlib import Path

# The benchmark runs against the checkout's own sources, paired with the
# frozen reference copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent / "reference"))
