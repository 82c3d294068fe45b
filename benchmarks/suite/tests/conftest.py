"""Self-tests of the benchmark suite.

Run explicitly (they are not part of the tier-1 ``testpaths``)::

    python -m pytest benchmarks/suite/tests -q

The harness modules import each other by bare name, the way ``run.py``
sees them as a script, so its directory and ``src/`` go on the path here.
"""

import os
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]

for entry in (str(ROOT / "src"), str(SUITE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
)
