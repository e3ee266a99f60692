"""Run the suite from a source checkout without installing the package:
put ``src`` first on ``sys.path`` for this process and on ``PYTHONPATH``
for the CLI subprocesses the tests start."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in paths if p])
