"""One cold set-up: import concord and build every Profile from its document.

Reads the documents as a JSON list on stdin, then times, from inside a fresh
interpreter, ``import concord`` plus ``parse_profile`` on each document, and
prints the seconds. ``run.py`` starts it several times, spread over a run,
and reports the best as ``setup_s``.

Usage: python3 perfbench/setup_probe.py <src dir>  < documents.json
"""

import json
import sys
import time

texts = json.loads(sys.stdin.read())
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import concord  # noqa: E402

profiles = [concord.parse_profile(text) for text in texts]
print(repr(time.perf_counter() - t0))
