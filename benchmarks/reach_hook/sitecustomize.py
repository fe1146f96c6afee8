"""The reachability census's probe (``benchmarks/reach.py``).

Python imports ``sitecustomize`` from ``sys.path`` at start-up, so every
process whose ``PYTHONPATH`` holds the census's copy of ``src/`` runs
this: the artifact itself, and each Python child it starts.  With
``REACH_OUT`` set, it records with ``sys.setprofile`` every code object
the process enters and, when the process exits, writes those whose file
lies under ``REACH_PKG`` to one new file in ``REACH_OUT``, one
``path<TAB>first line<TAB>name`` line each.  Without ``REACH_OUT`` it
does nothing.
"""

import atexit
import os
import sys
import tempfile
import threading

_OUT = os.environ.get("REACH_OUT")

if _OUT:
    _PKG = os.path.realpath(os.environ["REACH_PKG"]) + os.sep
    _seen = set()

    def _profile(frame, event, arg):
        if event == "call":
            _seen.add(frame.f_code)

    def _write():
        sys.setprofile(None)
        paths = {name: os.path.realpath(name) for name in {c.co_filename for c in _seen}}
        lines = sorted({
            f"{paths[c.co_filename][len(_PKG):]}\t{c.co_firstlineno}\t{c.co_name}\n"
            for c in _seen
            if paths[c.co_filename].startswith(_PKG)
        })
        fd, _ = tempfile.mkstemp(suffix=".txt", dir=_OUT)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)

    atexit.register(_write)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
