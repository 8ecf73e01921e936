"""``python -m repro`` entry point."""

import gc

from repro.cli import main

status = main()
# Interpreter shutdown runs full collections over everything still alive:
# the corpus, the decoded results, their caches.  Freezing it first leaves
# shutdown an empty young heap to scan.  A frozen garbage cycle is never
# collected, so only a finalizer on one could be skipped, and no repro
# object has one.  This sits at the process boundary, not in ``main``:
# tests and perfbench's launcher call ``main`` in-process, and their
# collector stays as they left it.
gc.freeze()
raise SystemExit(status)
