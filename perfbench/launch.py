"""Run the ``repro`` CLI in-process with timers around the calls into each layer.

Usage::

    PYTHONPATH=src python3 perfbench/launch.py SPANS_JSON [--profile STATS] -- CLI_ARGS...

It does what ``python -m repro CLI_ARGS...`` does (``repro.cli.main``), and
records from outside the program, without changing it:

* ``import_done`` and ``cli_done`` - monotonic clock when ``repro.cli``
  finished importing and when its ``main`` returned;
* ``corpus.generate``, ``reporting.render`` and ``telemetry.export`` - the
  seconds spent in ``CorpusGenerator.generate``, ``render_study_stdout`` and
  the ``Recorder`` trace/metrics writers.

They are written to SPANS_JSON when the CLI returns.  With ``--profile`` the
whole run, imports included, is under ``cProfile`` and its stats go to STATS.
"""

import importlib
import json
import sys
import time

#: (span name, module, class or None, function) timed by the launcher.
WRAPPED = [
    ("corpus.generate", "repro.corpus.generator", "CorpusGenerator", "generate"),
    ("reporting.render", "repro.cli", None, "render_study_stdout"),
    ("telemetry.export", "repro.core.obs.recorder", "Recorder", "write_trace"),
    ("telemetry.export", "repro.core.obs.recorder", "Recorder", "write_metrics"),
]


def _timed(totals, name, func):
    def wrapper(*args, **kwargs):
        start = time.monotonic()
        try:
            return func(*args, **kwargs)
        finally:
            totals[name] = totals.get(name, 0.0) + time.monotonic() - start

    return wrapper


def _wrap_layers(totals) -> None:
    for name, module_name, class_name, attr in WRAPPED:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        setattr(owner, attr, _timed(totals, name, getattr(owner, attr)))


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    spans_path = own[0]
    profile_path = own[own.index("--profile") + 1] if "--profile" in own else None
    profiler = None
    if profile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    import repro.cli

    record = {"import_done": time.monotonic(), "repro_file": repro.cli.__file__}
    totals = {}
    _wrap_layers(totals)
    try:
        return repro.cli.main(cli_args)
    finally:
        record["cli_done"] = time.monotonic()
        record["seconds"] = totals
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile_path)
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
