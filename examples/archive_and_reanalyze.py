#!/usr/bin/env python
"""Archive captures to JSON and re-run detection offline.

The original study published its dataset so others could re-analyze it
without a testbed.  This example shows the reproduction's equivalent:
run the dynamic experiments once, archive both captures per app, then —
as a separate consumer with no access to the simulation — reload them and
re-run the differential detector, verifying the verdicts agree.

Run:
    python examples/archive_and_reanalyze.py [--outdir captures/]
"""

import argparse
import pathlib

from repro.core.dynamic import DynamicPipeline, detect_pinned_destinations
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.netsim.export import dump_capture, load_capture


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=str, default="captures")
    parser.add_argument("--scale", type=float, default=0.03)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    corpus = CorpusGenerator(CorpusConfig(seed=2022).scaled(args.scale)).generate()
    pipeline = DynamicPipeline(corpus)

    print("== Phase 1: measure and archive ==")
    archived = []
    for packaged in corpus.dataset("ios", "popular"):
        result = pipeline.run_app(packaged)
        direct, mitm = pipeline.captures(packaged)
        stem = packaged.app.app_id
        (outdir / f"{stem}.direct.json").write_text(dump_capture(direct))
        (outdir / f"{stem}.mitm.json").write_text(dump_capture(mitm))
        archived.append(
            (stem, result.pinned_destinations, sorted(result.excluded_destinations))
        )
    print(f"archived {2 * len(archived)} capture files to {outdir}/")

    print("\n== Phase 2: offline re-analysis from the archive ==")
    agreements = 0
    for app_id, original_verdict, excluded in archived:
        direct = load_capture((outdir / f"{app_id}.direct.json").read_text())
        mitm = load_capture((outdir / f"{app_id}.mitm.json").read_text())
        verdicts = detect_pinned_destinations(direct, mitm, excluded)
        pinned = {d for d, v in verdicts.items() if v.pinned}
        if pinned == original_verdict:
            agreements += 1
        if pinned:
            print(f"  {app_id}: pinned {sorted(pinned)}")
    print(
        f"\noffline verdicts agree with the live run for "
        f"{agreements}/{len(archived)} apps"
    )


if __name__ == "__main__":
    main()
