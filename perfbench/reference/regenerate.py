"""Recompute the committed batch-cold answer digests.

Run from the repository root after a change that is meant to alter the
pipeline's answer::

    python3 perfbench/reference/regenerate.py

Each digest is the sha256 of ``PipelineResult.canonical_json(
include_marginals=True)`` from the independent reference path (loopy BP,
full checker, no cache) on one batch-cold program; a seed has one digest
per program of its run.  The command fails if the timed path (compiled
BP, auto checker tier) disagrees with the reference on any program,
because the benchmark would then count every op on it as failed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Seeds with a committed digest; a run on any other seed computes its
#: reference after the timed window instead.
SEEDS = range(32)


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from repro.corpus.iterator_api import ITERATOR_API_SOURCE

    from perfbench import workloads

    digests = {}
    for seed in SEEDS:
        digests[str(seed)] = []
        for index in range(workloads.BATCH_PROGRAMS):
            sources = [ITERATOR_API_SOURCE] + workloads.corpus_sources(
                workloads.project_seed(seed, index), workloads.BATCH_SCALE
            )
            reference = workloads.digest(
                workloads.answer(workloads.reference_result(sources))
            )
            timed = workloads.digest(
                workloads.answer(workloads.cold_pipeline().run_on_sources(sources))
            )
            if timed != reference:
                print("seed %d program %d: timed path disagrees with the "
                      "reference" % (seed, index), file=sys.stderr)
                return 1
            digests[str(seed)].append(reference)
            print("seed %d program %d %s" % (seed, index, reference), flush=True)
    with open(os.path.join(HERE, "batch-cold.json"), "w",
              encoding="utf-8") as handle:
        json.dump(
            {
                "scale": workloads.BATCH_SCALE,
                "call_density": workloads.CALL_DENSITY,
                "programs": workloads.BATCH_PROGRAMS,
                "made_by": "sha256 of PipelineResult.canonical_json("
                "include_marginals=True) from a loopy-engine, full-checker, "
                "cache-less run of each batch-cold program of each seed",
                "answer_sha256": digests,
            },
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
