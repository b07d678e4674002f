"""Deterministic lane planning over the SCC condensation.

The process executor runs one *lane* (a one-worker process pool) per
job and splits each condensation level's methods across the lanes;
summaries and evidence are exchanged only at the level barrier.
Because every solve within a level reads the *level-start* summary
snapshot and merged outcomes are reassembled in sorted method-key order
before any store mutation, the partition can never change results — it
only changes which worker computed each outcome.

The plan is *global*: one assignment covering every method of the
condensation, computed level-major with greedy least-loaded placement
and a stable tie-break.  A global plan pins each method to one lane for
the whole run, so the lane's worker builds the method's model once and
reuses it in later rounds — the same build/reuse/skip sequence as the
serial executor.
"""


def plan_shards(levels, shard_count, key_of):
    """``{method_ref: shard index}`` for every method in ``levels``.

    Level-major, sorted-key order within each level, greedy least-loaded
    assignment with ties broken by the lowest shard index.  Methods of
    the same SCC sit in the same level, so an SCC's Jacobi iterates stay
    within whatever shards its members landed in — the plan only ever
    splits work that the level barrier already synchronizes.
    """
    assignment = {}
    if shard_count <= 1:
        for level in levels:
            for ref in level:
                assignment[ref] = 0
        return assignment
    loads = [0] * shard_count
    for level in levels:
        for ref in sorted(level, key=lambda item: key_of[item]):
            shard = min(range(shard_count), key=lambda s: (loads[s], s))
            assignment[ref] = shard
            loads[shard] += 1
    return assignment
