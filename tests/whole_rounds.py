"""``measure.sample_mu`` with every round on all its columns at once.

The oracle of the sampler's blocked rounds: each round draws its eight rows
as ``rng.random(k)`` and runs ``measure._sampler_round`` once on all k
proposals, and the round's envelope check takes the largest ratio of all k.
"""

import numpy as np

from ietlab import kernels, measure


def sample_mu_whole_rounds(spec, count, seed):
    """The samples and counts of ``sample_mu(spec, count, seed)``:
    ``(idx, off, hei, roof, (proposals, accepted, band_rejects,
    step_discards))``.
    Raises the sampler's envelope and stall errors."""
    backend = kernels.batch_kernels()
    table = measure._envelope_table(spec)
    stats = measure.PointBatch(*(np.empty(0) for _ in range(4)))
    parts = []
    for ci, want in enumerate(measure._chunk_sizes(count)):
        rng = measure._chunk_rng(seed, ci)
        got = 0
        for _ in range(measure.SAMPLE_MAX_ROUNDS):
            if got == want:
                break
            k = want - got
            draws = (rng.random(k) for _ in range(measure.DRAWS_PER_ROUND))
            ratio, over, _, idx, off, hei, roof = measure._sampler_round(
                table, backend, draws, k, stats)
            if np.any(over):
                raise measure._envelope_error(float(np.max(ratio)))
            take = min(idx.shape[0], k)
            parts.append((idx[:take], off[:take], hei[:take], roof[:take]))
            got += take
            stats.accepted += take
        if got < want:
            raise measure._stall_error()
    idx, off, hei, roof = (np.concatenate(a) for a in zip(*parts))
    return idx, off, hei, roof, (stats.proposals, stats.accepted,
                           stats.band_rejects, stats.step_discards)
