"""Bootstrap draws of observation ids: the oracle for the position draws of
``flexlogit.inference``.

``resample_ids`` draws ids from the dataset; ``ChoiceDataset.resample`` of
the result is a replicate built from scratch. ``inference`` draws positions
on the compiled ``Design`` with the same ``rng.choice`` calls, so its draws
must equal ``np.searchsorted(data.unique_obs(), resample_ids(...))``.
"""

import numpy as np


def resample_ids(data, rng, stratified):
    uniq = data.unique_obs()
    if not stratified:
        return rng.choice(uniq, size=uniq.shape[0], replace=True)
    chosen = data.chosen_alt_by_obs()
    picks = []
    for a in data.alternatives:
        stratum = uniq[chosen == a]
        if stratum.shape[0]:
            picks.append(rng.choice(stratum, size=stratum.shape[0], replace=True))
    return np.concatenate(picks)
