"""Training in every test runs on at most two worker processes."""

import pytest

from stwnn import training


@pytest.fixture(scope="session", autouse=True)
def _at_most_two_training_workers():
    count = training._worker_count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_worker_count",
                   lambda batch_size, n_samples: min(2, count(batch_size, n_samples)))
        yield
