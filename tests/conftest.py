"""Training and prediction in every test run on at most two workers."""

import pytest

from stwnn import training


@pytest.fixture(scope="session", autouse=True)
def _at_most_two_training_workers():
    count = training._worker_count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_worker_count",
                   lambda *limits: min(2, count(*limits)))
        yield
