"""The medium the storage unit tests run on.

A test that takes ``medium`` runs on a directory; a test class that
sets ``in_memory = True`` (the ``...InMemory`` subclasses) runs the same
tests on a :class:`~repro.storage.medium.MemoryMedium`.  Damage is done
through the medium too, so one test body covers both.
"""

import pytest

from repro.storage.medium import DiskMedium, MemoryMedium


@pytest.fixture
def medium(request, tmp_path):
    if getattr(request.cls, "in_memory", False):
        return MemoryMedium()
    return DiskMedium(str(tmp_path / "medium"))
