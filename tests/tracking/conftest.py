"""The tracker kernel a tracking test runs on.

Tests take ``tracker_class`` and construct it.  It is the shipped
:class:`~repro.tracking.ColumnarTracker`, unless the test class sets
``kernel``: each tracker test class has an ``...OnOracle`` subclass setting
it to the scalar reference of ``tests/tracking/oracle.py``, so every test
runs on both kernels under one body.
"""

import pytest

from repro.tracking import ColumnarTracker


@pytest.fixture
def tracker_class(request):
    """The kernel under test: the class's ``kernel``, else the shipped one."""
    return getattr(request.cls, "kernel", ColumnarTracker)
