"""The option ratchet: how many values a deployment can set, pinned.

The paper's settable surface is two tables (Table 2: N, ω, β, ρ; Table 3:
v_min, α, ΔT, Δθ, r, m), held by ``WindowSpec`` / ``TrackingParameters`` /
``MaritimeConfig`` / ``PairwiseConfig`` and not counted here.  Everything
this file counts is deployment plumbing wrapped around that pipeline, and
every independently settable value there doubles the configurations the
tests and the benchmark would have to cover.
"""

import dataclasses
import inspect

import pytest

from repro.__main__ import build_parser
from repro.gateway import GatewayClusterConfig
from repro.pipeline import SystemConfig
from repro.runtime import ParallelSurveillanceSystem
from repro.runtime.supervisor import Supervisor
from repro.service import ServiceConfig

RULE = (
    "a value is settable only if two non-test callers pass different "
    "values or it is a deployment setting (address, port, path, transport "
    "name, fsync policy); anything else is a named module constant next "
    "to the code that reads it, and no layer re-declares a lower layer's "
    "option to copy it through — raise this number only with that "
    "justification in the PR"
)


def _parameters(function) -> int:
    """Constructor parameters a caller can pass (``self`` excluded)."""
    return len(inspect.signature(function).parameters) - 1


@pytest.mark.parametrize(
    "layer, count, pinned",
    [
        ("SystemConfig", len(dataclasses.fields(SystemConfig)), 10),
        ("ServiceConfig", len(dataclasses.fields(ServiceConfig)), 18),
        (
            "GatewayClusterConfig",
            len(dataclasses.fields(GatewayClusterConfig)),
            11,
        ),
        ("Supervisor.__init__", _parameters(Supervisor.__init__), 4),
        (
            "ParallelSurveillanceSystem.__init__",
            _parameters(ParallelSurveillanceSystem.__init__),
            6,
        ),
        # 19 flags plus argparse's own --help.
        ("python -m repro", len(build_parser()._actions), 20),
    ],
)
def test_settable_values_are_pinned(layer, count, pinned):
    assert count == pinned, f"{layer}: {count} options, pinned at {pinned} — {RULE}"
