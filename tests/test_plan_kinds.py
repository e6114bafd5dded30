"""Both plan drivers reject a segment its plan kind cannot hold.

An :class:`~repro.sim.ops.AccessEpoch` holds L2 bursts, idles and
repeats; a :class:`~repro.sim.ops.LinkEpoch` holds link bursts, floods,
pads and cycles-only idles.  The epoch cursor and
:func:`~repro.sim.epoch.unroll` check a plan's segments before they
service any of it, so a mis-kinded plan raises with the box untouched:
engine clock, GPU counters and link counters as they were.
"""

from __future__ import annotations

import pytest

from repro.config import DGXSpec
from repro.errors import SimulationError
from repro.runtime.api import Runtime
from repro.sim.epoch import unroll
from repro.sim.ops import (
    AccessEpoch,
    EpochBurst,
    EpochIdle,
    EpochRepeat,
    LinkBurst,
    LinkEpoch,
    LinkFlood,
    LinkPad,
)

LINES = 32


def _burst(buf, wpl):
    return EpochBurst(buf, (tuple(line * wpl for line in range(LINES)),))


# Each plan opens with a segment its kind does hold, so a driver that
# checked segments only on reaching them would service that one first.
MISKINDED = {
    "access-link-burst": lambda buf, wpl: AccessEpoch(
        (_burst(buf, wpl), LinkBurst(1))
    ),
    "access-link-flood": lambda buf, wpl: AccessEpoch(
        (_burst(buf, wpl), LinkFlood(1, occupancy_per_transfer=10.0))
    ),
    "access-link-pad": lambda buf, wpl: AccessEpoch(
        (_burst(buf, wpl), LinkPad(until=5000.0))
    ),
    "link-epoch-burst": lambda buf, wpl: LinkEpoch(
        (LinkBurst(1, record=True), _burst(buf, wpl))
    ),
    "link-epoch-repeat": lambda buf, wpl: LinkEpoch(
        (LinkBurst(1), EpochRepeat(_burst(buf, wpl), until=50_000.0))
    ),
    "link-chunked-idle": lambda buf, wpl: LinkEpoch(
        (LinkBurst(1), EpochIdle(until=5000.0, chunk=1000.0))
    ),
}


def _box(epoch_dispatch: bool):
    rt = Runtime(DGXSpec.small(), seed=3, epoch_dispatch=epoch_dispatch)
    proc = rt.create_process("kinds")
    rt.enable_peer_access(proc, 0, 1)
    buf = rt.malloc_lines(proc, 1, LINES)
    wpl = rt.system.spec.gpu.cache.line_size // 8
    return rt, proc, buf, wpl


def _state(rt: Runtime):
    return (
        rt.engine.now,
        [gpu.counters.snapshot() for gpu in rt.system.gpus],
        rt.system.interconnect.counters_snapshot(),
    )


@pytest.mark.parametrize("epoch_dispatch", [True, False], ids=["cursor", "unroll"])
@pytest.mark.parametrize("name", sorted(MISKINDED))
def test_driver_rejects_miskinded_plan_before_servicing(name, epoch_dispatch):
    rt, proc, buf, wpl = _box(epoch_dispatch)
    plan = MISKINDED[name](buf, wpl)

    def kernel():
        return (yield plan)

    before = _state(rt)
    with pytest.raises(SimulationError, match="cannot hold segment"):
        rt.run_kernel(kernel(), 0, proc)
    assert _state(rt) == before


@pytest.mark.parametrize("name", sorted(MISKINDED))
def test_unroll_rejects_miskinded_plan_up_front(name):
    rt, _proc, buf, wpl = _box(False)
    with pytest.raises(SimulationError, match="cannot hold segment"):
        next(unroll(MISKINDED[name](buf, wpl)))
