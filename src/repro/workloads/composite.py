"""Composite victims: several applications sharing the target GPU.

Section VI: "in real scenarios, there will potentially be other concurrent
applications running on GPUs."  A :class:`CompositeWorkload` launches
several member workloads as concurrent kernels of one victim process, so
the spy's memorygram records their superposition -- the realistic input
for robustness studies of the fingerprinting attack.
"""

from __future__ import annotations

from typing import Any, Generator, List, Sequence

from ..runtime.api import Runtime
from ..sim.process import Process
from .base import TraceWorkload

__all__ = ["CompositeWorkload"]


class CompositeWorkload:
    """Run several workloads concurrently inside one victim process.

    Implements the :class:`~repro.workloads.base.Workload` protocol.  The
    memorygram prober launches ``kernel()`` as one stream; the composite
    kernel immediately *spawns* its members as sibling streams through the
    runtime and then joins them by watching their completion flags, so all
    members overlap in time.
    """

    def __init__(self, members: Sequence[TraceWorkload], name: str = "") -> None:
        if not members:
            raise ValueError("composite needs at least one member workload")
        self.members = list(members)
        self.name = name or "+".join(member.name for member in self.members)
        self._runtime: Runtime = None  # type: ignore[assignment]
        self._process: Process = None  # type: ignore[assignment]
        self._gpu_id = 0

    def allocate(self, runtime: Runtime, process: Process, gpu_id: int) -> None:
        self._runtime = runtime
        self._process = process
        self._gpu_id = gpu_id
        for member in self.members:
            member.allocate(runtime, process, gpu_id)

    def kernel(self) -> Generator[Any, Any, Any]:
        from ..sim.ops import ReadClock, Sleep

        done: List[object] = []
        total = len(self.members)

        def wrapped(inner):
            result = yield from inner
            done.append(True)
            return result

        now = yield ReadClock()
        for index, member in enumerate(self.members):
            self._runtime.launch(
                wrapped(member.kernel()),
                self._gpu_id,
                self._process,
                name=f"{self.name}_member{index}",
                start=now,
            )
        # Join: poll the completion flags (host-side stream sync).
        while len(done) < total:
            yield Sleep(20_000.0)
