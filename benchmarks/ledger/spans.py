"""Layer spans for the performance ledger, recorded from outside ``src/``.

The ledger never edits the simulator.  It wraps the public entry points of
each layer (a class method or a module function) in place, records one
span per entry into a layer, and aggregates the spans in memory as a call
tree per ``(seed, section)``: each node is one stack of layers, holding
its call count, inclusive seconds, self seconds (inclusive minus the
child spans) and work-unit counts.  Self times partition the section's
wall time exactly: the section itself is the root span, on layer
``core``, so ``core`` self time is the residual -- attack logic, victim
generation, decoding, and the kernel coroutines the engine resumes.

A call that re-enters the layer it is already in opens no new span (the
fused ``_service_burst_small`` loop stays inside its ``service_burst``
span; ``multi_server_waits`` calling ``single_server_waits`` stays one
occupancy span), so ``calls`` counts entries into a layer from outside it.

Attack set-up (``setup()``, ``LinkgramRecorder.calibrate`` and
``Runtime.__init__``) is recorded on the pseudo-layer ``core.setup``: its
self time folds back into ``core`` and its inclusive time is the set-up
time.  Only the outermost set-up call counts.  These wrappers are coarse
(tens of calls per section), so untraced runs install them alone to time
set-up.

Module functions imported elsewhere with ``from ... import`` are bound in
several module namespaces; :meth:`Patches.function` replaces every
``repro`` module global that holds the original, and ``restore`` puts
every one back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "BOUNDARIES",
    "COVERAGE",
    "LAYERS",
    "OCCUPANCY_IMPORTERS",
    "SETUP",
    "SETUP_BOUNDARIES",
    "Node",
    "Patches",
    "Recorder",
    "install",
    "leftover_wrappers",
]

perf = time.perf_counter


def _one(args, kwargs) -> int:
    return 1


def _arg(index: int, name: str):
    """Fetch a call argument by position (``self`` is 0) or keyword."""

    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs[name]

    return get


def _size(index: int, name: str):
    get = _arg(index, name)
    return lambda args, kwargs: int(get(args, kwargs).size)


def _length(index: int, name: str):
    get = _arg(index, name)
    return lambda args, kwargs: len(get(args, kwargs))


def _plan_count(args, kwargs) -> int:
    return int(_arg(1, "plan")(args, kwargs).count)


_PART = "repro.defense.partitioning"

# Layer entry points: (layer, "module:qualname", work-unit counter).  The
# counter turns a call's arguments into the layer's work units: cache
# lines for hw.cache, link transfers for hw.interconnect.
BOUNDARIES: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("hw.cache", "repro.hw.cache:VectorL2Cache.access", _one),
    ("hw.cache", "repro.hw.cache:VectorL2Cache.access_lines", _size(1, "paddrs")),
    ("hw.cache", "repro.hw.cache:VectorL2Cache.access_lines_planned", _plan_count),
    ("hw.cache", "repro.hw.cache:VectorL2Cache.plan_epoch", None),
    ("hw.cache", "repro.hw.cache:L2Cache.access", _one),
    ("hw.occupancy", "repro.hw.occupancy:single_server_waits", None),
    ("hw.occupancy", "repro.hw.occupancy:single_server_waits_scalar", None),
    ("hw.occupancy", "repro.hw.occupancy:multi_server_waits", None),
    ("hw.occupancy", "repro.hw.occupancy:multi_server_waits_scalar", None),
    ("hw.occupancy", "repro.hw.dram:HBMStack.occupy", None),
    ("hw.occupancy", "repro.hw.dram:HBMStack.occupy_batch", None),
    ("hw.system", "repro.hw.system:MultiGPUSystem.service_burst", None),
    ("hw.system", "repro.hw.system:MultiGPUSystem.access_batch", None),
    ("hw.system", "repro.hw.system:MultiGPUSystem.access_word", None),
    ("hw.system", "repro.hw.system:MultiGPUSystem.access_epoch", None),
    ("hw.system", "repro.hw.system:MultiGPUSystem.probe_link", None),
    ("hw.system", "repro.hw.system:MultiGPUSystem.service_link_burst", None),
    ("sim.engine", "repro.sim.engine:Engine.run", None),
    ("sim.epoch", "repro.sim.epoch:EpochCursor.resume", None),
    ("sim.epoch", "repro.sim.epoch:LinkEpochCursor.resume", None),
    ("hw.interconnect", "repro.hw.interconnect:Interconnect.transfer", _one),
    ("hw.interconnect", "repro.hw.interconnect:Interconnect.transfer_batch", _size(3, "stamps")),
    ("hw.interconnect", "repro.hw.interconnect:FabricFlow.advance_batch", _size(1, "stamps")),
    ("hw.interconnect", "repro.hw.interconnect:FabricFlow.advance_batch_small", _length(1, "stamps")),
    ("hw.interconnect", "repro.hw.interconnect:FabricFlow.advance_one", _one),
    ("hw.interconnect", f"{_PART}:PartitionedInterconnect.transfer", _one),
    ("hw.interconnect", f"{_PART}:PartitionedInterconnect.transfer_batch", _size(3, "stamps")),
    ("hw.interconnect", f"{_PART}:_ShapedFabricFlow.advance_batch", _size(1, "stamps")),
    ("hw.interconnect", f"{_PART}:_ShapedFabricFlow.advance_batch_small", _length(1, "stamps")),
    ("hw.interconnect", f"{_PART}:_ShapedFabricFlow.advance_one", _one),
    ("analysis", "repro.analysis.classifier:MLPClassifier.fit", None),
    ("analysis", "repro.analysis.classifier:MLPClassifier.predict", None),
    ("analysis", "repro.analysis.classifier:MLPClassifier.predict_proba", None),
    ("analysis", "repro.analysis.classifier:MLPClassifier.score", None),
    ("analysis", "repro.analysis.features:memorygram_features", None),
    ("analysis", "repro.analysis.features:linkgram_features", None),
    ("analysis", "repro.analysis.metrics:accuracy_score", None),
    ("analysis", "repro.analysis.metrics:confusion_matrix", None),
    ("analysis", "repro.analysis.metrics:per_class_accuracy", None),
    ("analysis", "repro.analysis.metrics:render_confusion", None),
    ("analysis", "repro.analysis.metrics:classification_report", None),
    ("analysis", "repro.analysis.segmentation:segment_phases", None),
    ("chaos", "repro.chaos.plan:generate_plan", None),
    ("chaos", "repro.chaos.injector:install_chaos", None),
    ("chaos", "repro.chaos.injector:ChaosInjector.arm", None),
    ("chaos", "repro.chaos.injector:ChaosInjector.next_due", None),
    ("chaos", "repro.chaos.injector:ChaosInjector.advance", None),
)

SETUP = "core.setup"

#: Outermost attack set-up: Algorithm-1 discovery plus calibration.
SETUP_BOUNDARIES: Tuple[str, ...] = (
    "repro.runtime.api:Runtime.__init__",
    "repro.core.covert.channel:CovertChannel.setup",
    "repro.core.covert.multi:MultiGpuChannel.setup",
    "repro.core.sidechannel.prober:MemorygramProber.setup",
    "repro.core.sidechannel.fingerprint:FingerprintAttack.setup",
    "repro.core.sidechannel.model_extraction:ModelExtractionAttack.setup",
    "repro.core.linkchannel.covert:LinkCovertChannel.setup",
    "repro.core.linkchannel.sidechannel:LinkgramRecorder.setup",
    "repro.core.linkchannel.sidechannel:LinkgramRecorder.calibrate",
)

#: Reported layers, in ledger order; ``core`` is the section residual.
LAYERS: Tuple[str, ...] = (
    "hw.cache",
    "hw.occupancy",
    "hw.system",
    "sim.engine",
    "sim.epoch",
    "hw.interconnect",
    "core",
    "analysis",
    "chaos",
)

#: Layer -> workloads on which it must record calls (its predicted movers).
COVERAGE: Dict[str, Tuple[str, ...]] = {
    "hw.cache": ("memorygram",),
    "hw.occupancy": ("memorygram",),
    "hw.system": ("report-small", "covert"),
    "sim.engine": ("covert",),
    "sim.epoch": ("report-small", "fabric"),
    "hw.interconnect": ("memorygram", "covert", "fabric"),
    SETUP: ("covert", "fabric"),
    "analysis": ("report-small",),
    "chaos": ("covert",),
}

#: Module globals that ``from ... import`` binds to occupancy functions;
#: each must hold the wrapper while spans are recorded.
OCCUPANCY_IMPORTERS: Tuple[Tuple[str, str], ...] = (
    ("repro.hw.cache", "single_server_waits"),
    ("repro.hw.interconnect", "multi_server_waits"),
    ("repro.hw.interconnect", "multi_server_waits_scalar"),
    ("repro.sim.epoch", "multi_server_waits_scalar"),
    ("repro.defense.partitioning", "single_server_waits"),
    ("repro.defense.partitioning", "single_server_waits_scalar"),
)

ENGINE_COUNTERS: Tuple[str, ...] = (
    "events",
    "accesses",
    "epochs",
    "epoch_bursts",
    "epoch_accesses",
    "scalar_fallbacks",
)


class Node:
    """One stack of layers in a section's call tree."""

    __slots__ = ("layer", "calls", "incl", "self_s", "units", "counters", "children")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.units = 0
        self.counters: Dict[str, int] = {}
        self.children: Dict[str, "Node"] = {}

    def child(self, layer: str) -> "Node":
        node = self.children.get(layer)
        if node is None:
            node = self.children[layer] = Node(layer)
        return node

    def walk(self) -> Iterator["Node"]:
        """This node, then every descendant."""
        yield self
        for node in self.children.values():
            yield from node.walk()

    def to_json(self) -> dict:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "incl_s": self.incl,
            "self_s": self.self_s,
            "units": self.units,
            "counters": dict(self.counters),
            "children": [node.to_json() for node in self.children.values()],
        }


class Recorder:
    """Span stack plus the call trees, one per ``(seed, section)`` key."""

    def __init__(self) -> None:
        #: Open spans as ``[node, child_seconds]`` frames, root first.
        self.stack: List[list] = []
        self.sections: Dict[Tuple, Node] = {}
        self._setup_depth = 0

    def run_section(self, key: Tuple, fn: Callable[[], object]):
        """Call ``fn`` as the root span of ``key`` and return its result.

        The root's inclusive time is the section wall, so the layer self
        times under it sum to it.
        """
        root = self.sections.get(key)
        if root is None:
            root = self.sections[key] = Node("core")
        frame = [root, 0.0]
        self.stack.append(frame)
        start = perf()
        try:
            result = fn()
        finally:
            elapsed = perf() - start
            self.stack.pop()
            root.calls += 1
            root.incl += elapsed
            root.self_s += elapsed - frame[1]
        return result

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def span(self, layer: str, fn: Callable, units: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each entry into ``layer`` records one span."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0].layer == layer:
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = parent[0].child(layer)
            frame = [node, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[1] += elapsed
                node.calls += 1
                node.incl += elapsed
                node.self_s += elapsed - frame[1]
                if units is not None:
                    node.units += units(args, kwargs)

        wrapper.__ledger_layer__ = layer
        return wrapper

    def engine_span(self, fn: Callable) -> Callable:
        """``Engine.run`` span that also folds in ``EngineStats`` deltas."""
        span = self.span("sim.engine", fn)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            stats = engine.stats
            before = [getattr(stats, name) for name in ENGINE_COUNTERS]
            try:
                return span(engine, *args, **kwargs)
            finally:
                node = stack[-1][0].children.get("sim.engine") if stack else None
                if node is not None:
                    counters = node.counters
                    for name, old in zip(ENGINE_COUNTERS, before):
                        counters[name] = counters.get(name, 0) + getattr(stats, name) - old

        wrapper.__ledger_layer__ = "sim.engine"
        return wrapper

    def setup_span(self, fn: Callable) -> Callable:
        """Set-up span: only the outermost set-up call opens one."""
        span = self.span(SETUP, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._setup_depth:
                return fn(*args, **kwargs)
            self._setup_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                self._setup_depth -= 1

        wrapper.__ledger_layer__ = SETUP
        return wrapper

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def layer_totals(self, keys) -> Dict[str, dict]:
        """Sum the call trees of ``keys`` by layer.

        Set-up self time folds into ``core``, which also carries the
        set-up inclusive seconds and call count; ``calls`` excludes the
        section roots themselves.
        """
        totals = {
            layer: {"self_s": 0.0, "calls": 0, "units": 0, "counters": {}}
            for layer in LAYERS
        }
        core = totals["core"]
        core.update(setup_s=0.0, setup_calls=0)
        for key in keys:
            root = self.sections[key]
            for node in root.walk():
                if node.layer == SETUP:
                    core["setup_s"] += node.incl
                    core["setup_calls"] += node.calls
                    core["self_s"] += node.self_s
                    continue
                entry = totals[node.layer]
                entry["self_s"] += node.self_s
                if node is not root:
                    entry["calls"] += node.calls
                entry["units"] += node.units
                for name, value in node.counters.items():
                    entry["counters"][name] = entry["counters"].get(name, 0) + value
        return totals


class Patches:
    """In-place attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        """Replace ``owner.name`` (a class or module attribute)."""
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def function(self, module, name: str, wrapper: Callable) -> None:
        """Replace ``module.name`` in every ``repro`` module that binds it."""
        original = getattr(module, name)
        for _mod_name, mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _repro_modules() -> Iterator[Tuple[str, object]]:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield name, module


def leftover_wrappers() -> List[str]:
    """Every ``repro`` module global or class attribute still wrapped."""
    found = []
    for mod_name, module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, "__ledger_layer__", None):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                for name, member in vars(value).items():
                    if getattr(member, "__ledger_layer__", None):
                        found.append(f"{mod_name}.{attr}.{name}")
    return found


def _import_everything() -> None:
    """Import every ``repro`` module now.

    A module first imported while the wrappers are in would bind a
    wrapper with ``from ... import`` and keep it after ``restore``.
    """
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        importlib.import_module(info.name)


def _resolve(target: str) -> Tuple[object, str]:
    """``"module:Owner.attr"`` -> (owner class or module, attr)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    path = qualname.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def install(recorder: Recorder, traced: bool) -> Patches:
    """Wrap the set-up boundaries, and with ``traced`` every layer.

    Every ``repro`` module is imported first, so each ``from ... import``
    binding exists to be patched.  Call before the first ``Runtime`` of
    the span window is built; the caller owns the returned
    :class:`Patches` and must ``restore()`` them.
    """
    _import_everything()
    targets = [target for _layer, target, _units in BOUNDARIES]
    resolved = {target: _resolve(target) for target in targets + list(SETUP_BOUNDARIES)}
    patches = Patches()
    try:
        for target in SETUP_BOUNDARIES:
            owner, attr = resolved[target]
            patches.set(owner, attr, recorder.setup_span(vars(owner)[attr]))
        if traced:
            for layer, target, units in BOUNDARIES:
                owner, attr = resolved[target]
                original = vars(owner)[attr]
                if layer == "sim.engine":
                    patches.set(owner, attr, recorder.engine_span(original))
                elif isinstance(owner, type):
                    patches.set(owner, attr, recorder.span(layer, original, units))
                else:
                    patches.function(owner, attr, recorder.span(layer, original, units))
    except BaseException:
        patches.restore()
        raise
    return patches
