"""Span tracer installed from outside the program.

Nothing in masdn knows about tracing: `install` replaces functions on
modules, classes and the cognition registry with timing wrappers, and
`uninstall` puts every original object back. A name imported by value
(`from .pps import encode_body`) is patched in every module that binds it,
because patching only the defining module would miss those call sites.

Spans are kept in memory as (span id, name, start, end, parent id, tick)
and written out when the benchmark ends. The tick is the trace id: every
span opened while the benchmark drives tick t carries t; set-up carries -1.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_SETUP_TICK = -1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.tick = _SETUP_TICK
        # open spans, innermost last: [span id, time covered by children]
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- spans --------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and totals; patches stay installed."""
        self.spans.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.tick = _SETUP_TICK

    def _open(self) -> list[Any]:
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[Any], start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        self.self_s[name] += duration - frame[1]
        self.total_s[name] += duration
        self.calls[name] += 1
        self.spans.append((frame[0], name, start, end, parent, self.tick))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, time.perf_counter())

    def wrap(self, name: str | Callable[..., str], fn: Callable[..., Any]) -> Callable[..., Any]:
        """A timing wrapper around fn. name may be a function of the call's
        arguments, for spans keyed by what the call works on."""
        clock = time.perf_counter
        fixed = isinstance(name, str)

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(name if fixed else name(*args, **kwargs), frame, start, end)

        return traced

    # -- patching -----------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str | Callable[..., str]) -> None:
        """Wrap owner.attr (a module or class attribute) in a span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original, False))
        setattr(owner, attr, self.wrap(name, original))

    def patch_bound(self, original: Any, name: str) -> None:
        """Wrap original in every masdn module that binds it by name."""
        for modname, module in sorted(sys.modules.items()):
            if modname != "masdn" and not modname.startswith("masdn."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, name)

    def patch_item(self, mapping: dict[str, Any], key: str, replacement: Any) -> None:
        self._patches.append((mapping, key, mapping[key], True))
        mapping[key] = replacement

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, is_item = self._patches.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def patched(self) -> list[tuple[Any, str, Any, bool]]:
        return list(self._patches)

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """One tab-separated line per span, in the order spans closed."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\ttick\n")
            out.writelines(
                f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{tick}\n"
                for sid, name, start, end, parent, tick in self.spans
            )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each masdn layer in spans."""
    from masdn import bus, functions, netsim, oracle, pps, runtime, system

    # wire codec, as bound where the fabric calls it
    tracer.patch(bus, "encode", "pps.frame_encode")
    tracer.patch(bus, "decode", "pps.frame_decode")
    # body codec, wherever it is imported
    tracer.patch_bound(pps.encode_body, "pps.body_encode")
    tracer.patch_bound(pps.decode_body, "pps.body_decode")

    tracer.patch(bus.Bus, "run_to_quiescence", "bus.run")
    tracer.patch(
        runtime.AgentHost, "process_input", lambda host, agent, msg: f"runtime.pipeline.{agent.kind.value}"
    )
    tracer.patch(runtime.FactsStore, "put", "runtime.facts_put")
    tracer.patch(runtime.FactsStore, "restore", "runtime.facts_restore")
    tracer.patch(runtime.FactsStore, "snapshot", "runtime.snapshot")
    tracer.patch(runtime, "validate_plan", "runtime.validate")

    # cognition, keyed by agent kind and by the module that defines it
    registry = runtime._COGNITIONS
    for kind, impl in sorted(registry.items()):
        module = impl.decide.__module__.rsplit(".", 1)[-1]
        name = f"{module}.cognition.{kind}"
        replacement = dataclasses.replace(
            impl,
            decide=tracer.wrap(name, impl.decide),
            ingest=None if impl.ingest is None else tracer.wrap(name, impl.ingest),
        )
        tracer.patch_item(registry, kind, replacement)

    # path computation, agent side and monolith side
    for fn in ("build_graph", "shortest_path", "plan_reroutes"):
        tracer.patch(functions, fn, "logic.path")
        tracer.patch(oracle, fn, "oracle.path")

    tracer.patch(netsim.Simulator, "step", "netsim.step")
    tracer.patch(system.AgentSystem, "genesis", "system.genesis")
    tracer.patch(system.AgentSystem, "_pump_digests", "system.pump")
