"""Run one maulab command in this process, optionally timing the program's
layers from outside.

    python3 bench/child.py [--trace FILE] -- <maulab arguments>

The program's source is not touched. With --trace, each function named in
TARGETS (and each agent class's act and observe) is replaced, wherever the
program holds a reference to it, by a wrapper that counts calls and adds up
inclusive and self time. "Wherever" covers module attributes (so the
`forward` that the agent modules import from nn is wrapped too), class
attributes and module-level dicts such as the clearing-rule table. Self time
is inclusive time minus the time spent in wrapped callees. The wrappers draw
no random numbers, so a traced command writes the same bytes as an untraced
one. A target that no longer exists is listed under "missing" in FILE.

PYTHONPATH must name the program's `src` directory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# (span name, module, attribute, index and name of a path argument whose
# file size is added to the span's byte count after the call)
TARGETS = [
    ("auction.clear.dp", "maulab.auction", "clear_dp", None),
    ("auction.clear.gsp", "maulab.auction", "clear_gsp", None),
    ("auction.clear.up", "maulab.auction", "clear_up", None),
    ("auction.efficiency", "maulab.auction", "efficiency_ratio", None),
    ("auction.efficiency", "maulab.auction", "efficiency_gap", None),
    ("env.reset", "maulab.env", "AuctionEnv.reset", None),
    ("env.step", "maulab.env", "AuctionEnv.step", None),
    ("nn.forward", "maulab.nn", "forward", None),
    ("nn.backward", "maulab.nn", "backward", None),
    ("nn.adam_step", "maulab.nn", "adam_step_params", None),
    ("harness.run_episode", "maulab.harness", "run_episode", None),
    ("harness.run_session", "maulab.harness", "run_session", None),
    ("metrics.write_csv", "maulab.metrics", "write_csv", (1, "path")),
    ("metrics.read_csv", "maulab.metrics", "read_csv", None),
    ("metrics.summary_tables", "maulab.metrics", "summary_tables", None),
    ("metrics.rolling_mean", "maulab.metrics", "rolling_mean", None),
    ("metrics.emit_svg", "maulab.metrics", "emit_svg", None),
    ("cli.parse_rows", "maulab.cli", "_parse_episode_rows", None),
    ("cli.parse_rows", "maulab.cli", "_parse_auction_rows", None),
    ("checkpoint.save", "maulab.checkpoint", "save_checkpoint", (0, "path")),
    ("checkpoint.load", "maulab.checkpoint", "load_checkpoint", (0, "path")),
]
AGENT_ALGOS = ("random", "ql", "vpg", "dqn", "dpn", "a2c", "ppo")


class Tracer:
    """Call counts, inclusive time, self time and bytes per span name."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s, bytes]
        self.missing: list[str] = []
        self._callee_time: list[float] = []  # one entry per active traced call

    def wrap(self, name, fn, path_arg=None):
        span = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._callee_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                span[0] += 1
                span[1] += dt
                span[2] += dt - inner
                if stack:
                    stack[-1] += dt
                if path_arg is not None:
                    i, key = path_arg
                    path = args[i] if len(args) > i else kwargs.get(key)
                    try:
                        span[3] += os.path.getsize(path)
                    except (OSError, TypeError):
                        pass

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def _program_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "maulab" and m]


def _replace_everywhere(old, new) -> None:
    """Point every reference the program's modules hold to `old` at `new`."""
    for mod in _program_modules():
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new
            elif inspect.isclass(value) and value.__module__.startswith("maulab"):
                for k, v in list(vars(value).items()):
                    if v is old:
                        setattr(value, k, new)


def install(tracer: Tracer) -> None:
    importlib.import_module("maulab.cli")
    importlib.import_module("maulab.agents")  # agent modules load lazily otherwise
    for name, modname, attr, path_arg in TARGETS:
        try:
            owner = importlib.import_module(modname)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{modname}.{attr}")
            continue
        wrapped = tracer.wrap(name, fn, path_arg)
        if inspect.isclass(owner):
            setattr(owner, leaf, wrapped)
        else:
            _replace_everywhere(fn, wrapped)

    base = getattr(importlib.import_module("maulab.agents.base"), "Agent", None)
    classes = {}
    for mod in _program_modules():
        for value in vars(mod).values():
            if inspect.isclass(value) and base is not None and issubclass(value, base):
                algo = getattr(value, "algo", None)
                if algo in AGENT_ALGOS:
                    classes[algo] = value
    for algo in AGENT_ALGOS:
        cls = classes.get(algo)
        if cls is None:
            tracer.missing.append(f"agent class for {algo}")
            continue
        methods = ("act",) if algo == "random" else ("act", "observe")
        for method in methods:
            setattr(cls, method, tracer.wrap(f"agents.{algo}.{method}", getattr(cls, method)))


def main(argv: list[str]) -> int:
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if trace_file:
        tracer = Tracer()
        install(tracer)
    from maulab.cli import main as maulab_main

    try:
        return maulab_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
