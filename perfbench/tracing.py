"""Per-layer tracing of relaybf from outside the package.

`Tracer` wraps functions of the `relaybf` modules with timing and counting
wrappers, and restores the originals on exit.  Every alias of a wrapped
function inside `relaybf` is patched too, because several modules import
helpers by name (`engine` imports `complex_normal`, `oracles` imports
`_snr`), and a call through an unpatched alias would go unseen.

A layer's `.s` is inclusive: it contains the time of everything it calls.
A call into a layer made while that layer is already on the stack (for
example `network._snr` calling `network._signal_power`) is not counted
again, so `.calls` counts entries into the layer from outside it.
`engine.block.self_s` is block time minus the time of the wrapped calls
made directly from the block.

In "scheduler" mode only parent-side code is wrapped: the block scheduler
(the process pool, its `submit`, and the yields of
`engine._iter_block_results`) and the CSV writer.  Blocks then run in
worker processes, where wrappers would record into memory the parent never
sees.
"""

from __future__ import annotations

import concurrent.futures
import os
import sys
import time

# (metric prefix, module, attribute names); every name is wrapped in "full" mode
LAYERS = [
    ("engine.block", "relaybf.engine",
     ["_convergence_block", "_ber_block", "_tracking_block"]),
    ("engine.stream", "relaybf.engine", ["_stream"]),
    ("engine.draw_channels", "relaybf.engine", ["_draw_channels"]),
    ("engine.pm_batch", "relaybf.engine", ["_pm_batch"]),
    ("channel.complex_normal", "relaybf.channel", ["complex_normal"]),
    ("adaptation.normalize", "relaybf.adaptation",
     ["_normalize_sum", "_normalize_per_relay"]),
    ("network.snr", "relaybf.network", ["_snr", "_signal_power", "_noise_gain"]),
    ("oracles.weights", "relaybf.oracles", ["_egc", "_psp", "_ssp"]),
    ("estimation", "relaybf.estimation", ["_channel_estimate", "_snr_estimate"]),
]

# Every per-layer metric, with its unit and the direction an optimisation
# should move it.  BENCHMARK.json lists the same names.
METRICS = {
    "engine.block.calls": ("count", "lower"),
    "engine.block.s": ("s", "lower"),
    "engine.block.self_s": ("s", "lower"),
    "engine.stream.calls": ("count", "lower"),
    "engine.stream.s": ("s", "lower"),
    "engine.draw_channels.s": ("s", "lower"),
    "engine.pm_batch.calls": ("count", "lower"),
    "engine.pm_batch.s": ("s", "lower"),
    "engine.pools": ("count", "lower"),
    "engine.blocks_submitted": ("count", "lower"),
    "engine.blocks_used": ("count", "lower"),
    "engine.block_use_ratio": ("ratio", "higher"),
    "engine.result_wait_s": ("s", "lower"),
    "channel.complex_normal.calls": ("count", "lower"),
    "channel.complex_normal.s": ("s", "lower"),
    "channel.jakes_block.calls": ("count", "lower"),
    "channel.jakes_block.s": ("s", "lower"),
    "channel.jakes_block.bytes_computed": ("B", "lower"),
    "adaptation.normalize.calls": ("count", "lower"),
    "adaptation.normalize.s": ("s", "lower"),
    "network.snr.calls": ("count", "lower"),
    "network.snr.s": ("s", "lower"),
    "oracles.weights.calls": ("count", "lower"),
    "oracles.weights.s": ("s", "lower"),
    "estimation.calls": ("count", "lower"),
    "estimation.s": ("s", "lower"),
    "cli.write_csv.s": ("s", "lower"),
    "cli.csv_bytes": ("B", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics that must repeat exactly between two traced runs of one input.
COUNT_METRICS = [name for name, (unit, _) in METRICS.items()
                 if unit in ("count", "B")]


class Tracer:
    """Context manager that wraps relaybf layers and collects metrics."""

    def __init__(self, mode="full"):
        if mode not in ("full", "scheduler"):
            raise ValueError("mode must be 'full' or 'scheduler'")
        self.mode = mode
        self.calls = {}
        self.seconds = {}
        self.child_seconds = {}
        self.extra = {"engine.pools": 0, "engine.blocks_submitted": 0,
                      "engine.blocks_used": 0, "engine.result_wait_s": 0.0,
                      "channel.jakes_block.bytes_computed": 0,
                      "cli.csv_bytes": 0}
        self.missing = []
        self._stack = []
        self._patches = []

    # -- installation ----------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self):
        import relaybf.cli  # noqa: F401  (loads every module on the CLI path)

        if self.mode == "full":
            for group, module, names in LAYERS:
                for name in names:
                    self._wrap_function(module, name, group)
            self._wrap_jakes_block()
        self._wrap_function("relaybf.cli", "_write_csv", "cli.write_csv",
                            on_return=self._count_csv_bytes)
        self._wrap_scheduler()
        self._wrap_pool()

    def _patch(self, owner, name, value):
        present = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), present))
        setattr(owner, name, value)

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, name, original, present = self._patches.pop()
            if present:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _aliases(self, original):
        """(module, name) of every relaybf global bound to `original`."""
        out = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "relaybf"
                                   or mod_name.startswith("relaybf.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    out.append((mod, name))
        return out

    def _wrap_function(self, module, name, group, on_return=None):
        original = getattr(sys.modules.get(module), name, None)
        if original is None:
            self.missing.append("%s.%s" % (module, name))
            return
        wrapper = self._timed(original, group, on_return)
        for mod, alias in self._aliases(original):
            self._patch(mod, alias, wrapper)

    def _wrap_jakes_block(self):
        bank = getattr(sys.modules["relaybf.channel"], "JakesBank", None)
        if bank is None or "block" not in vars(bank):
            self.missing.append("relaybf.channel.JakesBank.block")
            return

        def count_bytes(result, args, kwargs):
            self.extra["channel.jakes_block.bytes_computed"] += int(result.nbytes)

        self._patch(bank, "block", self._timed(vars(bank)["block"],
                                               "channel.jakes_block",
                                               count_bytes))

    def _count_csv_bytes(self, result, args, kwargs):
        path = args[0] if args else kwargs.get("path")
        self.extra["cli.csv_bytes"] += os.path.getsize(path)

    def _timed(self, fn, group, on_return=None):
        stack = self._stack
        calls, seconds, child = self.calls, self.seconds, self.child_seconds
        calls.setdefault(group, 0)
        seconds.setdefault(group, 0.0)
        child.setdefault(group, 0.0)

        def wrapper(*args, **kwargs):
            for frame in stack:
                if frame[0] == group:
                    return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                calls[group] += 1
                seconds[group] += dt
                child[group] += frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    def _wrap_scheduler(self):
        engine = sys.modules["relaybf.engine"]
        original = getattr(engine, "_iter_block_results", None)
        if original is None:
            self.missing.append("relaybf.engine._iter_block_results")
            return
        extra = self.extra

        def counted(fn):
            def run_block(*args, **kwargs):
                extra["engine.blocks_submitted"] += 1
                return fn(*args, **kwargs)
            return run_block

        def iter_block_results(fn, payloads, workers, *args, **kwargs):
            # In-process blocks count as submitted when they start; pooled
            # blocks are counted by the pool's submit.
            if workers <= 1:
                fn = counted(fn)
            gen = original(fn, payloads, workers, *args, **kwargs)
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        extra["engine.result_wait_s"] += time.perf_counter() - t0
                    extra["engine.blocks_used"] += 1
                    yield item
            finally:
                gen.close()

        for mod, alias in self._aliases(original):
            self._patch(mod, alias, iter_block_results)

    def _wrap_pool(self):
        original = concurrent.futures.ProcessPoolExecutor
        extra = self.extra

        class CountingPool(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                extra["engine.pools"] += 1

            def submit(self, *args, **kwargs):
                extra["engine.blocks_submitted"] += 1
                return super().submit(*args, **kwargs)

        self._patch(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        for mod, alias in self._aliases(original):
            self._patch(mod, alias, CountingPool)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric except the trace.* pair, as plain numbers."""
        out = {}
        for group in [g for g, _, _ in LAYERS] + ["channel.jakes_block",
                                                  "cli.write_csv"]:
            out[group + ".calls"] = self.calls.get(group, 0)
            out[group + ".s"] = self.seconds.get(group, 0.0)
        out["engine.block.self_s"] = (self.seconds.get("engine.block", 0.0)
                                      - self.child_seconds.get("engine.block", 0.0))
        out.update(self.extra)
        submitted = self.extra["engine.blocks_submitted"]
        out["engine.block_use_ratio"] = (
            self.extra["engine.blocks_used"] / submitted if submitted else 1.0)
        return {name: out[name] for name in METRICS if name in out}
