"""Outside-in tracer for the duallearn CLI.

Run as ``python3 perfbench/tracer.py --spans OUT.json -- <duallearn CLI args>``.
It imports the package from ``src/``, replaces every module binding of the
public functions in TRACED with a timing wrapper, checks that no binding was
missed, runs ``duallearn.cli.main`` and writes the spans it kept in memory to
OUT.json. Nothing inside ``src/`` is changed.

Each span is (name index, start, end, parent span index or -1, rows), with
rows the leading dimension of the row-carrying argument (0 where there is
none). For predict_batch and perturb_batch the tracer also counts rows whose
(parameters, features) pair was already passed earlier in the process.

Span times are read from a clock that stops while the tracer does its own
work (argument inspection, row hashing, span bookkeeping), so that work is in
no span's time: it shows only in the process's wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module -> public functions traced there; the module named is the home module.
TRACED = {
    "cli": ("validate_config",),
    "data": ("load_csv", "group_split", "synth_two_gaussians"),
    "core": ("loss_values", "loss_pred_grads", "empirical_risk"),
    "models": ("predict_batch", "grad_params", "grad_input_batch", "optimizer_step",
               "save_model", "load_model"),
    "lagrangian": ("dual_function", "slacks", "empirical_lagrangian", "enumeration_stats"),
    "robust": ("perturb_batch",),
    "primaldual": ("train", "dual_update", "save_trace", "load_trace",
                   "randomized_solution"),
    "oracle": ("example1_trial", "ecrm_enumerate"),
}

# function -> position of the argument whose first dimension is counted as rows
ROW_ARG = {
    "core.loss_values": 1,
    "core.loss_pred_grads": 1,
    "models.predict_batch": 1,
    "models.grad_input_batch": 2,
    "robust.perturb_batch": 2,
}

# function -> (position of the model argument, position of the feature matrix)
REPEAT_ARGS = {
    "models.predict_batch": (0, 1),
    "robust.perturb_batch": (0, 2),
}

# Count only the (parameters, row) keys whose hash is 0 modulo REPEAT_SAMPLE,
# so memory stays small on runs that forward tens of millions of rows. The
# same key is always in or out of the sample, so the share is consistent.
REPEAT_SAMPLE = 32


class Tracer:
    """Spans and repeat counters of one process, kept in memory."""

    def __init__(self) -> None:
        import numpy as np

        from stats import RepeatCounter

        self._np = np
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.repeats = {name: RepeatCounter() for name in REPEAT_ARGS}
        self._param_ids: dict[bytes, int] = {}
        # Seconds of the tracer's own work so far; span clock = real clock - this.
        self.excluded = 0.0

    def _row_keys(self, params, X) -> list[int]:
        """64-bit key per row of X, mixing the parameter vector's identity with
        the row's bit pattern (splitmix64 finaliser); the sampled keys only."""
        np = self._np
        pid = self._param_ids.setdefault(np.asarray(params, dtype=float).tobytes(),
                                         len(self._param_ids))
        bits = np.ascontiguousarray(X, dtype=np.float64).view(np.uint64)
        h = np.full(bits.shape[0], pid + 1, dtype=np.uint64)
        for j in range(bits.shape[1]):
            h ^= bits[:, j]
            h ^= h >> np.uint64(30)
            h *= np.uint64(0xBF58476D1CE4E5B9)
            h ^= h >> np.uint64(27)
            h *= np.uint64(0x94D049BB133111EB)
            h ^= h >> np.uint64(31)
        return h[h % np.uint64(REPEAT_SAMPLE) == 0].tolist()

    def wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        params = list(inspect.signature(fn).parameters)
        row_arg = ROW_ARG.get(qualname)
        repeat = REPEAT_ARGS.get(qualname)
        counter = self.repeats.get(qualname)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def arg(args, kwargs, pos):
            return args[pos] if pos < len(args) else kwargs[params[pos]]

        def traced(*args, **kwargs):
            entered = clock()
            rows = 0
            if row_arg is not None:
                rows = len(arg(args, kwargs, row_arg))
            if repeat is not None:
                model, X = arg(args, kwargs, repeat[0]), arg(args, kwargs, repeat[1])
                counter.add(self._row_keys(model.params, X))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            called = clock()
            self.excluded += called - entered
            start = called - self.excluded  # on the span clock
            try:
                return fn(*args, **kwargs)
            finally:
                returned = clock()
                stack.pop()
                spans[index] = (name_id, start, returned - self.excluded, parent, rows)
                # The callers' spans lose this wrapper's work too.
                self.excluded += clock() - returned

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> list[str]:
        """Wrap every traced function at every duallearn module binding.

        Returns the problems found: a traced function missing from its home
        module, or a duallearn module attribute still bound to an original.
        """
        modules = {name: importlib.import_module(f"duallearn.{name}") for name in TRACED}
        originals = {}
        problems = []
        for mod_name, funcs in TRACED.items():
            for func in funcs:
                fn = getattr(modules[mod_name], func, None)
                if not callable(fn):
                    problems.append(f"duallearn.{mod_name}.{func} not found")
                    continue
                originals[id(fn)] = (fn, self.wrap(f"{mod_name}.{func}", fn))
        for module in _duallearn_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for module in _duallearn_modules():
            for attr, value in vars(module).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    problems.append(f"{module.__name__}.{attr} is still unwrapped")
        return problems

    def dump(self, path: Path, coverage: list[str]) -> None:
        data = {
            "names": self.names,
            "spans": self.spans,
            "repeats": {name: {"sampled": c.sampled, "repeats": c.repeats}
                        for name, c in self.repeats.items()},
            "excluded_s": self.excluded,
            "coverage_problems": coverage,
        }
        path.write_text(json.dumps(data, separators=(",", ":")))


def _duallearn_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "duallearn" or name.startswith("duallearn."))]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <duallearn CLI args>", file=sys.stderr)
        return 2
    out = Path(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import duallearn.cli

    tracer = Tracer()
    coverage = tracer.install()
    if coverage:
        tracer.dump(out, coverage)
        print("tracer: coverage check failed: " + "; ".join(coverage), file=sys.stderr)
        return 3
    code = duallearn.cli.main(argv[3:])
    tracer.dump(out, coverage)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
