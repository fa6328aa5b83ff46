"""Outside-in layer trace: spans around the calls into the package's layers.

Each public function is wrapped at the module attribute its caller resolves it
through, so the package itself is not modified.  Spans (name, start, end,
parent span, op) stay in memory; the workload writes them out at exit.
"""

from __future__ import annotations

import importlib
import time

# module -> functions wrapped there; the gradients entries cover grad_check's
# own call paths, the training entries cover train()'s
TARGETS = {
    "echotrain.training": ("forward", "backward", "encode_inputs", "decode_outputs",
                           "encode_output_errors", "kernel_gradients",
                           "input_mask_gradient", "output_mask_gradient"),
    "echotrain.system": ("convolve", "adjoint_convolve"),
    "echotrain.gradients": ("pipeline_cost", "pipeline_gradients", "random_toy_pipeline",
                            "forward", "backward", "encode_inputs", "decode_outputs",
                            "encode_output_errors", "kernel_gradients",
                            "input_mask_gradient", "output_mask_gradient", "convolve"),
}

# per-layer metric -> wrapped functions whose self time (span minus child
# spans) it sums; with op.self_ms these account for the whole op
SELF_LAYERS = {
    "tasks.sample_ms": ("sample",),
    "masking.codec_ms": ("encode_inputs", "decode_outputs", "encode_output_errors"),
    "masking.mask_grad_ms": ("input_mask_gradient", "output_mask_gradient"),
    "training.cost_ms": ("cost",),
    "signal.convolve_ms": ("convolve",),
    "signal.adjoint_convolve_ms": ("adjoint_convolve",),
    "system.forward_self_ms": ("forward",),
    "system.backward_self_ms": ("backward",),
    "gradients.kernel_ms": ("kernel_gradients",),
    "gradients.audit_self_ms": ("pipeline_cost", "pipeline_gradients", "random_toy_pipeline"),
}

# per-layer metric -> wrapped function whose whole span (children included) it sums
INCLUSIVE_LAYERS = {
    "gradients.fd_probe_ms": "pipeline_cost",
    "gradients.physical_grad_ms": "pipeline_gradients",
    "gradients.toy_draw_ms": "random_toy_pipeline",
}

_ABSENT = object()


class Tracer:
    def __init__(self, task=None):
        self.targets = [(importlib.import_module(mod), mod, name)
                        for mod, names in TARGETS.items() for name in names]
        if task is not None:
            self.targets += [(task, "task", "sample"), (task, "task", "cost")]
        self.task = task
        self.spans = []  # [name, start, end, parent id, op id]
        self.op = -1
        self._stack = []
        self._saved = []

    def install(self):
        for obj, label, name in self.targets:
            fn = getattr(obj, name, _ABSENT)
            if fn is _ABSENT:
                raise RuntimeError(f"{label}.{name} no longer exists; update the "
                                   "benchmark's layer map")
            self._saved.append((obj, name, vars(obj).get(name, _ABSENT)))
            setattr(obj, name, self._wrap(name, fn, obj is self.task and name == "sample"))

    def uninstall(self):
        for obj, name, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(obj, name)
            else:
                setattr(obj, name, original)
        self._saved = []

    def _wrap(self, name, fn, starts_op):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if starts_op:  # each training iteration begins with its batch draw
                self.op += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def attribute(self, op_ms):
        """Per-layer mean ms per op and call counts per op over the traced ops.

        op_ms maps op id -> measured op wall time; spans of other ops (those
        of a call that raised) are left out.  Raises if a span's self time or
        an op's remainder is negative, i.e. spans do not account for the op.
        """
        spans = [(i, span) for i, span in enumerate(self.spans) if span[4] in op_ms]
        child_ms = [0.0] * len(self.spans)
        for _, (name, t0, t1, parent, op) in spans:
            if parent >= 0:
                child_ms[parent] += (t1 - t0) * 1e3
        names = {n for names in SELF_LAYERS.values() for n in names}
        self_ms = {n: 0.0 for n in names}
        incl_ms = {n: 0.0 for n in INCLUSIVE_LAYERS.values()}
        calls = {}
        top_ms = {op: 0.0 for op in op_ms}
        worst = 0.0
        for i, (name, t0, t1, parent, op) in spans:
            dur = (t1 - t0) * 1e3
            own = dur - child_ms[i]
            worst = min(worst, own)
            self_ms[name] += own
            if name in incl_ms:
                incl_ms[name] += dur
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                top_ms[op] += dur
        op_self = sum(op_ms[op] - top_ms[op] for op in op_ms)
        worst = min([worst] + [op_ms[op] - top_ms[op] for op in op_ms])
        if worst < -0.05:
            raise RuntimeError(f"trace does not account for the ops: a self time of "
                               f"{worst:.3f} ms")
        n_ops = len(op_ms)
        layers = {metric: sum(self_ms[n] for n in fns) / n_ops
                  for metric, fns in SELF_LAYERS.items()}
        layers.update({metric: incl_ms[fn] / n_ops for metric, fn in INCLUSIVE_LAYERS.items()})
        layers["op.self_ms"] = op_self / n_ops
        return layers, {name: c / n_ops for name, c in calls.items()}

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,start_ms,end_ms,parent,op\n")
            t_base = self.spans[0][1] if self.spans else 0.0
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{(t0 - t_base) * 1e3:.4f},{(t1 - t_base) * 1e3:.4f},"
                         f"{parent},{op}\n")
