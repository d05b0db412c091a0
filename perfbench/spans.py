"""Per-layer tracing of the program from outside.

``Tracer.install`` replaces the public functions of each altforms layer with
a wrapper that records a span (name, start, end, parent span, operation) in
memory.  Modules bind names at import (``from .invariants import pfaffian``),
so the wrapper is set on every module attribute that holds the original
function.  Spans are written to a JSON file when the run ends.

A span's self time is its duration minus the durations of its direct
children; tracing is single-threaded (the search's worker threads call no
traced function).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction

TRACED = {
    "scalars": ("squarefree_part", "rational_sqrt", "cube_root_rational", "rational_reconstruct"),
    "linalg": ("mat_mul", "mat_det", "mat_inv", "solve", "rref", "nullspace", "rank",
               "congruent_signature"),
    "multilinear": ("wedge", "d3", "gl_action", "lie_action", "evaluate"),
    "invariants": ("s_case1", "delta_case1", "delta_case1_explicit", "s_case2", "q_case2",
                   "delta_case2", "pfaffian", "invariant_report"),
    "stabilizers": ("stab_lie_algebra", "fixed_space", "bracket", "subalgebra_closed",
                    "span_dim"),
    "cayley_dickson": ("octonion_from_form", "c_form", "split_octonions", "octonions",
                       "iso_check"),
    "orbits": ("classify_real", "field_kx", "eigenspaces", "irrationality_report"),
    "perturb": ("extend_case1", "extend_case2", "extend_case3"),
    "search": ("approximate", "hypothesis_check", "project_target_via_orbit"),
    "serialize": ("parse_form", "parse_target", "form_to_dict"),
    "cli": ("main",),
}

# linalg entry points whose matrix arguments are scanned for coefficient size
_SIZED = {"linalg.mat_mul", "linalg.mat_det", "linalg.mat_inv", "linalg.solve", "linalg.rref",
          "linalg.congruent_signature"}

# metric -> span names whose outermost inclusive time (ms per operation) it sums
TIME_METRICS = {
    "scalars.squarefree_ms": ("scalars.squarefree_part",),
    "linalg.mat_mul_ms": ("linalg.mat_mul",),
    "linalg.rref_ms": ("linalg.rref",),
    "linalg.solve_ms": ("linalg.solve",),
    "linalg.det_ms": ("linalg.mat_det",),
    "linalg.signature_ms": ("linalg.congruent_signature",),
    "multilinear.wedge_ms": ("multilinear.wedge",),
    "multilinear.lie_action_ms": ("multilinear.lie_action",),
    "multilinear.evaluate_ms": ("multilinear.evaluate",),
    "multilinear.d3_ms": ("multilinear.d3",),
    "multilinear.gl_action_ms": ("multilinear.gl_action",),
    "invariants.s_case1_ms": ("invariants.s_case1",),
    "invariants.s_case2_ms": ("invariants.s_case2",),
    "invariants.pfaffian_ms": ("invariants.pfaffian",),
    "invariants.delta_case1_explicit_ms": ("invariants.delta_case1_explicit",),
    "stabilizers.closure_ms": ("stabilizers.subalgebra_closed",),
    "stabilizers.stab_ms": ("stabilizers.stab_lie_algebra",),
    "stabilizers.fixed_space_ms": ("stabilizers.fixed_space",),
    "cayley_dickson.octonion_ms": ("cayley_dickson.octonion_from_form",),
    "cayley_dickson.c_form_ms": ("cayley_dickson.c_form",),
    "orbits.classify_ms": ("orbits.classify_real",),
    "orbits.eigenspaces_ms": ("orbits.eigenspaces",),
    "orbits.irrationality_ms": ("orbits.irrationality_report",),
    "perturb.case1_ms": ("perturb.extend_case1",),
    "perturb.case2_ms": ("perturb.extend_case2",),
    "perturb.case3_ms": ("perturb.extend_case3",),
    "search.approximate_ms": ("search.approximate",),
    "search.hypothesis_ms": ("search.hypothesis_check",),
    "serialize.parse_ms": ("serialize.parse_form", "serialize.parse_target"),
}

# metric -> span name whose calls per operation it counts
CALL_METRICS = {
    "linalg.mat_mul_calls": "linalg.mat_mul",
    "linalg.rref_calls": "linalg.rref",
    "multilinear.wedge_calls": "multilinear.wedge",
    "multilinear.lie_action_calls": "multilinear.lie_action",
    "multilinear.evaluate_calls": "multilinear.evaluate",
    "invariants.s_case1_calls": "invariants.s_case1",
    "invariants.s_case2_calls": "invariants.s_case2",
    "invariants.pfaffian_calls": "invariants.pfaffian",
    "stabilizers.bracket_calls": "stabilizers.bracket",
}

COMMANDS = ("verify", "invariant", "classify", "stab", "fixed", "octonion", "perturb",
            "approximate")


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("scalars.max_coeff_bits", "count"), ("linalg.rref_cells", "count")]
    out += [(m, "ms") for m in TIME_METRICS]
    out += [(m, "count") for m in CALL_METRICS]
    out += [("search.ms_per_depth", "ms"), ("search.threads2_ms", "ms"), ("cli.self_ms", "ms")]
    out += [(f"cli.{c}_ms", "ms") for c in COMMANDS]
    out += [("trace.ops_per_s", "1/s")]
    return out


def _bits(v):
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if isinstance(v, int):
        return v.bit_length()
    if isinstance(v, (list, tuple)):
        return max((_bits(e) for e in v), default=0)
    if hasattr(v, "a") and hasattr(v, "b"):  # a + b sqrt(d)
        return max(_bits(v.a), _bits(v.b))
    return 0


class Tracer:
    """Span records are lists: [name, start, end, parent index, operation index,
    outermost span of this name?, (coefficient bits, cells) or search depths]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = {}
        self.op = -1
        self.phase = "timed"
        self.op_commands = []
        self.op_phase = []

    def begin_op(self, op):
        self.op += 1
        self.op_commands.append(op.command)
        self.op_phase.append(self.phase)

    def _wrap(self, name, fn):
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter
        sized = name in _SIZED
        tracer = self

        def traced(*args, **kwargs):
            size = None
            if sized:
                size = (_bits(args), len(args[0]) * len(args[0][0]) if args and args[0] else 0)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                   not active.get(name), size]
            active[name] = active.get(name, 0) + 1
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                active[name] -= 1
            if name == "search.approximate":
                rec[6] = len(result.trace) - 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function at every module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "altforms" or n.startswith("altforms."))]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"altforms.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)

    def metrics(self, round_len, ops_per_s):
        """Per-layer metrics of the timed phase; times are ms per operation.

        Spans of operations outside the timed phase belong to the replay of
        one round's searches with two threads (``search.threads2_ms``).
        ``ops_per_s`` is the traced run's own end-to-end throughput."""
        timed_ops = {i for i, p in enumerate(self.op_phase) if p == "timed"}
        n_ops = max(1, len(timed_ops))
        total = {}
        calls = {}
        child = [0.0] * len(self.spans)
        max_bits = 0
        cells = 0
        depths = 0
        threads2 = 0.0
        for rec in self.spans:
            dur = rec[2] - rec[1]
            if rec[3] >= 0:
                child[rec[3]] += dur
        cli_self = 0.0
        per_command = {c: [] for c in COMMANDS}
        for i, rec in enumerate(self.spans):
            name, dur = rec[0], rec[2] - rec[1]
            if rec[4] not in timed_ops:
                if name == "search.approximate" and rec[5]:
                    threads2 += dur
                continue
            calls[name] = calls.get(name, 0) + 1
            if rec[5]:
                total[name] = total.get(name, 0.0) + dur
            if rec[6] is not None and name in _SIZED:
                max_bits = max(max_bits, rec[6][0])
                if name == "linalg.rref":
                    cells += rec[6][1]
            if name == "search.approximate":
                depths += rec[6]
            if name == "cli.main":
                cli_self += dur - child[i]
                cmd = self.op_commands[rec[4]]
                if cmd in per_command:
                    per_command[cmd].append(dur)
        values = {"scalars.max_coeff_bits": max_bits, "linalg.rref_cells": cells / n_ops}
        for m, names in TIME_METRICS.items():
            values[m] = 1000 * sum(total.get(n, 0.0) for n in names) / n_ops
        for m, name in CALL_METRICS.items():
            values[m] = calls.get(name, 0) / n_ops
        values["search.ms_per_depth"] = (1000 * total.get("search.approximate", 0.0) / depths
                                         if depths else 0.0)
        values["search.threads2_ms"] = 1000 * threads2 / round_len
        values["cli.self_ms"] = 1000 * cli_self / n_ops
        for c in COMMANDS:
            values[f"cli.{c}_ms"] = 1000 * statistics.median(per_command[c]) \
                if per_command[c] else 0.0
        values["trace.ops_per_s"] = ops_per_s
        return {name: values[name] for name, _ in per_layer_metrics()}

    def write(self, path):
        names = sorted({rec[0] for rec in self.spans})
        idx = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "ops": self.op_commands, "op_phase": self.op_phase,
               "fields": ["name", "start", "end", "parent", "op"],
               "spans": [[idx[r[0]], round(r[1], 7), round(r[2], 7), r[3], r[4]]
                         for r in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
