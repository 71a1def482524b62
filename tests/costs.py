"""Deterministic cost counts of one right-hand side evaluation.

At the benchmark sizes a 1-D right-hand side costs per numpy call more
than per cell, so two counts that do not depend on the host track its
time: the calls cProfile sees and the interpreter opcodes executed.
"""

import cProfile
import pstats
import sys


def rhs_costs(op, data):
    """(profiled calls, opcodes) of one warm `op.rhs(data)`.

    A first call warms every cache (`lru_cache` tables, lazily built
    attributes); the counted calls follow.  Profiled calls are cProfile's
    primitive calls: every Python function and every builtin (C) function
    or method called, a recursion counted once.  Opcodes are the
    instructions the interpreter executes in Python frames
    (`sys.settrace` with `f_trace_opcodes`).  For one input both repeat
    exactly from process to process.

    Blind spots:
    - cProfile sees no ufunc call (`np.add(...)` included) and no operator
      (`a + b`, `a @ b`, indexing): they run in C without a function call
      it records;
    - opcodes count Python's own work, not the C cost of a numpy call;
    - neither sees array sizes, memory traffic, page faults or BLAS, so
      they track per-call overhead, not per-cell work, and data-dependent
      branches (a fallback, an extra Newton step) change both.
    """
    op.rhs(data)
    profile = cProfile.Profile()
    profile.enable()
    op.rhs(data)
    profile.disable()
    calls = pstats.Stats(profile).prim_calls

    opcodes = 0

    def trace(frame, event, arg):
        nonlocal opcodes
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            opcodes += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        op.rhs(data)
    finally:
        sys.settrace(previous)
    return calls, opcodes
