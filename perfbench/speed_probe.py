"""Time one fixed slice of work and print its seconds.

The slice is the program's kind of work, done by the benchmark's own code:
text-to-float parsing, small numpy convolutions with relu and a reduction,
and plain interpreter arithmetic. It never changes with the program, so its
time tracks only the machine's speed. ``run.py`` starts it as a fresh
process each time, as it does the jobs, so that no one process's memory
layout or hash seed biases every slice of a run.

    python3 perfbench/speed_probe.py
"""

from __future__ import annotations

import time

import numpy as np

# Iterations of the slice: about 0.35 s on the reference machine (README).
REPS = 360


def work(reps: int) -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 4, 128))
    w = rng.standard_normal((3, 4, 4))
    line = ",".join(map(repr, x[0, 0].tolist()))
    acc = 0.0
    for _ in range(reps):
        acc += sum(float(v) for v in line.split(","))
        y = np.zeros_like(x)
        for k in range(3):
            y[..., 2 * k:] += np.einsum("oc,bcl->bol", w[k], x[..., :128 - 2 * k])
        acc += float(np.maximum(y, 0.0).mean())
        s = 0
        for i in range(3000):
            s += i * i
    return acc


def slice_seconds() -> float:
    """Seconds the slice takes, after an untimed warm-up of its first calls."""
    work(REPS // 20)
    t0 = time.perf_counter()
    work(REPS)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(slice_seconds()))
