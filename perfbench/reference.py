"""A fixed calibration kernel that the benchmark runs between ops.

The reference machine is a 2-core shared VM. The same op on identical
inputs takes up to 1.5x longer for stretches of seconds to minutes, and CPU
time tracks wall time, so the slow phases come from contention on the
host. The kernel does not use the library, so no change under src/ can
move it. It mixes the four kinds of work the workloads do:

- a pure-Python loop;
- small numpy calls in a Python loop, as in the Gibbs colour classes and
  the CD coordinate loop;
- n x p matrix-vector products, as in the logistic solver;
- large elementwise passes, as in enumeration and Gram building.

Scaling a measured time by REFERENCE_MS / (the kernel's time measured
just before it) takes most of the host's speed out of it, and gives the
time at the reference machine's uncontended speed.
"""
from __future__ import annotations

import time

import numpy as np

# Time of one `Reference.measure()` pass on the reference machine when
# nothing else contends for its cores.
REFERENCE_MS = 27.5


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.tall = rng.standard_normal((1200, 128)) / 12.0
        self.small = self.tall[:32, :32].copy()
        self.states = rng.standard_normal((16384, 20))

    def measure(self) -> float:
        """Seconds one pass over the four parts takes."""
        t0 = time.perf_counter()
        acc = 0.0
        for j in range(60000):
            acc = acc * 0.5 + (1.0 if j & 1 else -1.0)
        x = np.zeros(32)
        for j in range(1500):
            x = np.where(self.small @ x > 0.1, 1.0, -1.0)
            x[j % 32] = 1.0
        y = np.ones(128)
        for _ in range(150):
            y = (np.tanh(self.tall @ y) @ self.tall) / 1200.0
        for _ in range(6):
            e = np.exp(self.states * 0.01)
            self.states.T @ (self.states * e[:, :1])
        return time.perf_counter() - t0

    def speed(self) -> float:
        """Factor that scales wall times measured now to reference speed."""
        return REFERENCE_MS / (self.measure() * 1e3)
