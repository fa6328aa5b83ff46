"""Error backpropagation through the plant itself.

Build a random nonlinear-feedback plant, push a signal through it, inject the
cost gradient backwards, and compare the returned input-error signal against
central finite differences.  Then break the physics on purpose (play the
error back through a non-reciprocal medium, every square kernel's taps
transposed per lag) and watch the agreement collapse -- the transpose IS the
reciprocity.
"""

import numpy as np

from echotrain import (
    Kernel,
    Nonlinearity,
    PhysicalSystem,
    Signal,
    backward,
    forward,
)

rng = np.random.default_rng(1)
dt = 0.2
n = 60

aa = 0.4 * rng.standard_normal((4, 3, 3))
aa[0] = 0.0  # feedback must be strictly causal: no instantaneous loop
plant = PhysicalSystem(
    w_sa=Kernel(0.4 * rng.standard_normal((4, 3, 2)), dt),
    w_aa=Kernel(aa, dt),
    w_so=Kernel(0.4 * rng.standard_normal((4, 2, 2)), dt),
    w_ao=Kernel(0.4 * rng.standard_normal((4, 2, 3)), dt),
    f=Nonlinearity.rectifier(),
)

s0 = rng.standard_normal((2, n))
target = rng.standard_normal((2, n))


def cost(s_arr):
    o = forward(plant, Signal(s_arr, dt)).o.samples
    return 0.5 * float(np.sum((o - target) ** 2))


trace = forward(plant, Signal(s0, dt))
# error signals are gradient densities: dC/do[i] = dt * e_o[i]
e_o = Signal((trace.o.samples - target) / dt, dt)

# the backward run transposes every kernel; a medium whose square kernels are
# already transposed per lag hands it W[k] where the adjoint needs W[k].T
broken = plant
for name in ("w_sa", "w_aa", "w_so", "w_ao"):
    kern = getattr(plant, name)
    if kern.rows == kern.cols:
        broken = broken.with_kernel(name, kern.taps.transpose(0, 2, 1))

for medium, label in ((plant, "reciprocal (transposed) medium"),
                      (broken, "non-reciprocal medium")):
    bw = backward(medium, trace, e_o)
    grad = dt * bw.e_s.samples
    # spot-check ten random input samples against central differences
    err = 0.0
    for _ in range(10):
        c, i = rng.integers(2), rng.integers(n)
        up, down = s0.copy(), s0.copy()
        up[c, i] += 1e-5
        down[c, i] -= 1e-5
        fd = (cost(up) - cost(down)) / 2e-5
        err = max(err, abs(grad[c, i] - fd) / max(abs(fd), 1e-12))
    print(f"{label:38s} max rel err vs finite differences: {err:.2e}")
