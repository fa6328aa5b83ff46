"""Delta-kernel plants ARE neural networks.

Two constructive reductions: a stacked-state plant that reproduces a deep
rectifier network under held inputs, and a delayed-feedback plant that steps
a discrete RNN once per period -- forward states and BPTT gradients match the
dense implementations to machine precision.
"""

import numpy as np

from echotrain import DenseNet, DenseRNN, Nonlinearity, mlp_settled_output, rnn_state_trajectory
from echotrain.reductions import _dense_mlp_reference, mlp_equivalence_suite, rnn_equivalence_suite

rng = np.random.default_rng(3)

# a 3-hidden-layer rectifier network as a physical plant
sizes = [4, 6, 5, 4, 2]
ws = tuple(rng.standard_normal((sizes[i + 1], sizes[i])) for i in range(4))
net = DenseNet(ws, Nonlinearity.rectifier())
x = rng.standard_normal(4)
dense = _dense_mlp_reference(net.weights, net.activation, x)
plant = mlp_settled_output(net, x)
print("deep net, dense vs settled plant:")
print("  dense :", np.round(dense, 6))
print("  plant :", np.round(plant, 6))

# a 5-unit RNN as a delayed-feedback plant
rnn = DenseRNN(rng.standard_normal((5, 2)),
               0.4 * rng.standard_normal((5, 5)),
               rng.standard_normal((2, 5)),
               Nonlinearity.rectifier(), period=3)
xs = rng.standard_normal((6, 2))
states, outputs = rnn_state_trajectory(rnn, xs)
print("\nRNN state after 6 steps, plant sampling:", np.round(states[-1], 6))

print("\nrandomized equivalence suites (20 instances each):")
print(f"  mlp forward max err : {mlp_equivalence_suite(20, rng):.2e}")
fwd, grad = rnn_equivalence_suite(20, rng)
print(f"  rnn forward max err : {fwd:.2e}")
print(f"  rnn bptt   max err  : {grad:.2e}")
