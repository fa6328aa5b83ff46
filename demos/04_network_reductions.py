"""Delta-kernel plants ARE neural networks.

Two constructive reductions: a stacked-state plant that reproduces a deep
rectifier network under held inputs, and a delayed-feedback plant that steps
a discrete RNN once per period.  Both match a few lines of dense numpy to
machine precision; acceptance criterion 3 in the tests also checks the BPTT
gradients over 50 random instances of each.
"""

import numpy as np

from echotrain import DenseNet, DenseRNN, Nonlinearity, mlp_settled_output, rnn_state_trajectory

rng = np.random.default_rng(3)

# a 3-hidden-layer rectifier network as a physical plant
sizes = [4, 6, 5, 4, 2]
ws = tuple(rng.standard_normal((sizes[i + 1], sizes[i])) for i in range(4))
net = DenseNet(ws, Nonlinearity("rectifier"))
x = rng.standard_normal(4)
h = x
for W in ws[:-1]:
    h = np.maximum(W @ h, 0.0)
dense = ws[-1] @ h
plant = mlp_settled_output(net, x)
print("deep net, dense vs settled plant:")
print("  dense :", np.round(dense, 6))
print("  plant :", np.round(plant, 6))
print(f"  max err: {np.max(np.abs(plant - dense)):.2e}")

# a 5-unit RNN as a delayed-feedback plant
rnn = DenseRNN(rng.standard_normal((5, 2)),
               0.4 * rng.standard_normal((5, 5)),
               rng.standard_normal((2, 5)),
               Nonlinearity("rectifier"), period=3)
xs = rng.standard_normal((6, 2))
states, outputs = rnn_state_trajectory(rnn, xs)
h, dense_states = np.zeros(5), []
for x_k in xs:
    h = np.maximum(rnn.w_s @ x_k + rnn.w_a @ h, 0.0)
    dense_states.append(h)
print("\nRNN state after 6 steps, plant sampling:", np.round(states[-1], 6))
print(f"  max err over all 6 states: {np.max(np.abs(states - np.array(dense_states))):.2e}")
