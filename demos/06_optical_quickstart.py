"""A shortened run of the optical delay-network experiment.

Twenty neurons, fibre delay 109 samples against a 100-sample masking period
(so every state update straddles an instance boundary), 18 dB measurement
noise, and a clipped backward path.  The mixing matrix rides inside the
feedback kernel and is trained together with the masks, projected entrywise
to [-2, 2] -- the range the intensity-split modulators can realize.
"""

import numpy as np

from echotrain import (
    MaskSet,
    OpticalParams,
    TrainConfig,
    evaluate,
    make_optical_system,
    synthetic_label_task,
    train,
    window_means,
)

params = OpticalParams()  # 20 nodes, D = 109, 18 dB, clipped backward path
rng = np.random.default_rng(7)
system = make_optical_system(params, rng=rng)

# the signed mixing matrix as two non-negative modulator arrays W1 = 1 + W/2 and
# W2 = 1 - W/2 (|W| <= 2); the summed intensity W1 (1 + a) + W2 (1 - a) is
# W a plus the constant bias 2 n
W = system.w_aa.taps[params.delay_samples] * system.dt
W1, W2 = 1.0 + W / 2.0, 1.0 - W / 2.0
a = rng.uniform(-1, 1, params.n_nodes)
err = np.max(np.abs(W1 @ (1.0 + a) + W2 @ (1.0 - a) - 2.0 * params.n_nodes - W @ a))
assert np.all(W1 >= 0.0) and np.all(W2 >= 0.0) and err < 1e-12
print(f"intensity split round trip: max err {err:.2e}")

task = synthetic_label_task(n_classes=4, input_dim=8, window=3)
template = MaskSet.zeros(20, 8, 20, 4, period=100, dt=1.0)
cfg = TrainConfig(iterations=300, batch_len=100, lr0=1.0, seed=7,
                  trainable=("m", "u", "y_b", "w_aa"), w_aa_gain_bound=2.0)
log, sys2, masks2 = train(system, template, task, cfg, rng)

print("\nframe error rate, 100-iteration windows (chance = 0.75):")
for i, v in enumerate(window_means(log.metrics, 100)):
    print(f"  iterations {100*i:3d}-{100*(i+1)-1:3d}: {v:.3f}")

fer, _, _ = evaluate(sys2, masks2, task, 400, np.random.default_rng(12345),
                     noise_rng=np.random.default_rng(999))
print(f"\nfresh-sequence frame error after 300 iterations: {fer:.3f}")
print("(the bundled optical_labels config trains for 1000 iterations)")
