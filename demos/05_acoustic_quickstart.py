"""A one-minute version of the acoustic experiment.

A 6 m tube at 8 kHz delays and filters whatever the speaker plays; a rectifier
feeds the microphone signal back into the speaker.  Input/output masks are the
only trained parameters -- every gradient for the input masks arrives as
sound played backwards through the tube.  The full experiment lives in the
bundled config (`echotrain run --config acoustic_delay_task`).
"""

import numpy as np

from echotrain import (
    TrainConfig,
    TubeParams,
    make_acoustic_system,
    make_tube_kernel,
    train,
    variable_delay_task,
    window_means,
)

params = TubeParams(length_m=6.0, reflection_coeff=0.6, n_echoes=3,
                    passband=(80.0, 3200.0), kernel_len=900,
                    sample_rate=8000.0, loop_gain=0.8)
kernel = make_tube_kernel(params, np.random.default_rng(1234), dt=1.0)
print(f"tube impulse response: first arrival at tap {kernel.nonzero_lags()[0]} "
      f"(geometry predicts {params.first_arrival})")

system, template = make_acoustic_system(kernel, period=200)
task = variable_delay_task()  # y_i = q_{i - q_i}, q_i in {0,1,2}

cfg = TrainConfig(iterations=400, batch_len=100, lr0=0.25, seed=7,
                  trainable=("m", "u"))
log, trained_system, trained_masks = train(system, template, task, cfg)

print("\nNRMSE, means over 50-iteration windows:")
for i, v in enumerate(window_means(log.metrics, 50)):
    print(f"  iterations {50*i:4d}-{50*(i+1)-1:4d}: {v:.3f}")
print("\n(2500 iterations in the bundled config reach ~0.26; the input-only and"
      "\noutput-only ablations plateau higher -- the backward pass through the"
      "\ntube is doing real work.)")
