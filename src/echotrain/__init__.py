"""echotrain: trainable analog computers in simulation.

Linear dynamic systems with nonlinear feedback, driven through a
time-multiplexing mask codec and trained by physically-plausible error
backpropagation: the output error is played backwards through the reciprocal
(transposed-kernel) medium and the recorded response yields every parameter
gradient.  Includes a simulated acoustic tube plant, a delay-line optical
network plant, finite-difference gradient audits, and dense MLP/RNN
equivalence constructions.
"""

from .errors import (
    ConfigurationError,
    ConstraintError,
    DimensionError,
    DivergenceError,
    LengthError,
    NumericError,
    UndefinedMetricError,
)
from .gradients import (
    GradCheckConfig,
    GradCheckReport,
    grad_check,
    kernel_gradients,
    relative_error,
)
from .masking import (
    MaskSet,
    decode_outputs,
    encode_inputs,
    encode_output_errors,
    init_masks,
    input_mask_gradient,
    masks_to_csv,
    output_mask_gradient,
)
from .models import (
    OpticalParams,
    TubeParams,
    make_acoustic_system,
    make_optical_system,
    make_tube_kernel,
    random_optical_weights,
)
from .reductions import (
    DenseNet,
    DenseRNN,
    build_mlp_system,
    build_rnn_system,
    mlp_settled_output,
    rnn_state_trajectory,
)
from .serialize import load_system, save_system
from .signal import (
    Kernel,
    Signal,
    adjoint_convolve,
    convolve,
    inner,
    split_segments,
    time_reverse,
)
from .system import (
    BackwardPath,
    BackwardTrace,
    ForwardTrace,
    NoiseModel,
    Nonlinearity,
    PhysicalSystem,
    backward,
    forward,
)
from .tasks import (
    SequenceDataset,
    frame_error_rate,
    gen_synthetic_labels,
    gen_variable_delay,
    nrmse,
)
from .training import (
    Task,
    TrainConfig,
    TrainingLog,
    evaluate,
    mse_cost,
    normalize_gradient,
    softmax_ce_cost,
    synthetic_label_task,
    train,
    variable_delay_task,
    window_means,
)

__version__ = "0.1.0"
