"""Finite-dimensional spectral localizers with certified index pairings."""

from .errors import (
    AdmissibilityError,
    ClassInconsistencyError,
    ConfigError,
    DomainError,
    GaplessError,
    GenerationError,
    InternalConsistencyError,
    LocalizerLabError,
    ModelArgumentError,
    NotInvertibleError,
    ParityError,
    PreconditionError,
    ResolutionError,
    SpectralCutError,
)
from .grading import (
    GradedOperator,
    GradedSpace,
    SpectralDecomposition,
    func_calc,
    gap,
    lipschitz_derivative,
    operator_norm,
)
from .localizing import (
    LocalizingFunction,
    default_localizer,
    fourier_weight,
    validate_localizing,
)
from .localizer import (
    LocalizerBundle,
    LocalizerParams,
    assemble_localizer,
    certificate_residual,
    choose_params,
    constant_C,
    lower_bound_residual,
    measure_constants,
    select_scale,
    sharp_localizer,
    square_identity_residual,
    support_residual,
)
from .ktheory import (
    HomotopyReport,
    Inertia,
    LocalizerIndexReport,
    dirac_path,
    dirac_path_stability,
    half_signature_class,
    homotopy_stability,
    localizer_index,
    phase_path,
    positive_projection,
    signature,
)
from .oracles import (
    IndexResult,
    chern_number_bz,
    compressed_index,
    graded_kernel_index,
    window_signature_index,
)
from .models import (
    ModelDescriptor,
    RandomLipschitz,
    mk_block_example,
    oscillator_dirac,
    parse_model,
    qwz_bloch,
    qwz_chern_model,
    random_lipschitz,
)
from .matrixio import read_operator, write_operator
from .config import RunConfig, build_config, load_config_file
from .verification import (
    CheckResult,
    parallel_map,
    run_suite,
    suite_bounds,
    suite_homotopy,
    suite_identities,
)

__version__ = "0.1.0"
