"""Sparse memory-polynomial modeling and digital predistortion toolkit.

Submodules: ``signal`` (OFDM stimulus, metrics, IQ files), ``gmp``
(model structure, kernel matrices, coefficient files), ``solver``
(least squares, Lasso, block-weighted Lasso), ``pa_sim``
(amplifier simulation and iterative drive learning), ``pipeline``
(config files and the packaged experiments), ``cli`` (command line).
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigurationError,
    DegenerateAlignmentError,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    DpdError,
    FormatError,
    RankDeficiencyError,
)
from .signal import (
    DB_FLOOR,
    IqSignal,
    MetricReport,
    OfdmConfig,
    evm_db,
    generate_ofdm,
    nmse_db,
    nmse_db_arrays,
    read_iq,
    write_iq,
)
from .gmp import (
    Branch,
    CoefficientVector,
    GmpStructure,
    KernelDescriptor,
    KernelMatrix,
    apply_model,
    build_kernel_matrix,
    effective_memory_depth,
    full_structure,
    kernel_count,
    max_memory_lag,
    read_coefficients,
    write_coefficients,
)
from .solver import (
    BcdConfig,
    FitRecord,
    FitTrace,
    KktReport,
    RegularizationSchedule,
    block_weighted_lasso,
    default_schedule,
    kkt_check,
    lasso_iterated_ridge,
    least_squares,
    ls_refine,
)
from .pa_sim import (
    IlcConfig,
    IlcResult,
    PaModel,
    default_pa_model,
    ilc_learn,
    pa_forward,
    read_pa_model,
    write_pa_model,
)
from .pipeline import (
    ComparisonReport,
    ExperimentConfig,
    ReportRow,
    ScheduleSpec,
    load_config,
    parse_config,
    run_experiment1,
    run_experiment2,
)

__version__ = "0.1.0"

# The public names are those the imports above bind, less the
# submodules that importing them binds too.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
