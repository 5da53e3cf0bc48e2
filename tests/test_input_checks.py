"""Input checks: each bad value raises its error type, naming the
parameter it is about."""
import math
import re

import numpy as np
import pytest

from dpdkit.errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    FormatError,
)
from dpdkit.gmp import (
    Branch,
    CoefficientVector,
    GmpStructure,
    KernelDescriptor,
    build_kernel_matrix,
    full_structure,
)
from dpdkit.pa_sim import IlcConfig, PaModel
from dpdkit.pipeline import ScheduleSpec, parse_config
from dpdkit.signal import _HEADER, IqSignal, OfdmConfig, evm_db, read_iq
from dpdkit.solver import (
    BcdConfig,
    RegularizationSchedule,
    default_schedule,
    kkt_check,
    lasso_iterated_ridge,
    least_squares,
    ls_refine,
)


def _coeffs():
    return CoefficientVector(full_structure(0, 1), [1.0])


def _signal(*values):
    return IqSignal(np.array(values, dtype=np.complex128))


def _iq_file(tmp_path, version=1, count=2, rate=1.0):
    """An IQ file of two zero samples whose header says ``version``,
    ``count`` and ``rate``."""
    path = tmp_path / "bad.iq"
    path.write_bytes(_HEADER.pack(b"IQF1", version, count, rate) + bytes(32))
    return path


def _refine(support):
    return ls_refine(np.eye(3, dtype=np.complex128), np.ones(3), support)


# (call on a tmp_path, error type, text of the message naming the parameter)
CASES = {
    # The shared checks of errors.py, one row per call site.
    "OfdmConfig-count-not-an-integer": (lambda t: OfdmConfig(n_symbols=2.5), ConfigurationError, "n_symbols"),
    "OfdmConfig-seed-beyond-64-bits": (lambda t: OfdmConfig(seed=2**64), ConfigurationError, "seed"),
    "IlcConfig-iterations-not-an-integer": (lambda t: IlcConfig(iterations=2.5), ConfigurationError, "iterations"),
    "BcdConfig-outer-not-an-integer": (lambda t: BcdConfig(outer_iterations=2.5), ConfigurationError, "outer_iterations"),
    "BcdConfig-inner-a-bool": (lambda t: BcdConfig(inner_ridge_iterations=True), ConfigurationError, "inner_ridge_iterations"),
    "config-run-seed-negative": (lambda t: parse_config("run.seed = -1"), ConfigurationError, "run.seed"),
    "IqSignal-rate-zero": (lambda t: IqSignal([1j], 0.0), ConfigurationError, "sample_rate_hz"),
    "IqSignal-rate-a-string": (lambda t: IqSignal([1j], "1.0"), ConfigurationError, "sample_rate_hz"),
    "OfdmConfig-target-rms-nan": (lambda t: OfdmConfig(target_rms=math.nan), ConfigurationError, "target_rms"),
    "OfdmConfig-rate-negative": (lambda t: OfdmConfig(sample_rate_hz=-1.0), ConfigurationError, "sample_rate_hz"),
    "PaModel-saturation-infinite": (lambda t: PaModel(_coeffs(), saturation_level=math.inf), ConfigurationError, "saturation_level"),
    "BcdConfig-tolerance-zero": (lambda t: BcdConfig(inner_tolerance=0.0), ConfigurationError, "inner_tolerance"),
    "BcdConfig-epsilon-nan": (lambda t: BcdConfig(ridge_epsilon=math.nan), ConfigurationError, "ridge_epsilon"),
    "schedule-lambda-zero": (lambda t: RegularizationSchedule({0: 0.0}, {0: 0.1}), ConfigurationError, "lambda for order 0"),
    "lasso-penalty-negative": (lambda t: lasso_iterated_ridge(np.eye(2), np.ones(2), -1.0), ConfigurationError, "lasso penalty"),
    "schedule-threshold-nan": (lambda t: RegularizationSchedule({0: 1.0}, {0: math.nan}), ConfigurationError, "zero threshold for order 0"),
    "lasso-zero-threshold-infinite": (lambda t: lasso_iterated_ridge(np.eye(2), np.ones(2), 1.0, math.inf), ConfigurationError, "zero_threshold"),
    "ScheduleSpec-scale-zero": (lambda t: ScheduleSpec(lambda_scale=0.0), ConfigurationError, "schedule.lambda_scale"),
    "config-standard-lasso-negative": (lambda t: parse_config("standard_lasso.lambda = -1"), ConfigurationError, "standard_lasso.lambda"),
    "PaModel-gain-zero": (lambda t: PaModel(_coeffs(), smallsignal_gain=0j), ConfigurationError, "smallsignal_gain"),
    "IlcConfig-gain-infinite": (lambda t: IlcConfig(target_gain=complex(math.inf, 0.0)), ConfigurationError, "target_gain"),
    "BcdConfig-tolerance-a-string": (lambda t: BcdConfig(inner_tolerance="x"), ConfigurationError, "inner_tolerance"),
    "ScheduleSpec-scale-a-string": (lambda t: ScheduleSpec(lambda_scale="x"), ConfigurationError, "schedule.lambda_scale"),
    "IlcConfig-rate-a-string": (lambda t: IlcConfig(learning_rate="a"), ConfigurationError, "learning_rate"),
    "PaModel-saturation-a-string": (lambda t: PaModel(_coeffs(), saturation_level="x"), ConfigurationError, "saturation_level"),
    "PaModel-saturation-a-bool": (lambda t: PaModel(_coeffs(), saturation_level=True), ConfigurationError, "saturation_level"),
    "lasso-zero-threshold-a-bool": (lambda t: lasso_iterated_ridge(np.eye(2), np.ones(2), 1.0, True), ConfigurationError, "zero_threshold"),
    # Checks no other test reaches.
    "IqSignal-2-D": (lambda t: IqSignal(np.ones((2, 2))), DimensionError, "samples"),
    "IqSignal-empty": (lambda t: IqSignal([]), ConfigurationError, "signal"),
    "IqSignal-not-finite": (lambda t: _signal(1.0, math.nan), ConfigurationError, "samples"),
    "KernelDescriptor-odd-power": (lambda t: KernelDescriptor(Branch.ALIGNED, 3, 0), ConfigurationError, "envelope power"),
    "KernelDescriptor-negative-lag": (lambda t: KernelDescriptor(Branch.ALIGNED, 2, -1), ConfigurationError, "lag"),
    "KernelDescriptor-aligned-offset": (lambda t: KernelDescriptor(Branch.ALIGNED, 2, 0, 1), ConfigurationError, "envelope offset"),
    "KernelDescriptor-lagging-no-offset": (lambda t: KernelDescriptor(Branch.LAGGING, 2, 0), ConfigurationError, "envelope offset"),
    "axis-duplicates": (lambda t: GmpStructure((0,), (0, 0)), ConfigurationError, "aligned_lags"),
    "axis-an-integer": (lambda t: GmpStructure(2, (0,)), ConfigurationError, "aligned_orders"),
    "axis-none": (lambda t: GmpStructure(None, (0,)), ConfigurationError, "aligned_orders"),
    "axis-fractional-order": (lambda t: GmpStructure((0, 2.9), (0,)), ConfigurationError, "aligned_orders"),
    "axis-fractional-lag": (lambda t: GmpStructure((0,), (0, 1.5)), ConfigurationError, "aligned_lags"),
    "axis-order-a-string": (lambda t: GmpStructure(("2",), (0,)), ConfigurationError, "aligned_orders"),
    "axis-lag-a-bool": (lambda t: GmpStructure((0,), (0, True)), ConfigurationError, "aligned_lags"),
    "KernelDescriptor-fractional-offset": (lambda t: KernelDescriptor(Branch.LAGGING, 2, 0, 1.5), ConfigurationError, "lagging envelope offset"),
    "KernelDescriptor-branch-a-string": (lambda t: KernelDescriptor("aligned", 0, 0), ConfigurationError, "branch"),
    "schedule-key-a-float": (lambda t: RegularizationSchedule({2.0: 1.0}, {2: 0.1}), ConfigurationError, "lambda_by_order"),
    "schedule-lambdas-a-list": (lambda t: RegularizationSchedule([2], {}), ConfigurationError, "lambda_by_order"),
    "schedule-thresholds-a-list": (lambda t: RegularizationSchedule({0: 1.0}, [0]), ConfigurationError, "threshold_by_order"),
    "axis-below-minimum": (lambda t: GmpStructure((0,), (0,), (2,), (0,), (0,)), ConfigurationError, "lagging_cross"),
    "full-structure-negative-depth": (lambda t: full_structure(-1, 3), ConfigurationError, "memory_depth"),
    "full-structure-lagging-depth-not-an-integer": (lambda t: full_structure(1, 3, 1.0), ConfigurationError, "lagging_depth"),
    "full-structure-order-zero": (lambda t: full_structure(1, 0), ConfigurationError, "max_order"),
    "full-structure-order-fractional": (lambda t: full_structure(3, 2.5), ConfigurationError, "max_order"),
    "full-structure-order-a-float": (lambda t: full_structure(3, 3.0), ConfigurationError, "max_order"),
    "full-structure-order-a-bool": (lambda t: full_structure(3, True), ConfigurationError, "max_order"),
    "CoefficientVector-2-D": (lambda t: CoefficientVector(full_structure(0, 1), [[1.0]]), DimensionError, "coefficients"),
    "CoefficientVector-not-finite": (lambda t: CoefficientVector(full_structure(0, 1), [math.inf]), ConfigurationError, "coefficients"),
    "ls-refine-empty-support": (lambda t: _refine(np.array([], dtype=np.intp)), ConfigurationError, "support"),
    "ls-refine-2-D-support": (lambda t: _refine([[0, 1]]), ConfigurationError, "support"),
    "ls-refine-float-support": (lambda t: _refine([0.0, 1.0]), ConfigurationError, "support"),
    "ls-refine-repeated-support": (lambda t: _refine([1, 1]), ConfigurationError, "support"),
    "ls-refine-support-out-of-range": (lambda t: _refine([0, 3]), ConfigurationError, "support"),
    "design-not-2-D": (lambda t: least_squares(np.ones(3), np.ones(3)), DimensionError, "design matrix"),
    "target-not-1-D": (lambda t: least_squares(np.ones((3, 1)), np.ones((3, 1))), DimensionError, "target"),
    "least-squares-no-columns": (lambda t: least_squares(np.zeros((3, 0)), np.ones(3)), ConfigurationError, "design"),
    "lasso-no-columns": (lambda t: lasso_iterated_ridge(np.zeros((3, 0)), np.ones(3), 1.0), ConfigurationError, "design"),
    "kkt-no-columns": (lambda t: kkt_check(np.zeros((3, 0)), np.ones(3), np.zeros(0), 1.0), ConfigurationError, "design"),
    "schedule-of-no-kernels": (lambda t: default_schedule(GmpStructure((), ())), ConfigurationError, "structure"),
    "kernel-matrix-signal-not-1-D": (lambda t: build_kernel_matrix(np.ones((2, 2)), full_structure(0, 1)), DimensionError, "signal"),
    "kernel-matrix-of-no-kernels": (lambda t: build_kernel_matrix(np.ones(2), GmpStructure((), ())), ConfigurationError, "structure"),
    "kkt-solution-length": (lambda t: kkt_check(np.eye(2), np.ones(2), np.zeros(3), 1.0), DimensionError, "solution"),
    "kkt-solution-not-finite": (lambda t: kkt_check(np.eye(2), np.ones(2), [math.nan, 0.0], 1.0), ConfigurationError, "solution"),
    "kkt-schedule-on-a-plain-matrix": (lambda t: kkt_check(np.eye(2), np.ones(2), np.zeros(2), RegularizationSchedule({0: 1.0}, {0: 0.0})), ConfigurationError, "schedule"),
    "kkt-penalty-negative": (lambda t: kkt_check(np.eye(2), np.ones(2), np.zeros(2), -1.0), ConfigurationError, "penalty"),
    "read-iq-version": (lambda t: read_iq(_iq_file(t, version=2)), FormatError, "version"),
    "read-iq-count": (lambda t: read_iq(_iq_file(t, count=0)), FormatError, "sample count"),
    "read-iq-rate": (lambda t: read_iq(_iq_file(t, rate=math.nan)), FormatError, "sample rate"),
    "evm-lengths-differ": (lambda t: evm_db(_signal(1, 2), _signal(1)), DimensionError, "received length"),
    "evm-zero-reference": (lambda t: evm_db(_signal(1), _signal(0)), DegenerateInputError, "reference"),
}


@pytest.mark.parametrize("call, error, name", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_naming_its_parameter(tmp_path, call, error, name):
    with pytest.raises(error, match=re.escape(name)):
        call(tmp_path)
