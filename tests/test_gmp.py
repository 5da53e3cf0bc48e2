"""GMP structures, kernel matrices, model application, coefficient files."""
import re
import tracemalloc

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from dpdkit import gmp
from dpdkit.errors import ConfigurationError, DimensionError, FormatError
from dpdkit.gmp import (
    ROW_CHUNK,
    Branch,
    CoefficientVector,
    GmpStructure,
    KernelDescriptor,
    apply_model,
    build_kernel_matrix,
    effective_memory_depth,
    full_structure,
    kernel_count,
    max_memory_lag,
    read_coefficients,
    write_coefficients,
)
from dpdkit.pa_sim import (
    IlcConfig,
    PaModel,
    default_pa_model,
    ilc_learn,
    read_pa_model,
    write_pa_model,
)
from dpdkit.signal import IqSignal, OfdmConfig, generate_ofdm

from helpers import naive_kernel_matrix


def _sig(values):
    return IqSignal(np.asarray(values, dtype=np.complex128), 1.0)


# --- structures ----------------------------------------------------------


def test_wideband_kernel_count():
    structure = full_structure(19, 15, 1)
    assert structure.kernel_count == 300
    assert len(structure.aligned_orders) * len(structure.aligned_lags) == 160
    assert (
        len(structure.lagging_orders)
        * len(structure.lagging_lags)
        * len(structure.lagging_cross)
        == 140
    )


def test_degenerate_structure_single_kernel():
    structure = full_structure(0, 1, 0)
    assert structure.kernel_count == 1
    only = structure.descriptors()[0]
    assert only.branch is Branch.ALIGNED
    assert only.order_exponent == 0 and only.lag == 0


def test_small_structure_count_by_hand():
    assert full_structure(1, 3, 1).kernel_count == 6


def test_cross_branches_exclude_order_zero():
    structure = full_structure(3, 7, 2, leading_depth=1)
    assert 0 in structure.aligned_orders
    assert 0 not in structure.lagging_orders
    assert 0 not in structure.leading_orders


def test_even_max_order_rejected():
    with pytest.raises(ConfigurationError):
        full_structure(4, 6, 1)


@pytest.mark.parametrize("name", ["lagging_depth", "leading_depth"])
def test_negative_cross_depth_rejected(name):
    with pytest.raises(ConfigurationError, match=f"{name} must be >= 0, got -1"):
        full_structure(4, 7, **{name: -1})


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_leading_branch_present_exactly_when_its_depth_is_positive(depth):
    structure = full_structure(4, 5, 1, leading_depth=depth)
    assert structure.leading_cross == tuple(range(1, depth + 1))
    has_leading = any(d.branch is Branch.LEADING for d in structure.descriptors())
    assert has_leading == (depth >= 1)


def test_cross_branches_hold_no_offsets_without_cross_orders():
    # max_order = 1: only k = 0, which the cross branches drop.
    structure = full_structure(2, 1, 2, leading_depth=3)
    assert structure == full_structure(2, 1)
    assert structure.lagging_cross == structure.leading_cross == ()


def test_descriptors_are_built_once_per_structure():
    structure = full_structure(3, 5, 2, leading_depth=1)
    first = structure.descriptors()
    assert structure.descriptors() is first
    assert first == full_structure(3, 5, 2, leading_depth=1).descriptors()


def test_canonical_descriptor_order():
    structure = full_structure(1, 3, 1, leading_depth=1)
    descriptors = structure.descriptors()
    branches = [d.branch for d in descriptors]
    first_lagging = branches.index(Branch.LAGGING)
    first_leading = branches.index(Branch.LEADING)
    assert all(b is Branch.ALIGNED for b in branches[:first_lagging])
    assert all(b is Branch.LAGGING for b in branches[first_lagging:first_leading])
    assert all(b is Branch.LEADING for b in branches[first_leading:])
    aligned_keys = [(d.order_exponent, d.lag) for d in descriptors[:first_lagging]]
    assert aligned_keys == sorted(aligned_keys)
    lagging_keys = [
        (d.order_exponent, d.lag, d.envelope_offset)
        for d in descriptors[first_lagging:first_leading]
    ]
    assert lagging_keys == sorted(lagging_keys)


def test_odd_order_exponent_rejected():
    with pytest.raises(ConfigurationError):
        GmpStructure(
            aligned_orders=(1,),
            aligned_lags=(0,),
            lagging_orders=(),
            lagging_lags=(),
            lagging_cross=(),
            leading_orders=(),
            leading_lags=(),
            leading_cross=(),
        )


# --- kernel matrix -------------------------------------------------------


def test_zero_signal_zero_matrix():
    matrix = build_kernel_matrix(_sig([0, 0, 0, 0]), full_structure(2, 3, 1))
    assert np.all(matrix.data == 0)


def test_aligned_column_example():
    # s(n-1)|s(n-1)|^2 on [1, j, -1, 2]: unit-modulus samples pass through.
    matrix = build_kernel_matrix(_sig([1, 1j, -1, 2]), full_structure(1, 3, 0))
    descriptors = matrix.columns
    at = descriptors.index(KernelDescriptor(Branch.ALIGNED, 2, 1))
    assert np.allclose(matrix.data[:, at], [0, 1, 1j, -1], atol=1e-15)


def test_lagging_column_example():
    matrix = build_kernel_matrix(_sig([1, 1j, -1, 2]), full_structure(1, 3, 1))
    at = matrix.columns.index(KernelDescriptor(Branch.LAGGING, 2, 0, 1))
    assert np.allclose(matrix.data[:, at], [0, 1j, -1, 2], atol=1e-15)


def test_aligned_linear_column_is_pure_delay():
    signal = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=3))
    matrix = build_kernel_matrix(signal, full_structure(2, 3, 0))
    at = matrix.columns.index(KernelDescriptor(Branch.ALIGNED, 0, 2))
    expected = np.concatenate([[0, 0], signal.samples[:-2]])
    assert np.array_equal(matrix.data[:, at], expected)


def test_matrix_matches_naive_loop_with_leading():
    rng = np.random.default_rng(21)
    samples = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    samples /= np.max(np.abs(samples))  # keep entries at unit scale
    structure = full_structure(3, 5, 2, leading_depth=1)
    matrix = build_kernel_matrix(_sig(samples), structure)
    oracle, columns = naive_kernel_matrix(samples, structure)
    assert matrix.data.shape == oracle.shape
    assert np.max(np.abs(matrix.data - oracle)) <= 1e-14
    got = [
        (d.branch.value, d.order_exponent, d.lag, d.envelope_offset)
        for d in matrix.columns
    ]
    assert got == columns


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 64),
    memory_depth=st.integers(0, 4),
    max_order=st.sampled_from([1, 3, 5, 7]),
    lagging_depth=st.integers(0, 2),
    leading_depth=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_data_is_the_same_at_any_row_block_and_matches_the_definition(
    n, memory_depth, max_order, lagging_depth, leading_depth, seed
):
    structure = full_structure(memory_depth, max_order, lagging_depth, leading_depth)
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    samples /= np.max(np.abs(samples))  # keep entries at unit scale
    data = build_kernel_matrix(_sig(samples), structure).data
    # 7-row blocks: most signals cross several and end in a short tail.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gmp, "ROW_CHUNK", 7)
        blocked = build_kernel_matrix(_sig(samples), structure).data
    assert np.array_equal(_bits(blocked), _bits(data))
    oracle, _ = naive_kernel_matrix(samples, structure)
    assert data.shape == oracle.shape
    assert np.max(np.abs(data - oracle)) <= 1e-14


# --- model application ---------------------------------------------------


def test_apply_model_zero_coefficients():
    structure = full_structure(2, 3, 1)
    signal = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=5))
    out = apply_model(signal, CoefficientVector(structure, np.zeros(structure.kernel_count)))
    assert np.all(out.samples == 0)


def test_apply_model_linear_identity():
    structure = full_structure(0, 1, 0)
    signal = generate_ofdm(OfdmConfig(64, 52, 1, 2, seed=6))
    out = apply_model(signal, CoefficientVector(structure, [0.5 - 0.5j]))
    assert np.allclose(out.samples, (0.5 - 0.5j) * signal.samples, rtol=1e-15)


def test_apply_model_matches_matrix_path():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    structure = full_structure(1, 3, 1)
    assert structure.kernel_count == 6
    values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    coeffs = CoefficientVector(structure, values)
    streamed = apply_model(_sig(samples), coeffs)
    matrix = build_kernel_matrix(_sig(samples), structure)
    direct = matrix.data @ values
    assert np.max(np.abs(streamed.samples - direct)) <= 1e-12 * np.max(np.abs(direct))


def _column_sum(signal, coeffs):
    """``sum of c_j S[:, j]`` over the support, added column by column in order."""
    data = build_kernel_matrix(signal, coeffs.structure).data
    out = np.zeros(len(signal), dtype=np.complex128)
    for j in coeffs.support():
        out += coeffs.values[j] * np.ascontiguousarray(data[:, j])
    return out


def _sparse_coefficients(structure, rng, density=0.6):
    p = structure.kernel_count
    values = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    values[rng.random(p) > density] = 0
    return CoefficientVector(structure, values)


_BLOCK_STRUCTURES = {
    "aligned": GmpStructure(aligned_orders=(0, 2, 4), aligned_lags=(0, 1, 3)),
    "lagging": GmpStructure(
        aligned_orders=(0,), aligned_lags=(2,),
        lagging_orders=(0, 2), lagging_lags=(1, 4), lagging_cross=(1, 3),
    ),
    "leading": GmpStructure(
        aligned_orders=(2,), aligned_lags=(1,),
        leading_orders=(2, 4), leading_lags=(0, 2), leading_cross=(1, 5),
    ),
    "all": full_structure(3, 5, 2, leading_depth=2),
}


def _assert_within_rounding_of_column_sum(signal, coeffs):
    """Each output sample is within ``2 (K + 2) eps sum_j |c_j| |S_nj|`` of
    the column sum, K being the support size: a few rounding errors of
    the terms, where a dropped or mis-lagged kernel misses by the size of
    its term."""
    out = apply_model(signal, coeffs).samples
    support = coeffs.support()
    data = build_kernel_matrix(signal, coeffs.structure).data
    scale = np.abs(data[:, support]) @ np.abs(coeffs.values[support])
    bound = 2 * (support.size + 2) * np.finfo(float).eps * scale
    assert np.all(np.abs(out - _column_sum(signal, coeffs)) <= bound)


# "bitwise" in the names of these two tests is historical: the output is
# summed by lag, so they hold it to the rounding bound above.
@pytest.mark.parametrize("name", sorted(_BLOCK_STRUCTURES))
@pytest.mark.parametrize("n", [1, 3, 6, 7, 8, 29, 50])
def test_apply_model_is_the_column_sum_bitwise_across_blocks(monkeypatch, name, n):
    # 7-sample blocks: the longer signals cross many and end in a short
    # tail; the shorter ones are shorter than the lag span.  Density 0
    # leaves the support empty.
    monkeypatch.setattr(gmp, "ROW_CHUNK", 7)
    structure = _BLOCK_STRUCTURES[name]
    rng = np.random.default_rng(n)
    signal = _sig(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for density in (1.0, 0.5, 0.2, 0.0):
        _assert_within_rounding_of_column_sum(signal, _sparse_coefficients(structure, rng, density))


def test_apply_model_is_the_column_sum_bitwise_at_full_blocks():
    structure = full_structure(4, 7, 2, leading_depth=2)
    signal = generate_ofdm(OfdmConfig(64, 52, 17, 8, seed=10))
    assert len(signal) > 2 * ROW_CHUNK
    _assert_within_rounding_of_column_sum(
        signal, _sparse_coefficients(structure, np.random.default_rng(10))
    )


def test_apply_model_memory_stays_near_its_output():
    # The output is the only signal-sized array: the signal takes it over
    # without a copy, and the bases exist one block at a time.
    signal = generate_ofdm(OfdmConfig(64, 52, 512, 4, seed=11))
    assert len(signal) == 131072
    coeffs = default_pa_model().coefficients
    tracemalloc.start()
    try:
        out = apply_model(signal, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.samples.nbytes
    assert not out.samples.flags.writeable
    assert not np.shares_memory(out.samples, signal.samples)


_ORDERS = st.lists(st.sampled_from([0, 2, 4, 6]), unique=True, max_size=3)
_LAGS = st.lists(st.integers(0, 40), unique=True, min_size=1, max_size=4)
_CROSS = st.lists(st.integers(1, 6), unique=True, max_size=2)


@st.composite
def _model_problems(draw):
    """A structure over all three branches, a signal of 1 to 300 samples
    (lags may exceed it), a row block and a seed for the coefficients."""
    structure = GmpStructure(
        aligned_orders=draw(_ORDERS), aligned_lags=draw(_LAGS),
        lagging_orders=draw(_ORDERS), lagging_lags=draw(_LAGS), lagging_cross=draw(_CROSS),
        leading_orders=draw(_ORDERS), leading_lags=draw(_LAGS), leading_cross=draw(_CROSS),
    )
    assume(structure.kernel_count > 0)
    n = draw(st.integers(1, 300))
    chunk = draw(st.one_of(st.integers(1, 64), st.just(ROW_CHUNK)))
    return structure, n, chunk, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(problem=_model_problems())
def test_apply_model_properties(problem):
    structure, n, chunk, seed = problem
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    samples[rng.random(n) < 0.1] = 0
    signal = _sig(samples)
    p = structure.kernel_count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gmp, "ROW_CHUNK", chunk)
        _assert_within_rounding_of_column_sum(
            signal, _sparse_coefficients(structure, rng, rng.random())
        )
        zero = apply_model(signal, CoefficientVector(structure, np.zeros(p)))
        assert np.array_equal(zero.samples.view(np.float64), np.zeros(2 * n))
        flat = [j for j, d in enumerate(structure.descriptors()) if d.order_exponent == 0]
        if flat:
            j = int(rng.choice(flat))
            c = complex(rng.standard_normal(), rng.standard_normal())
            single = np.zeros(p, dtype=np.complex128)
            single[j] = c
            lag = structure.descriptors()[j].lag
            expected = np.zeros(n, dtype=np.complex128)
            expected[lag:] = c * samples[: max(n - lag, 0)]
            assert np.array_equal(apply_model(signal, CoefficientVector(structure, single)).samples,
                                  expected)
            linear = np.zeros(p, dtype=np.complex128)
            linear[flat] = rng.standard_normal(len(flat)) + 1j * rng.standard_normal(len(flat))
            coeffs = CoefficientVector(structure, linear)
            once = apply_model(signal, coeffs).samples
            assert np.array_equal(apply_model(_sig(2 * samples), coeffs).samples, 2 * once)


def test_apply_model_linear_in_coefficients():
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    structure = full_structure(2, 5, 1)
    p = structure.kernel_count
    w1 = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    w2 = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    lhs = apply_model(_sig(samples), CoefficientVector(structure, w1 + w2)).samples
    rhs = (
        apply_model(_sig(samples), CoefficientVector(structure, w1)).samples
        + apply_model(_sig(samples), CoefficientVector(structure, w2)).samples
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1.0)


# Several powers at one offset on every branch, with gaps in the powers
# (2, 4, 8 and 0, 2, 6) and a power 0 among them.
_CHAINED = GmpStructure(
    aligned_orders=(0, 2, 4, 6), aligned_lags=(0, 2),
    lagging_orders=(2, 4, 8), lagging_lags=(1,), lagging_cross=(1, 3),
    leading_orders=(0, 2, 6), leading_lags=(0, 3), leading_cross=(2,),
)


def test_chained_envelope_rows_are_the_plain_product_bitwise(monkeypatch):
    # Samples with signed-zero parts, and samples near 1e150, whose
    # squares reach 1e300 and whose higher powers overflow to inf.
    monkeypatch.setattr(gmp, "ROW_CHUNK", 7)
    rng = np.random.default_rng(12)
    n = 40
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    samples[::5] = complex(-0.0, 0.5)
    samples[1::5] = complex(0.75, -0.0)
    samples[2::9] *= 1e150
    samples[3] = complex(-0.0, -0.0)
    bases, _, lag = gmp._bases_of(_CHAINED.descriptors())
    layout = gmp._block_layout(bases, lag)
    # Rows that continue the row of a lower power, across gaps of 2 too.
    chained = [times for _, below, _, times in layout.recipe if below is not None]
    assert len(chained) >= 7 and max(chained) == 2
    # |s(q)|^2 at q = -pad .. n + pad - 1, zero outside the signal.
    pad = 16
    padded = np.zeros(n + 2 * pad, dtype=np.complex128)
    padded[pad : pad + n] = samples
    squared = padded.real * padded.real + padded.imag**2
    side = {Branch.ALIGNED: 0, Branch.LAGGING: -1, Branch.LEADING: 1}
    envelope = np.empty((len(bases), 7 + layout.hi - layout.lo))
    blocks = 0
    with np.errstate(over="ignore"):
        for start, _, _, rows in gmp._base_blocks(samples, layout, n, envelope):
            blocks += 1
            first = start - layout.hi + pad
            for b, d in enumerate(bases):
                at = first + side[d.branch] * (d.envelope_offset or 0)
                plain = np.ones(rows.shape[1])
                for _ in range(d.order_exponent // 2):
                    plain *= squared[at : at + rows.shape[1]]
                assert np.array_equal(rows[b].view(np.uint64), plain.view(np.uint64))
    assert blocks == 6
    assert np.isinf(envelope).any()


def _counting_bases_of(monkeypatch):
    calls = []
    bases_of = gmp._bases_of

    def spy(descriptors):
        calls.append(len(descriptors))
        return bases_of(descriptors)

    monkeypatch.setattr(gmp, "_bases_of", spy)
    return calls


def test_ilc_builds_the_amplifier_plan_once(monkeypatch):
    model = default_pa_model()
    reference = generate_ofdm(OfdmConfig(64, 52, 8, 4, seed=13))
    calls = _counting_bases_of(monkeypatch)
    result = ilc_learn(reference, model, IlcConfig(iterations=3))
    assert len(result.error_db) == 4  # four amplifier passes
    assert calls == [model.coefficients.support().size]


def test_apply_model_plan_is_reused_and_read_only(monkeypatch):
    rng = np.random.default_rng(14)
    signal = _sig(rng.standard_normal(50) + 1j * rng.standard_normal(50))
    coeffs = _sparse_coefficients(_CHAINED, rng)
    calls = _counting_bases_of(monkeypatch)
    first = apply_model(signal, coeffs).samples
    assert np.array_equal(_bits(apply_model(signal, coeffs).samples), _bits(first))
    assert len(calls) == 1
    fresh = CoefficientVector(_CHAINED, coeffs.values)
    assert np.array_equal(_bits(apply_model(signal, fresh).samples), _bits(first))
    assert len(calls) == 2
    _, weights, _ = coeffs._plan
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0] = 1.0
    # The plan holds nothing of the block size: a smaller one set after
    # the plan is built still gives the column sum.
    monkeypatch.setattr(gmp, "ROW_CHUNK", 7)
    _assert_within_rounding_of_column_sum(signal, coeffs)


# --- structural metrics --------------------------------------------------


def _vector_with(structure, active):
    values = np.zeros(structure.kernel_count, dtype=np.complex128)
    descriptors = structure.descriptors()
    for key, value in active.items():
        values[descriptors.index(key)] = value
    return CoefficientVector(structure, values)


def test_depth_aligned_only():
    structure = full_structure(13, 3, 0)
    coeffs = _vector_with(structure, {KernelDescriptor(Branch.ALIGNED, 2, 13): 1.0})
    assert effective_memory_depth(coeffs) == 13


def test_depth_counts_lagging_cross_offset():
    structure = full_structure(12, 3, 1)
    coeffs = _vector_with(structure, {KernelDescriptor(Branch.LAGGING, 2, 12, 1): 1.0})
    assert effective_memory_depth(coeffs) == 13
    assert max_memory_lag(coeffs) == 12


def test_depth_empty_support():
    structure = full_structure(2, 3, 1)
    coeffs = CoefficientVector(structure, np.zeros(structure.kernel_count))
    assert effective_memory_depth(coeffs) == -1
    assert max_memory_lag(coeffs) == -1
    assert kernel_count(coeffs) == 0


def test_depth_full_support_invariant():
    structure = full_structure(9, 7, 1)
    coeffs = CoefficientVector(structure, np.ones(structure.kernel_count))
    assert effective_memory_depth(coeffs) == 10  # max(L, max lag + max cross)
    assert kernel_count(coeffs) == structure.kernel_count


def test_kernel_count_threshold():
    structure = full_structure(1, 3, 1)
    values = np.array([1.0, 0.5, 0.01, 0.0, 0.0, 0.002])
    coeffs = CoefficientVector(structure, values)
    assert kernel_count(coeffs) == 4


def test_support_indices():
    structure = full_structure(1, 3, 1)
    coeffs = CoefficientVector(structure, [1.0, 0, 0, 0.2, 0, 0])
    assert list(coeffs.support()) == [0, 3]


# --- coefficient files ---------------------------------------------------


def test_coefficient_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    structure = full_structure(3, 5, 1)
    values = rng.standard_normal(structure.kernel_count) * np.exp(
        2j * np.pi * rng.random(structure.kernel_count)
    )
    values[::3] = 0.0
    coeffs = CoefficientVector(structure, values)
    path = tmp_path / "model.txt"
    write_coefficients(path, coeffs)
    back = read_coefficients(path)
    assert back.structure == structure
    assert np.array_equal(back.values, coeffs.values)


def test_coefficient_file_omits_zeros_by_default(tmp_path):
    structure = full_structure(1, 3, 1)
    coeffs = CoefficientVector(structure, [1.0, 0, 0, 0, 0, 0])
    path = tmp_path / "model.txt"
    write_coefficients(path, coeffs)
    records = [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith(("#", "[")) and "=" not in line
    ]
    assert len(records) == 1
    write_coefficients(path, coeffs, include_zeros=True)
    records = [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith(("#", "[")) and "=" not in line
    ]
    assert len(records) == 6


def test_coefficient_file_unknown_kernel(tmp_path):
    structure = full_structure(1, 3, 0)
    coeffs = CoefficientVector(structure, [1.0, 0, 0, 0])
    path = tmp_path / "model.txt"
    write_coefficients(path, coeffs)
    with open(path, "a") as fh:
        fh.write("lagging 2 0 1 0.5 0.0\n")
    with pytest.raises(FormatError):
        read_coefficients(path)


def test_coefficient_file_duplicate_record(tmp_path):
    structure = full_structure(1, 3, 0)
    coeffs = CoefficientVector(structure, [1.0, 0, 0, 0])
    path = tmp_path / "model.txt"
    write_coefficients(path, coeffs)
    with open(path, "a") as fh:
        fh.write("aligned 0 0 - 1.0 0.0\n")
    with pytest.raises(FormatError) as err:
        read_coefficients(path)
    assert "duplicate" in str(err.value)


def test_coefficient_file_bad_tag(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("format = something-else/9\n[coefficients]\n")
    with pytest.raises(FormatError):
        read_coefficients(path)


# --- the text layer of every key = value format ------------------------------

_KEYS = st.text("abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=12)
# Printable ASCII but the comment mark; values are read back stripped.
_VALUES = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters="#"),
    max_size=16,
).map(str.strip)
_PADS = st.text(" \t", max_size=3)
_FILLER = st.sampled_from(["", "   ", "# a full-line comment", "  \t# indented comment"])


@st.composite
def _entry_text(draw, repeat=False):
    """Distinct ``key = value`` entries, the line of each, and a text that
    holds them among blank and comment lines, padded and with trailing
    comments.  With ``repeat``, a last entry repeats one of the keys, and
    the line of that repeat is under the key None."""
    entries = draw(st.dictionaries(_KEYS, _VALUES, min_size=int(repeat), max_size=8))
    lines, where = [], {}
    for key, value in entries.items():
        lines += draw(st.lists(_FILLER, max_size=2))
        pad = [draw(_PADS) for _ in range(4)]
        comment = draw(st.sampled_from(["", "# trailing", "#"]))
        lines.append(f"{pad[0]}{key}{pad[1]}={pad[2]}{value}{pad[3]}{comment}")
        where[key] = len(lines)
    if repeat:
        lines.append(f"{draw(st.sampled_from(sorted(entries)))} = {draw(_VALUES)}")
        where[None] = len(lines)
    lines += draw(st.lists(_FILLER, max_size=2))
    return entries, where, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=50, deadline=None)
@given(case=_entry_text())
def test_text_layer_reads_back_every_entry(case):
    entries, where, text = case
    read = gmp._read_entries(gmp._text_lines(text), "src.txt")
    assert read == {key: ("src.txt", where[key], value) for key, value in entries.items()}


@settings(max_examples=50, deadline=None)
@given(case=_entry_text(repeat=True))
def test_text_layer_names_the_line_of_a_repeated_key(case):
    _, where, text = case
    with pytest.raises(FormatError, match=rf"duplicate key .*\(src\.txt, line {where[None]}\)"):
        gmp._read_entries(gmp._text_lines(text), "src.txt")


# --- one reader and one writer for both file formats -------------------------

_ORDERS = st.lists(st.sampled_from([0, 2, 4, 6]), max_size=3, unique=True)
_LAGS = st.lists(st.integers(0, 5), max_size=3, unique=True)
_CROSS = st.lists(st.integers(1, 3), max_size=2, unique=True)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308]),
)


@st.composite
def _coefficients(draw):
    """Coefficients over a random structure; a cross branch may be empty."""
    structure = GmpStructure(
        draw(_ORDERS), draw(_LAGS),
        draw(_ORDERS), draw(_LAGS), draw(_CROSS),
        draw(_ORDERS), draw(_LAGS), draw(_CROSS),
    )
    n = structure.kernel_count
    values = np.zeros(n, dtype=np.complex128)
    values.real = draw(st.lists(_FLOATS, min_size=n, max_size=n))
    values.imag = draw(st.lists(_FLOATS, min_size=n, max_size=n))
    return CoefficientVector(structure, values)


def _bits(values):
    return np.array(values, dtype=np.complex128).view(np.uint64)


def _as_read_back(coeffs, include_zeros):
    """What a round trip keeps: omitted zeros, signed or not, read as +0."""
    values = coeffs.values.copy()
    if not include_zeros:
        values[values == 0] = 0.0
    return values


@settings(max_examples=75, deadline=None)
@given(coeffs=_coefficients(), include_zeros=st.booleans())
def test_coefficient_file_round_trip_is_bitwise(tmp_path_factory, coeffs, include_zeros):
    path = tmp_path_factory.mktemp("coeffs") / "model.txt"
    write_coefficients(path, coeffs, include_zeros=include_zeros, comment="any comment")
    back = read_coefficients(path)
    assert back.structure == coeffs.structure
    assert np.array_equal(_bits(back.values), _bits(_as_read_back(coeffs, include_zeros)))


@settings(max_examples=75, deadline=None)
@given(
    coeffs=_coefficients(),
    gain=st.tuples(_FLOATS, _FLOATS).filter(lambda g: complex(*g) != 0),
    level=st.one_of(st.none(), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
)
def test_pa_model_file_round_trip_is_bitwise(tmp_path_factory, coeffs, gain, level):
    model = PaModel(coeffs, complex(*gain), level)
    path = tmp_path_factory.mktemp("pa") / "model.txt"
    write_pa_model(path, model)
    back = read_pa_model(path)
    assert back.coefficients.structure == coeffs.structure
    assert np.array_equal(
        _bits(back.coefficients.values), _bits(_as_read_back(coeffs, False))
    )
    assert np.array_equal(_bits([back.smallsignal_gain]), _bits([model.smallsignal_gain]))
    assert back.saturation_level == level


def _insert_after_format(line):
    return lambda text: re.sub(r"(format = \S+\n)", rf"\g<1>{line}\n", text)


# (name, edit of a valid file's text, part of the expected message)
MALFORMED = [
    ("missing marker", lambda t: t.split("[coefficients]")[0], r"missing \[coefficients\]"),
    ("duplicate marker", lambda t: t + "[coefficients]\n", r"duplicate \[coefficients\]"),
    ("missing tag", lambda t: re.sub(r"format = \S+\n", "", t), "missing format"),
    ("wrong tag", lambda t: re.sub(r"format = \S+", "format = gmp-coeff/9", t), "unsupported"),
    ("duplicate key", _insert_after_format("aligned_lags = 0 1"), "duplicate key aligned_lags"),
    ("unknown key", _insert_after_format("colour = blue"), "unknown header keys"),
    ("bad integer axis", lambda t: t.replace("aligned_lags = 0 1", "aligned_lags = 0 one"),
     "aligned_lags expects integers"),
    ("5-field record", lambda t: t + "aligned 2 1 - 1.0\n", "expected 6 fields"),
    ("unknown branch", lambda t: t + "sideways 2 1 - 1.0 0.0\n", "unknown branch"),
    ("duplicate record", lambda t: t + "aligned 0 0 - 2.0 0.0\n", "duplicate record"),
    ("NaN record", lambda t: t + "aligned 2 1 - nan 0.0\n", "finite"),
    ("non-ASCII byte", lambda t: t.replace("[coeff", "# caf\u00e9\n[coeff"), "non-ASCII"),
]


# Cases of the two headers of amplifier models only.
PA_MALFORMED = [
    ("one-float gain", lambda t: re.sub(r"smallsignal_gain = .*", "smallsignal_gain = 1.0", t),
     r"smallsignal_gain expects two floats, got '1.0' \(.*line 2\)"),
    ("three-float gain", lambda t: re.sub(r"(smallsignal_gain = .*)", r"\g<1> 0.0", t),
     "smallsignal_gain expects two floats"),
    ("none gain", lambda t: re.sub(r"smallsignal_gain = .*", "smallsignal_gain = none", t),
     "smallsignal_gain expects two floats, got 'none'"),
    ("zero gain", lambda t: re.sub(r"smallsignal_gain = .*", "smallsignal_gain = 0.0 0.0", t),
     "invalid amplifier model: smallsignal_gain"),
    ("word clip", lambda t: t.replace("saturation_level = none", "saturation_level = soft"),
     r"saturation_level expects a float or 'none', got 'soft' \(.*line 3\)"),
    ("negative clip", lambda t: t.replace("saturation_level = none", "saturation_level = -1.0"),
     "invalid amplifier model: saturation_level"),
    ("missing clip", lambda t: t.replace("saturation_level = none\n", ""),
     "missing saturation_level header"),
]


@pytest.mark.parametrize(
    "tag, name, edit, message",
    [
        pytest.param(tag, *case, id=f"{case[0]}-{tag}")
        for case in MALFORMED
        for tag in ("gmp-coeff/1", "pa-model/1")
    ]
    + [pytest.param("pa-model/1", *case, id=f"{case[0]}-pa-model/1") for case in PA_MALFORMED],
)
def test_malformed_file_is_format_error(tmp_path, tag, name, edit, message):
    coeffs = CoefficientVector(full_structure(1, 3, 1), [1.0, 0, 0, 0, 0.5j, 0])
    path = tmp_path / "model.txt"
    if tag == "pa-model/1":
        write_pa_model(path, PaModel(coeffs))
        reader = read_pa_model
    else:
        write_coefficients(path, coeffs)
        reader = read_coefficients
    reader(path)
    path.write_bytes(edit(path.read_text()).encode("utf-8"))
    with pytest.raises(FormatError, match=message):
        reader(path)


def test_coefficient_vector_length_checked():
    structure = full_structure(1, 3, 1)
    with pytest.raises(DimensionError):
        CoefficientVector(structure, [1.0, 2.0])
