"""Differential test of the value layer's two shared checks.

``core._finite`` and ``core._stochastic`` replaced six hand-written checks.
The ``ref_*`` functions below are those checks as they stood, copied
verbatim from the ``__post_init__`` bodies (and ``as_values``) except that
each returns the array it would have stored.  Every generated input goes
through a reference and through the class, which must agree on accepting
it, on the exception type, and on the stored array bit for bit.  Three
differences are intended, and ``expected`` states each one:

- an emission entry in [-1e-9, 0) (or -0.0) is clipped, as kernel entries
  are, where the reference rejected it (or kept -0.0);
- a non-2-d or empty emission matrix may raise DimensionMismatch where the
  reference raised InvalidModel;
- an empty ``as_values`` input raises DimensionMismatch where the reference
  returned it.
"""

from __future__ import annotations

import numpy as np
import pytest

import fkclt as fk
from fkclt.core import INPUT_ATOL, DimensionMismatch, InvalidModel, _frozen, as_values


def ref_as_values(f):
    if isinstance(f, fk.FunctionVector):
        return f.values
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d function vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidModel("function vector has non-finite entries")
    return arr


def ref_prob_measure(weights):
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DimensionMismatch("probability vector must be 1-d and non-empty")
    if not np.all(np.isfinite(w)):
        raise InvalidModel("probability vector has non-finite entries")
    if np.any(w < -INPUT_ATOL):
        raise InvalidModel(f"negative probability entry {float(w.min())!r}")
    total = float(w.sum())
    if abs(total - 1.0) > INPUT_ATOL:
        raise InvalidModel(f"probability vector sums to {total!r}, not 1")
    w = np.clip(w, 0.0, None)
    return _frozen(w / w.sum())


def ref_function_vector(values):
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch("function vector must be 1-d and non-empty")
    if not np.all(np.isfinite(v)):
        raise InvalidModel("function vector has non-finite entries")
    return _frozen(v)


def ref_stochastic_kernel(rows):
    r = np.asarray(rows, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] == 0:
        raise DimensionMismatch(f"kernel must be a square matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise InvalidModel("kernel has non-finite entries")
    if np.any(r < -INPUT_ATOL):
        raise InvalidModel(f"negative kernel entry {float(r.min())!r}")
    sums = r.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > INPUT_ATOL):
        deviation = float(np.abs(sums - 1.0).max())
        raise InvalidModel(f"kernel row sums deviate from 1 by up to {deviation!r}")
    r = np.clip(r, 0.0, None)
    return _frozen(r / r.sum(axis=1, keepdims=True))


def ref_potential(values):
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch("potential must be 1-d and non-empty")
    if not np.all(np.isfinite(v)):
        raise InvalidModel("potential has non-finite entries")
    if v.min() <= 0.0:
        raise InvalidModel(
            f"potential must be strictly positive, min entry is {float(v.min())!r}"
        )
    return _frozen(v)


def ref_hmm_emission(transition, emission, initial):
    e = np.asarray(emission, dtype=float)
    if e.ndim != 2 or e.shape[0] != transition.d:
        raise InvalidModel(
            f"emission matrix must have one row per hidden state, got shape {e.shape}"
        )
    if not np.all(np.isfinite(e)) or np.any(e < 0.0):
        raise InvalidModel("emission probabilities must be finite and non-negative")
    sums = e.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise InvalidModel("emission rows must sum to 1")
    if initial.d != transition.d:
        raise InvalidModel("initial law does not match the hidden state count")
    e = e / sums[:, None]
    e.flags.writeable = False
    return e


def outcome(build, values):
    """(exception type or None, stored array or None) of one check."""
    try:
        return None, build(values)
    except Exception as exc:  # the exception type is what is compared
        return type(exc), None


def hidden_count(values) -> int:
    shape = np.shape(values)
    return shape[0] if shape and shape[0] else 2


def new_emission(values, extra_rows=0):
    d = hidden_count(values) + extra_rows
    return fk.HmmParams(
        fk.StochasticKernel.identity(d), values, fk.ProbMeasure.uniform(d)
    ).emission


def old_emission(values, extra_rows=0):
    d = hidden_count(values) + extra_rows
    return ref_hmm_emission(
        fk.StochasticKernel.identity(d), values, fk.ProbMeasure.uniform(d)
    )


def clipped_rows(values):
    """The stated emission difference: each row checked and clipped as a
    probability vector, that is by the ``ref_prob_measure`` rules."""
    return _frozen(np.stack([ref_prob_measure(row) for row in np.asarray(values)]))


def is_nearly_negative(values) -> bool:
    e = np.asarray(values, dtype=float)
    return bool(np.any(np.signbit(e) & (e >= -INPUT_ATOL)))


def expected(name, values, ref, new):
    """The reference outcome, with the three stated differences applied."""
    try:
        arr = np.asarray(values, dtype=float)
    except ValueError:  # a ragged list, which every check rejects alike
        return ref
    if name == "as_values" and arr.ndim == 1 and arr.size == 0:
        return DimensionMismatch, None
    if name.startswith("emission"):
        if (arr.ndim != 2 or arr.size == 0) and ref[0] is InvalidModel:
            return (new[0], None) if new[0] is DimensionMismatch else ref
        if name == "emission" and np.all(np.isfinite(arr)) and is_nearly_negative(arr):
            return outcome(clipped_rows, arr)
    return ref


CHECKS = {
    "as_values": (ref_as_values, as_values),
    "ProbMeasure": (ref_prob_measure, lambda v: fk.ProbMeasure(v).weights),
    "FunctionVector": (ref_function_vector, lambda v: fk.FunctionVector(v).values),
    "StochasticKernel": (ref_stochastic_kernel, lambda v: fk.StochasticKernel(v).rows),
    "Potential": (ref_potential, lambda v: fk.Potential(v).values),
    "emission": (old_emission, new_emission),
    "emission, one row short": (
        lambda v: old_emission(v, 1), lambda v: new_emission(v, 1)
    ),
}

SHAPES = [
    (), (0,), (1,), (2,), (3,), (0, 0), (0, 2), (2, 0), (1, 1), (1, 3), (2, 2),
    (3, 3), (2, 3), (3, 2), (0, 2, 2), (1, 2, 2), (2, 2, 2), (2, 1, 3),
]
# Entries about -1e-9 and row-sum offsets about +-1e-9, on both sides of
# the tolerance.
NEAR_NEGATIVE = [
    -0.0, -5e-10, -INPUT_ATOL, np.nextafter(-INPUT_ATOL, 0.0),
    np.nextafter(-INPUT_ATOL, -1.0), -2e-9, -0.25,
]
SUM_OFFSETS = [
    0.0, 5e-10, INPUT_ATOL, -INPUT_ATOL, 1.5e-9, -1.5e-9, 1e-3,
    np.nextafter(INPUT_ATOL, 1.0), np.nextafter(-INPUT_ATOL, -1.0),
]


def generated_inputs():
    """Arrays of 0-3 axes: empty ones, probability rows moved by the sum
    offsets, rows with an entry near -1e-9, NaN and inf entries, and
    positive, zero and negative values; then a few lists."""
    gen = np.random.default_rng(20261019)
    for value in (1.0, 0.5, np.nan, -INPUT_ATOL):
        yield np.array(value)
    for shape in SHAPES[1:]:
        base = gen.dirichlet(np.ones(shape[-1]), size=shape[:-1]) if shape[-1] else np.zeros(shape)
        yield base
        if base.size == 0:
            continue
        for offset in SUM_OFFSETS:
            yield base * (1.0 + offset)
            shifted = base.copy()
            shifted[..., 0] += offset
            yield shifted
        if shape and shape[-1] >= 2:
            for value in NEAR_NEGATIVE:
                row_moved = base.copy()
                row_moved[..., 1] += row_moved[..., 0] - value
                row_moved[..., 0] = value
                yield row_moved
                lone = base.copy()
                lone.flat[gen.integers(base.size)] = value
                yield lone
        for value in (np.nan, np.inf, -np.inf, 0.0, -1.0, 1e300, 5e-324):
            bad = base.copy()
            bad.flat[gen.integers(base.size)] = value
            yield bad
        yield gen.uniform(0.05, 2.0, size=shape)
        yield gen.uniform(-1.0, 1.0, size=shape)
    for _ in range(200):
        shape = tuple(int(k) for k in gen.integers(1, 4, size=gen.integers(1, 3)))
        yield gen.dirichlet(np.ones(shape[-1]), size=shape[:-1]) + gen.choice(
            [0.0, 1e-10, -1e-10, 2e-9], size=shape
        )
    yield [[0.5, 0.5], [0.25, 0.75]]
    yield [0.25, 0.75]
    yield [[0.5, 0.5], [1.0]]
    yield []
    yield [[]]


INPUTS = list(generated_inputs())


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.flags.writeable == b.flags.writeable
        and np.array_equal(a.view(np.uint64), b.view(np.uint64))
    )


def test_the_inputs_reach_every_branch():
    arrays = [np.asarray(v, dtype=float) for v in INPUTS[:-3]]  # the last three are lists
    assert {a.ndim for a in arrays} == {0, 1, 2, 3}
    assert any(a.size == 0 for a in arrays)
    assert any(np.isnan(a).any() for a in arrays) and any(np.isinf(a).any() for a in arrays)
    for name, (ref_check, _) in CHECKS.items():
        decisions = {outcome(ref_check, v)[0] for v in INPUTS}
        assert InvalidModel in decisions, name
        assert (None in decisions) == (name != "emission, one row short"), name
        assert (DimensionMismatch in decisions) == (not name.startswith("emission")), name


@pytest.mark.parametrize("name", list(CHECKS))
def test_shared_checks_decide_as_the_references(name):
    ref_check, new_check = CHECKS[name]
    differences = []
    for i, values in enumerate(INPUTS):
        ref = outcome(ref_check, values)
        new = outcome(new_check, values)
        want = expected(name, values, ref, new)
        if new[0] is not want[0] or not same_bits(new[1], want[1]):
            differences.append((i, np.shape(values), want[0], new[0]))
    assert differences == []


@pytest.mark.parametrize(
    "rows", [[[np.nan, 0.5, 0.5], [0.5, 0.5, 0.0]], [[np.inf, 0.0]], [[-1.0], [2.0]]]
)
def test_a_non_square_kernel_is_a_dimension_error_first(rows):
    with pytest.raises(DimensionMismatch):
        fk.StochasticKernel(rows)


@pytest.mark.parametrize("entry", [-0.0, -5e-10, -INPUT_ATOL])
def test_emission_entries_just_below_zero_are_clipped(entry):
    emission = fk.HmmParams(
        fk.StochasticKernel.identity(2),
        [[1.0 - entry, entry], [0.5, 0.5]],
        fk.ProbMeasure.uniform(2),
    ).emission
    assert not np.signbit(emission).any()
    assert emission[0, 1] == 0.0


@pytest.mark.parametrize("values", [[], np.empty(0)])
def test_as_values_rejects_an_empty_vector(values):
    with pytest.raises(DimensionMismatch):
        as_values(values)
    with pytest.raises(DimensionMismatch):
        fk.oscillation(values)


# ``core._indices`` is the one check of index arrays.  Each edge below used
# to cast with ``np.asarray(values, dtype=np.int64)``, which truncates a
# non-integral value to the index below it.

_HMM = fk.HmmParams(
    fk.StochasticKernel([[0.7, 0.3], [0.4, 0.6]]),
    [[0.8, 0.2], [0.3, 0.7]],
    fk.ProbMeasure.uniform(2),
)

INDEX_EDGES = {
    "forward_likelihood": lambda values: fk.forward_likelihood(_HMM, values),
    "hmm_build": lambda values: fk.hmm_build(_HMM, values).step(1).G.values,
    "EnvPath": lambda values: fk.EnvPath(values, 0).states,
    "ParticleSystem": lambda values: fk.ParticleSystem(values, 0, fk.RngStream(1), 2).states,
}


@pytest.mark.parametrize(
    "values", [[0.9, 1.5], np.array([0.5, 1.9]), [0.0, np.nan], [1.0, np.inf]]
)
@pytest.mark.parametrize("edge", list(INDEX_EDGES))
def test_non_integral_indices_are_rejected(edge, values):
    with pytest.raises(InvalidModel, match="integers"):
        INDEX_EDGES[edge](values)


@pytest.mark.parametrize("edge", list(INDEX_EDGES))
def test_integral_floats_read_as_their_integers(edge):
    got, want = INDEX_EDGES[edge]([0.0, 1.0]), INDEX_EDGES[edge](np.array([0, 1]))
    assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype


def test_int64_states_are_kept_as_they_are():
    states = np.array([0, 1, 1])
    assert fk.ParticleSystem(states, 0, fk.RngStream(1), 2).states is states
    assert fk.EnvPath(states, 0).states is states


def test_negative_environment_states_are_rejected():
    # A negative state used to index the chain's tables from the end, so a
    # path of -1s read as a path of the last state.
    with pytest.raises(InvalidModel, match="out of range"):
        fk.EnvPath([0, -1, 1], 0)
