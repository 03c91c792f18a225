import csv
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fock import reference_lift

from geomode import fock
from geomode import coupledmode as cm
from geomode import experiment as xp
from geomode import holonomy as hol
from geomode import reference as ref
from geomode.fock import ParticleType, enumerate_basis

BOSON = ParticleType.boson()


@pytest.fixture(scope="module")
def outer_single():
    basis = enumerate_basis(4, 1, BOSON)
    return hol.subspace_from_states(basis, [(1, 0, 0, 0), (0, 0, 0, 1)])


@pytest.fixture(scope="module")
def bunched_pair():
    basis = enumerate_basis(4, 2, BOSON)
    return hol.subspace_from_states(basis, [(2, 0, 0, 0), (0, 0, 0, 2)])


@pytest.fixture(scope="module")
def three_state():
    basis = enumerate_basis(4, 2, BOSON)
    return hol.subspace_from_states(basis, [(2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2)])


def delta_at(length):
    return float(cm.jx4_delta(length))


# ------------------------------------------------------ success probability


def success_at(sub, spec, length):
    """One input's theory success probability at one structure length."""
    return float(xp.scan(sub, [spec], [length]).curves[spec.label()].probability[0])


def test_success_probability_is_one_at_ideal_length(outer_single):
    spec = xp.InputSpec(outer_single.members[0])
    assert success_at(outer_single, spec, cm.IDEAL_LENGTH_MM) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("length", [80.0, 84.9, 88.0, 95.0])
def test_single_photon_success_closed_form(outer_single, length):
    spec = xp.InputSpec(outer_single.members[0])
    got = success_at(outer_single, spec, length)
    d = delta_at(length)
    s6 = math.sin(d / 2) ** 6
    c6 = math.cos(d / 2) ** 6
    assert got == pytest.approx(s6 / (s6 + c6), abs=1e-12)


@pytest.mark.parametrize("length", [80.0, 90.0, 100.0])
def test_two_boson_bunched_success_closed_form(bunched_pair, length):
    spec = xp.InputSpec(bunched_pair.members[0])
    got = success_at(bunched_pair, spec, length)
    d = delta_at(length)
    s12 = math.sin(d / 2) ** 12
    c12 = math.cos(d / 2) ** 12
    assert got == pytest.approx(s12 / (s12 + c12), abs=1e-12)


def test_mirror_symmetry_theory_curves(outer_single, bunched_pair):
    scan = xp.scan(outer_single, [xp.InputSpec(m) for m in outer_single.members])
    p1 = scan.curves["|1000>"].probability
    p4 = scan.curves["|0001>"].probability
    assert np.allclose(p1, p4, atol=1e-12)
    scan2 = xp.scan(bunched_pair, [xp.InputSpec(m) for m in bunched_pair.members])
    assert np.allclose(scan2.curves["|2000>"].probability, scan2.curves["|0002>"].probability,
                       atol=1e-12)


def test_post_selected_probabilities_sum_to_one(three_state):
    engine = xp.CurveEngine(cm.STRUCTURE_LENGTHS_MM)
    for member in three_state.members:
        probs = engine.outcome_probabilities(three_state, xp.InputSpec(member))
        norm = probs / probs.sum(axis=1, keepdims=True)
        assert np.allclose(norm.sum(axis=1), 1.0, atol=1e-12)


def test_distinguishable_statistics_differ_from_indistinguishable(three_state):
    spec_i = xp.InputSpec(three_state.members[1])  # |1001>
    spec_d = xp.InputSpec(three_state.members[1], statistics="distinguishable")
    engine = xp.CurveEngine([90.0])
    (pi, pd), = engine.success_curve(three_state, [spec_i, spec_d])
    assert pi != pytest.approx(pd, abs=1e-6)


def test_two_photon_distinguishable_probabilities_match_pair_formula(three_state):
    # |U[o1,a] U[o2,b]|^2, plus the exchanged term when o1 != o2
    engine = xp.CurveEngine([70.0, 84.9, 100.0])
    u = np.moveaxis(engine.u_stack, -1, 0)
    for member in three_state.members:
        a, b = member.mode_list()
        spec = xp.InputSpec(member, statistics="distinguishable")
        for over_members, outcomes in ((True, three_state.members),
                                       (False, three_state.basis.states)):
            want = np.empty((len(u), len(outcomes)))
            for k, out in enumerate(outcomes):
                o1, o2 = out.mode_list()
                want[:, k] = np.abs(u[:, o1, a] * u[:, o2, b]) ** 2
                if o1 != o2:
                    want[:, k] += np.abs(u[:, o2, a] * u[:, o1, b]) ** 2
            got = engine.outcome_probabilities(three_state, spec, over_members)
            assert np.max(np.abs(got - want)) < 1e-14


def test_three_photon_distinguishable_probabilities_match_assignment_sum():
    basis = enumerate_basis(4, 3, BOSON)
    sub = hol.subspace_from_states(basis, [(2, 1, 0, 0), (1, 1, 1, 0)])
    engine = xp.CurveEngine([70.0, 84.9, 100.0])
    p = np.moveaxis(np.abs(engine.u_stack) ** 2, -1, 0)
    for member in sub.members:
        modes_in = member.mode_list()
        want = np.zeros((len(p), basis.size))
        for modes_out in itertools.product(range(4), repeat=3):
            k = basis.index_of(tuple(modes_out.count(m) for m in range(4)))
            want[:, k] += math.prod(p[:, o, i] for o, i in zip(modes_out, modes_in))
        spec = xp.InputSpec(member, statistics="distinguishable")
        got = engine.outcome_probabilities(sub, spec, over_members=False)
        assert np.max(np.abs(got - want)) < 1e-14
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_hom_bunched_visibility_mixes_predictions(bunched_pair):
    engine = xp.CurveEngine([92.0])
    member = bunched_pair.members[0]
    (p_ind, p_dis), = engine.success_curve(
        bunched_pair, [xp.InputSpec(member), xp.InputSpec(member, statistics="distinguishable")])
    for v in (0.0, 0.5, 0.986, 1.0):
        spec = xp.InputSpec(member, preparation="hom_bunched", visibility=v)
        got = engine.success_curve(bunched_pair, [spec])[0, 0]
        pn = v * engine.outcome_probabilities(bunched_pair, xp.InputSpec(member)) \
            + (1 - v) * engine.outcome_probabilities(
                bunched_pair, xp.InputSpec(member, statistics="distinguishable"))
        want = pn[0, 1] / pn[0].sum()
        assert got == pytest.approx(want, abs=1e-12)
    # pure limits
    spec1 = xp.InputSpec(member, preparation="hom_bunched", visibility=1.0)
    assert engine.success_curve(bunched_pair, [spec1])[0, 0] == pytest.approx(p_ind, abs=1e-12)
    spec0 = xp.InputSpec(member, preparation="hom_bunched", visibility=0.0)
    assert engine.success_curve(bunched_pair, [spec0])[0, 0] == pytest.approx(p_dis, abs=1e-12)


def test_hom_bunched_rejects_antibunched_states(three_state):
    with pytest.raises(ValueError):
        xp.InputSpec(three_state.members[1], preparation="hom_bunched")


# ---------------------------------------------------------------- detection


def test_detect_ideal_bunched_state():
    basis = enumerate_basis(4, 2, BOSON)
    model = xp.DetectionModel()
    probs = np.zeros(basis.size)
    probs[basis.index_of((2, 0, 0, 0))] = 1.0
    pairs = xp.detect(probs, model, basis)
    assert pairs["1a-1b"] == pytest.approx(0.5)
    assert sum(pairs.values()) == pytest.approx(0.5)


def test_detect_calibrated_port2_efficiency():
    model = xp.DetectionModel(splitter_ratios=xp.CALIBRATED_SPLITTERS)
    assert model.coincidence_efficiency(1) == pytest.approx(2 * 0.5736 * 0.4264)
    assert model.coincidence_efficiency(1) == pytest.approx(0.4892, abs=5e-5)


def test_detect_ideal_antibunched_state():
    basis = enumerate_basis(4, 2, BOSON)
    model = xp.DetectionModel()
    probs = np.zeros(basis.size)
    probs[basis.index_of((1, 0, 0, 1))] = 1.0
    pairs = xp.detect(probs, model, basis)
    cross = {k: v for k, v in pairs.items() if v > 0}
    assert len(cross) == 4
    assert all(v == pytest.approx(0.25) for v in cross.values())
    assert sum(cross.values()) == pytest.approx(1.0)


def test_detection_model_validation():
    with pytest.raises(ValueError):
        xp.DetectionModel(splitter_ratios=(0.5, 1.0, 0.5, 0.5))
    with pytest.raises(ValueError, match="must be numbers"):
        xp.DetectionModel(splitter_ratios=((0.6, 0.4), 0.5, 0.5, 0.5))
    model = xp.DetectionModel(splitter_ratios=(0.6, 0.5, 0.5, 0.5))
    assert model.splitter_ratios == (0.6, 0.5, 0.5, 0.5)


def test_inverse_estimator_unbiased_on_expected_counts():
    basis = enumerate_basis(4, 2, BOSON)
    model = xp.DetectionModel(splitter_ratios=xp.CALIBRATED_SPLITTERS)
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(basis.size))
    pairs = xp.detect(probs, model, basis)
    trials = 1e6
    counts = {k: v * trials for k, v in pairs.items()}
    weights, _ = xp.invert_counts(counts, model, basis)
    recovered = np.array([weights[s.occupations] for s in basis.states]) / trials
    assert np.allclose(recovered, probs, atol=1e-12)


@st.composite
def splitter_cases(draw):
    """A two-particle boson or fermion basis and random splitter ratios."""
    kind = draw(st.sampled_from(["boson", "fermion"]))
    modes = draw(st.integers(2, 4))
    ratios = tuple(draw(st.floats(1e-6, 1 - 1e-6)) for _ in range(modes))
    return enumerate_basis(modes, 2, ParticleType(kind)), xp.DetectionModel(ratios)


@given(case=splitter_cases(), seed=st.integers(0, 2**32 - 1))
def test_splitter_channel_map_properties(case, seed):
    basis, model = case
    channels = xp.channel_map(basis, xp.INDISTINGUISHABLE, model)
    probs = np.random.default_rng(seed).dirichlet(np.ones(basis.size))
    trials = 1e6
    weights, _ = channels.estimate(channels.rates(probs[None], trials))
    assert np.allclose(weights[0] / trials, probs, rtol=0, atol=1e-12)
    for s, state in enumerate(basis.states):
        click = channels.click[channels.source == s]
        o1, o2 = state.mode_list()
        if o1 == o2:
            r = model.splitter_ratios[o1]
            assert click.tolist() == [pytest.approx(2 * r * (1 - r), rel=1e-15)]
        else:
            assert len(click) == 4
            assert click.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("basis, statistics", [
    (enumerate_basis(4, 1, BOSON), xp.INDISTINGUISHABLE),
    (enumerate_basis(3, 2, ParticleType.distinguishable("a", "b")), xp.DISTINGUISHABLE_STATS),
    (enumerate_basis(4, 2, BOSON), xp.DISTINGUISHABLE_STATS),
])
def test_one_channel_per_state_maps_are_identities(basis, statistics):
    channels = xp.channel_map(basis, statistics, xp.DetectionModel(xp.CALIBRATED_SPLITTERS))
    assert channels.source.tolist() == list(range(basis.size))
    assert np.all(channels.click == 1.0) and np.all(channels.efficiency == 1.0)
    counts = np.arange(basis.size, dtype=float)[None]
    weights, variances = channels.estimate(counts)
    assert weights.tolist() == counts.tolist()
    assert variances.tolist() == [np.maximum(counts[0], 1.0).tolist()]


def test_vector_poisson_draw_matches_scalar_draws():
    rates = np.array([0.0, 3.5, 0.0, 0.0, 120.0, 1e-3, 0.0, 42.0, 9.99, 10.0, 0.0])
    vector = np.random.default_rng(np.random.SeedSequence((1022, 1, 7))).poisson(rates)
    rng = np.random.default_rng(np.random.SeedSequence((1022, 1, 7)))
    assert vector.tolist() == [int(rng.poisson(rate)) for rate in rates]


@given(seed=st.integers(0, 2**96 - 1), input_index=st.integers(0, 63),
       points=st.integers(1, 40))
@example(seed=2**64, input_index=0, points=3)
@example(seed=2**96 - 1, input_index=63, points=3)
def test_batched_seed_words_match_seed_sequence(seed, input_index, points):
    # seeds of 2^64 and up give more than 4 entropy words: the pool's extra rounds
    words = xp._stream_seed_words(seed, input_index, points)
    expected = [np.random.SeedSequence((seed, input_index, j)).generate_state(4, np.uint64)
                for j in range(points)]
    assert words.dtype == np.uint64
    assert words.tolist() == np.array(expected).tolist()


def _scalar_counts(basis, spec, probs, model, seed):
    """Loop reference of the count sampler at one point: the channels of
    each basis state in basis order, one Poisson draw each."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ratios = model.splitter_ratios
    counts = {}
    for p, state in zip(probs, basis.states):
        modes = state.mode_list()
        if basis.particles == 1:
            channels = {f"m{modes[0] + 1}": 1.0}
        elif basis.particle.kind == "distinguishable":
            channels = {f"a{modes[0] + 1}-b{modes[1] + 1}": 1.0}
        elif spec.statistics == "distinguishable":
            channels = {f"n{modes[0] + 1}{modes[1] + 1}": 1.0}
        elif modes[0] == modes[1]:
            r = ratios[modes[0]]
            channels = {f"{modes[0] + 1}a-{modes[0] + 1}b": 2.0 * r * (1.0 - r)}
        else:
            channels = {}
            for a in (0, 1):
                for b in (0, 1):
                    wa = ratios[modes[0]] if a == 0 else 1 - ratios[modes[0]]
                    wb = ratios[modes[1]] if b == 0 else 1 - ratios[modes[1]]
                    channels[f"{modes[0] + 1}{'ab'[a]}-{modes[1] + 1}{'ab'[b]}"] = wa * wb
        for label, w in channels.items():
            counts[label] = int(rng.poisson(model.trials * (p * w)))
    return counts


@pytest.mark.parametrize("case", ["single", "splitter", "heralded", "hom", "assignment"])
def test_simulated_counts_match_scalar_reference(case, outer_single, three_state):
    sub, spec = three_state, xp.InputSpec(three_state.members[0])
    if case == "single":
        sub, spec = outer_single, xp.InputSpec(outer_single.members[0])
    elif case == "heralded":
        spec = xp.InputSpec(three_state.members[1], statistics="distinguishable")
    elif case == "hom":
        spec = xp.InputSpec(three_state.members[2], preparation="hom_bunched")
    elif case == "assignment":
        row = next(r for r in ref.REFERENCE_WIDTHS if r.statistics == ref.ASSIGNMENT)
        sub = ref.row_subspace(row)
        spec = xp.InputSpec(sub.members[0])
    lengths = [70.0, 80.0, 84.9, 95.0]
    model = xp.DetectionModel(xp.CALIBRATED_SPLITTERS, trials=40, seed=9)
    probs = xp.CurveEngine(lengths).outcome_probabilities(sub, spec, over_members=False)
    rows = xp.simulate_counts(sub, [spec], lengths, model)
    for j, length in enumerate(lengths):
        got = {channel: n for sid, _, _, channel, n in rows if sid == f"s{j + 1}"}
        assert got == _scalar_counts(sub.basis, spec, probs[j], model, (9, 0, j))
        assert [r[3] for r in rows if r[0] == f"s{j + 1}"] == sorted(got)


# ------------------------------------------------------------------- scans


def test_theory_scan_default_lengths(outer_single):
    result = xp.scan(outer_single, [xp.InputSpec(outer_single.members[0])])
    curve = result.curves["|1000>"]
    assert curve.lengths == pytest.approx(list(cm.STRUCTURE_LENGTHS_MM))
    assert result.mode == "theory"


def test_theory_scan_peaks_at_ideal_length(outer_single):
    lengths = np.arange(80.0, 100.0 + 1e-9, 0.1)
    result = xp.scan(outer_single, [xp.InputSpec(outer_single.members[0])], lengths)
    probs = result.curves["|1000>"].probability
    peak_length = lengths[int(np.argmax(probs))]
    assert peak_length == pytest.approx(84.9, abs=0.1)


def test_scan_rejects_bad_lengths(outer_single):
    with pytest.raises(ValueError):
        xp.scan(outer_single, [xp.InputSpec(outer_single.members[0])], [90.0, 80.0])


def test_zero_trial_synthetic_scan_rejected(outer_single):
    model = xp.DetectionModel(trials=0)
    with pytest.raises(ValueError):
        xp.scan(outer_single, [xp.InputSpec(outer_single.members[0])],
                mode="synthetic-experiment", detection=model)


def test_synthetic_scan_converges_to_theory(three_state):
    inputs = [xp.InputSpec(m) for m in three_state.members]
    model = xp.DetectionModel(splitter_ratios=xp.CALIBRATED_SPLITTERS, trials=10 ** 6,
                              seed=xp.DEFAULT_SEED)
    theory = xp.scan(three_state, inputs)
    synth = xp.scan(three_state, inputs, mode="synthetic-experiment", detection=model)
    for label in theory.curves:
        pt = theory.curves[label].probability
        ps = synth.curves[label].probability
        sig = synth.curves[label].sigma
        assert np.all(np.abs(ps - pt) < 5 * np.maximum(sig, 1e-9))


def test_synthetic_scan_deterministic(outer_single):
    inputs = [xp.InputSpec(outer_single.members[0])]
    model = xp.DetectionModel(trials=1000, seed=7)
    a = xp.scan(outer_single, inputs, mode="synthetic-experiment", detection=model)
    b = xp.scan(outer_single, inputs, mode="synthetic-experiment", detection=model)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------- plateaus


def test_constant_curve_spans_full_range():
    lengths = np.arange(80.0, 100.0 + 1e-9, 0.05)
    probs = np.full_like(lengths, 0.8)
    iv = xp.plateau_interval(lengths, probs, xp.THEORY_RULE)
    assert iv.width == pytest.approx(20.0)


def test_theory_plateau_width_anchor(outer_single):
    restricted, unrestricted = xp.theory_plateau_widths(
        outer_single, [xp.InputSpec(m) for m in outer_single.members],
        xp.CurveEngine(xp.theory_lengths(0.005)))
    assert unrestricted == pytest.approx(23.7, abs=0.05)
    assert restricted == pytest.approx(16.7, abs=0.1)


def test_plateau_contains_peak(outer_single):
    lengths = np.arange(60.0, 115.0, 0.01)
    engine = xp.CurveEngine(lengths)
    curve = engine.success_curve(outer_single, [xp.InputSpec(outer_single.members[0])])[:, 0]
    iv = xp.plateau_interval(lengths, curve, xp.THEORY_RULE)
    peak = lengths[int(np.argmax(curve))]
    assert iv.start <= peak <= iv.end


def test_experimental_rule_on_seven_points():
    lengths = np.array(cm.STRUCTURE_LENGTHS_MM)
    probs = np.array([0.2, 0.6, 0.97, 1.0, 0.98, 0.96, 0.5])
    iv = xp.plateau_interval(lengths, probs, xp.EXPERIMENTAL_RULE)
    assert iv.start == pytest.approx(lengths[2])
    assert iv.end == pytest.approx(lengths[5])


def test_experimental_rule_needs_three_points():
    with pytest.raises(ValueError):
        xp.plateau_interval([80.0, 90.0], [0.5, 0.6], xp.EXPERIMENTAL_RULE)


def _walk_slope_edge(lengths, excess, peak, step):
    """Reference: the per-sample walk that ``_slope_edge`` replaced."""
    i = peak
    while 0 <= i + step < len(lengths) and excess[i + step] < 0:
        i += step
    j = i + step
    if 0 <= j < len(lengths) and not np.isnan(excess[i] + excess[j]):
        t = -excess[i] / (excess[j] - excess[i])
        return lengths[i] + t * (lengths[j] - lengths[i])
    return lengths[i]


def _walk_experimental_interval(lengths, probs):
    """Reference: the per-sample walks of the experimental rule."""
    peak = int(np.nanargmax(probs))
    i = peak
    while i + 1 < len(lengths) and abs(probs[i + 1] - probs[i]) < xp.EXPERIMENTAL_STEP_LIMIT:
        i += 1
    j = peak
    while j - 1 >= 0 and abs(probs[j - 1] - probs[j]) < xp.EXPERIMENTAL_STEP_LIMIT:
        j -= 1
    return float(lengths[j]), float(lengths[i])


@st.composite
def slope_edge_cases(draw):
    excess = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.just(math.nan)),
                           min_size=1, max_size=60))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=len(excess), max_size=len(excess)))
    peak = draw(st.integers(0, len(excess) - 1))
    return 60.0 + np.cumsum(steps), np.array(excess), peak


@given(case=slope_edge_cases(), step=st.sampled_from([-1, 1]))
@example(case=(np.arange(6.0), np.full(6, -0.5), 0), step=-1)
@example(case=(np.arange(6.0), np.full(6, -0.5), 5), step=+1)
@example(case=(np.arange(6.0), np.full(6, -0.5), 2), step=+1)
@example(case=(np.arange(6.0), np.array([-0.5, math.nan, -0.5, -0.5, 0.5, -0.5]), 2), step=-1)
@example(case=(np.arange(6.0), np.array([-0.5, math.nan, -0.5, -0.5, 0.5, -0.5]), 2), step=+1)
def test_slope_edge_matches_per_sample_walk(case, step):
    lengths, excess, peak = case
    with np.errstate(divide="ignore", invalid="ignore"):  # a non-negative peak sample
        got = xp._slope_edge(lengths, excess, peak, step)
        want = _walk_slope_edge(lengths, excess, peak, step)
    assert got == want or (math.isnan(got) and math.isnan(want))


@given(probs=st.lists(st.one_of(st.integers(0, 40).map(lambda k: k / 100), st.just(math.nan)),
                      min_size=3, max_size=60).filter(lambda p: not all(map(math.isnan, p))))
def test_experimental_rule_matches_per_sample_walk(probs):
    lengths = 80.0 + 0.5 * np.arange(len(probs))
    iv = xp.plateau_interval(lengths, np.array(probs), xp.EXPERIMENTAL_RULE)
    assert (iv.start, iv.end) == _walk_experimental_interval(lengths, np.array(probs))


def test_plateau_width_delta_cross_check(outer_single, bunched_pair):
    engine = xp.CurveEngine(xp.theory_lengths(0.005))
    for sub in (outer_single, bunched_pair):
        spec = xp.InputSpec(sub.members[0])
        _, unrestricted = xp.theory_plateau_widths(sub, [spec], engine)
        width_delta = xp.plateau_width_delta(sub, spec)
        assert abs(unrestricted * cm.FLAT_COUPLING_PER_MM - width_delta) < 1e-3


def test_plateau_width_delta_lifts_only_read_amplitudes():
    # 60 001 delta samples: the full lifted (10, 10, Z) stack alone is
    # ~96 MB, while the members' input column is a few MB
    row = next(r for r in ref.REFERENCE_WIDTHS
               if r.statistics == ref.INDIST and len(r.states) == 4)
    sub, spec = ref.row_subspace(row), ref.row_inputs(row)[0]
    tracemalloc.start()
    try:
        width = xp.plateau_width_delta(sub, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert width > 0
    assert peak < 64 * 2**20


def test_width_table_memory_stays_flat():
    # one engine over 5501 lengths for both halves of the table, each
    # input's (L, members) block lifted on its own
    tracemalloc.start()
    try:
        doc = ref.width_table(xp.CurveEngine(xp.theory_lengths(0.01)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc["all_pass"]
    assert peak < 8 * 2**20


def test_delta_axis_engine_holds_one_stack():
    # the length-last (4, 4, 60 001) stack is the engine's one copy of U:
    # after its build the engine holds that stack, its phase axis and little else
    tracemalloc.start()
    try:
        engine = xp._delta_axis_engine.__wrapped__()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    stack = engine.u_stack
    assert stack.shape == (4, 4, xp.DELTA_AXIS_SAMPLES) and stack.flags.c_contiguous
    assert stack.nbytes + engine.lengths.nbytes <= held < 1.1 * stack.nbytes


def reference_curve(engine, sub, spec):
    """One input's success curve by the one-curve formula: its own lift of
    the cycle for the target, over its own member sum."""
    ideal = cm.StructureFamily(cm.jx4_structure(cm.IDEAL_LENGTH_MM)).cycle()
    col = [sub.basis.index_of(spec.state)]
    amps = np.abs(fock.lift_unitary_batch(ideal[:, :, None], sub.basis, sub.member_indices,
                                          col))
    probs = np.ascontiguousarray(engine.outcome_probabilities(sub, spec))
    return probs[:, int(np.argmax(amps[:, 0, 0]))] / probs.sum(axis=1)


def reference_interval(lengths, curve, rule):
    """One curve's plateau: np.gradient or np.diff on that curve alone."""
    peak = int(np.nanargmax(curve))
    if rule == xp.THEORY_RULE:
        excess = np.abs(np.gradient(curve, lengths)) - cm.SLOPE_LIMIT_PER_MM
        return (xp._slope_edge(lengths, excess, peak, -1),
                xp._slope_edge(lengths, excess, peak, +1))
    steady = np.abs(np.diff(curve)) < xp.EXPERIMENTAL_STEP_LIMIT
    return (lengths[peak - xp._run_length(steady[:peak][::-1])],
            lengths[peak + xp._run_length(steady[peak:])])


CURVE_ROWS = ref.REFERENCE_WIDTHS + ref.NON_HOLONOMIC_REFERENCES
EIGHT_MEMBERS = next(i for i, r in enumerate(CURVE_ROWS) if len(r.states) == 8)


def test_eight_member_curves_sum_their_outcomes_row_by_row():
    """On the 8-member assignment row each success_curve column is the
    target over a row-contiguous member sum (which numpy adds pairwise),
    bit for bit, although the engine's blocks are length-contiguous."""
    row = CURVE_ROWS[EIGHT_MEMBERS]
    sub, specs = ref.row_subspace(row), ref.row_inputs(row)
    engine = xp.CurveEngine(xp.theory_lengths(0.01))
    targets = xp._ideal_targets(sub, engine._ideal, [spec.state for spec in specs])
    for spec, target, curve in zip(specs, targets, engine.success_curve(sub, specs).T):
        probs = engine.outcome_probabilities(sub, spec)
        assert probs.shape == (len(engine.lengths), 8)
        assert np.array_equal(curve, probs[:, target] / np.ascontiguousarray(probs).sum(axis=1))


@settings(max_examples=100)
@given(row=st.integers(0, len(CURVE_ROWS) - 1),
       launch=st.sampled_from(["native", "distinguishable", "hom_bunched"]),
       start=st.floats(60.0, 95.0), steps=st.lists(st.floats(0.01, 2.0), min_size=4, max_size=60))
@example(row=EIGHT_MEMBERS, launch="native", start=60.0, steps=[0.5] * 40)
@example(row=1, launch="hom_bunched", start=70.0, steps=[0.25] * 100)
def test_block_curves_and_plateaus_match_per_input_reference(row, launch, start, steps):
    """The block path keeps every input's bits: success_curve's columns
    and plateau_interval's intervals equal the one-input reference."""
    sub = ref.row_subspace(CURVE_ROWS[row])
    specs = ref.row_inputs(CURVE_ROWS[row])
    if sub.particle.kind == "boson":
        if launch == "distinguishable":
            specs = [xp.InputSpec(s.state, statistics="distinguishable") for s in specs]
        elif launch == "hom_bunched":
            specs = [xp.InputSpec(s.state, preparation="hom_bunched") if 2 in s.state.occupations
                     else s for s in specs]
    lengths = start + np.cumsum([0.0, *steps])
    engine = xp.CurveEngine(lengths)
    curves = engine.success_curve(sub, specs)
    assert curves.shape == (len(lengths), len(specs))
    for spec, curve in zip(specs, curves.T):
        assert np.array_equal(curve, reference_curve(engine, sub, spec))
    for rule in (xp.THEORY_RULE, xp.EXPERIMENTAL_RULE):
        with np.errstate(divide="ignore", invalid="ignore"):
            got = [(iv.start, iv.end) for iv in xp.plateau_interval(lengths, curves, rule)]
            want = [reference_interval(lengths, curve, rule) for curve in curves.T]
        assert np.array_equal(got, want, equal_nan=True)


def test_delta_axis_engine_is_shared_and_read_only():
    rows = [next(r for r in ref.REFERENCE_WIDTHS if r.statistics == stats)
            for stats in (ref.INDIST, ref.DIST)]
    cases = [(ref.row_subspace(r), ref.row_inputs(r)[0]) for r in rows]
    first = [xp.plateau_width_delta(sub, spec) for sub, spec in cases]
    engine = xp._delta_axis_engine()
    # the distinguishable row has cached |U|^2 on the shared engine meanwhile
    assert [xp.plateau_width_delta(sub, spec) for sub, spec in cases] == first
    assert xp._delta_axis_engine() is engine
    assert len(engine.lengths) == xp.DELTA_AXIS_SAMPLES
    assert not engine.lengths.flags.writeable
    assert not engine.u_stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        engine.u_stack[0, 0, 0] = 0.0


def test_delta_axis_engine_is_not_built_at_import():
    src = str(Path(xp.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from geomode import experiment as xp\n"
            "print(xp._delta_axis_engine.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "0"


def test_width_table_matches_pinned_values():
    # values of the commit before the shared delta-axis engine and the
    # vectorized plateau edges; both changes keep every float
    pinned = json.loads((Path(__file__).parent / "data" / "width_table.json").read_text())
    engine = xp.CurveEngine(xp.theory_lengths(0.01))
    comps = ref.compare_reference_widths(engine)
    got = {
        "reference_widths": {c.row.key(): {"restricted_mm": c.restricted_mm,
                                           "unrestricted_mm": c.unrestricted_mm}
                             for c in comps},
        "non_holonomic_widths": {row.key(): w for row, w in ref.non_holonomic_widths(engine)},
        "delta_widths_rad": {c.row.key(): xp.plateau_width_delta(ref.row_subspace(c.row),
                                                                 ref.row_inputs(c.row)[0])
                             for c in comps},
    }
    assert len(got["reference_widths"]) == 34 and len(got["non_holonomic_widths"]) == 4
    for table, values in got.items():
        assert values.keys() == pinned[table].keys()
        for key, value in values.items():
            want = pinned[table][key]
            if isinstance(value, dict):
                for kind in value:
                    assert abs(value[kind] - want[kind]) < 1e-9, (table, key, kind)
            else:
                assert abs(value - want) < 1e-9, (table, key)


def test_three_boson_success_curve_matches_per_length_lift():
    basis = enumerate_basis(4, 3, BOSON)
    sub = hol.subspace_from_states(basis, [(3, 0, 0, 0), (2, 1, 0, 0), (0, 0, 1, 2), (0, 0, 0, 3)])
    lengths = np.linspace(60.0, 115.0, 23)
    engine = xp.CurveEngine(lengths)
    idx = list(sub.member_indices)
    # Ryser permanents, independent of the permutation-sum kernel
    ideal = reference_lift(cm.jx_pattern(4).unitary_batch(math.pi), basis)
    lifted = [reference_lift(u, basis) for u in np.moveaxis(engine.u_stack, -1, 0)]
    specs = [xp.InputSpec(sub.members[0]), xp.InputSpec(sub.members[1])]
    for spec, curve in zip(specs, engine.success_curve(sub, specs).T):
        col = basis.index_of(spec.state)
        target = int(np.argmax(np.abs(ideal[idx, col])))
        probs = np.array([np.abs(amps[idx, col]) ** 2 for amps in lifted])
        expected = probs[:, target] / probs.sum(axis=1)
        assert np.max(np.abs(curve - expected)) < 1e-12


def test_success_curve_lifts_the_cycle_once(three_state, monkeypatch):
    calls, targets = [], xp._ideal_targets
    monkeypatch.setattr(xp, "_ideal_targets",
                        lambda sub, ideal, states: calls.append(states) or targets(sub, ideal, states))
    specs = [xp.InputSpec(m) for m in three_state.members]
    curves = xp.CurveEngine([80.0, 90.0]).success_curve(three_state, specs)
    assert curves.shape == (2, len(specs))
    assert calls == [[spec.state for spec in specs]]


def test_plateau_report_means(three_state):
    lengths = np.arange(60.0, 115.0, 0.01)
    specs = [xp.InputSpec(m) for m in three_state.members]
    curves = xp.CurveEngine(lengths).success_curve(three_state, specs)
    report = xp.plateau_report(lengths, curves, [spec.label() for spec in specs], xp.THEORY_RULE)
    widths = [iv.width for iv in report.per_input.values()]
    assert report.mean_width == pytest.approx(np.mean(widths))
    assert report.mean_width == pytest.approx(20.2, abs=max(0.15 * 20.2, 1.5))


def test_plateau_report_skips_undefined_points(outer_single):
    spec = xp.InputSpec(outer_single.members[0])
    label = spec.label()
    for rule, lengths, walk_stop in ((xp.THEORY_RULE, np.arange(60.0, 115.0, 0.05), 2),
                                     (xp.EXPERIMENTAL_RULE, np.arange(80.0, 100.01, 0.5), 1)):
        curve = xp.CurveEngine(lengths).success_curve(outer_single, [spec])
        want = xp.plateau_report(lengths, curve, [label], rule).per_input[label]
        holed = curve.copy()
        k = int(np.argmin(np.abs(lengths - 82.5)))  # inside the plateau, left of the peak
        holed[k] = np.nan
        got = xp.plateau_report(lengths, holed, [label], rule).per_input[label]
        # the walk stops at the hole (theory: the slopes beside it are undefined too)
        assert got.start == lengths[k + walk_stop]
        assert got.end == want.end
        assert got.start <= cm.IDEAL_LENGTH_MM <= got.end
        holed[:] = np.nan
        with pytest.raises(ValueError, match="no defined points"):
            xp.plateau_report(lengths, holed, [label], rule)


# ----------------------------------------------------------- HOM / fidelity


def test_hom_dip_minimum():
    curve = xp.hom_dip(np.linspace(-3, 3, 301), 0.986)
    assert float(np.min(curve)) == pytest.approx(1 - 0.986, abs=1e-12)


def test_hom_dip_limits():
    delays = np.linspace(-2, 2, 41)
    assert np.allclose(xp.hom_dip(delays, 0.0), 1.0)
    assert float(np.min(xp.hom_dip(delays, 1.0))) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_properties():
    assert xp.fidelity([0.3, 0.7], [0.3, 0.7]) == pytest.approx(1.0)
    assert xp.fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert xp.fidelity([1.0, 0.0], [0.9, 0.1]) == pytest.approx(0.9)


def test_fidelity_validation():
    with pytest.raises(ValueError):
        xp.fidelity([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(ValueError):
        xp.fidelity([1.1, -0.1], [0.5, 0.5])


@pytest.mark.parametrize("p", [
    [float("nan"), 1.0], [float("inf"), 0.0], [None, 1.0], [{}, 1.0], ["0.5", "0.5"],
    [[0.5], [0.5]], 1.0,
], ids=["nan", "inf", "none", "object", "string", "2-d", "scalar"])
def test_fidelity_rejects_undefined_entries(p):
    """An undefined entry is an error, never a nan overlap: nan - 1 passes
    no tolerance comparison."""
    for args in ((p, [0.5, 0.5]), ([0.5, 0.5], p)):
        with pytest.raises(ValueError, match="list of finite numbers"):
            xp.fidelity(*args)


# -------------------------------------------------------------- count files


def test_count_round_trip(tmp_path, three_state):
    inputs = [xp.InputSpec(m) for m in three_state.members]
    model = xp.DetectionModel(splitter_ratios=xp.CALIBRATED_SPLITTERS,
                              trials=20_000, seed=11)
    rows = xp.simulate_counts(three_state, inputs, detection=model)
    path = tmp_path / "counts.csv"
    xp.write_counts_csv(path, rows)
    ingested = xp.ingest_counts(path, three_state, model)
    direct = xp.scan(three_state, inputs, mode="synthetic-experiment", detection=model)
    for label in direct.curves:
        pa = direct.curves[label].probability
        pb = ingested.curves[label].probability
        assert np.allclose(pa, pb, atol=1e-12, equal_nan=True)
        sa = direct.curves[label].sigma
        sb = ingested.curves[label].sigma
        assert sa == pytest.approx(sb, abs=1e-12, nan_ok=True)


def _csv_writer_bytes(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(xp.COUNT_COLUMNS)
        writer.writerows(rows)
    return path.read_bytes()


def test_count_file_bytes_match_csv_writer(tmp_path, three_state):
    rows = xp.simulate_counts(three_state, [xp.InputSpec(m) for m in three_state.members],
                              detection=xp.DetectionModel(trials=500, seed=3))
    xp.write_counts_csv(tmp_path / "counts.csv", rows)
    expected = _csv_writer_bytes(tmp_path / "reference.csv", rows)
    assert (tmp_path / "counts.csv").read_bytes() == expected
    with pytest.raises(ValueError, match="5 fields"):
        xp.write_counts_csv(tmp_path / "short.csv", [rows[0][:4], rows[1] + (0,)])


def test_count_file_quotes_labels_like_csv_writer(tmp_path):
    # distinguishable labels come from the subspace file's keys
    doc = {"particle": "distinguishable", "modes": 4,
           "states": [{'x,"1': 1, "y": 4}, {'x,"1': 4, "y": 1}]}
    sub = hol.subspace_from_json(json.loads(json.dumps(doc)))
    rows = xp.simulate_counts(sub, sub.members, [80.0, 90.0],
                              xp.DetectionModel(trials=500, seed=3))
    assert any('"' in field and "," in field for row in rows for field in row[2:4])
    xp.write_counts_csv(tmp_path / "counts.csv", rows)
    expected = _csv_writer_bytes(tmp_path / "reference.csv", rows)
    assert (tmp_path / "counts.csv").read_bytes() == expected
    with open(tmp_path / "counts.csv", newline="") as fh:
        assert [tuple(r) for r in csv.reader(fh)][1:] == [tuple(map(str, r)) for r in rows]


@pytest.mark.parametrize("call", [
    lambda sub, state: xp.scan(sub, [state], [80.0, 85.0]),
    lambda sub, state: xp.simulate_counts(sub, [state], [80.0, 85.0]),
    lambda sub, state: xp.theory_plateau_widths(sub, [state],
                                                xp.CurveEngine(xp.theory_lengths(0.5))),
    lambda sub, state: xp.plateau_width_delta(sub, state),
], ids=["scan", "simulate_counts", "theory_plateau_widths", "plateau_width_delta"])
def test_input_outside_the_subspace_is_rejected(bunched_pair, call):
    outside = bunched_pair.basis.state((1, 0, 0, 1))
    with pytest.raises(ValueError, match=r"input \|1001> is outside the subspace"):
        call(bunched_pair, outside)


def test_ingest_simple_counts(tmp_path, outer_single):
    path = tmp_path / "counts.csv"
    path.write_text(
        "structure_id,length_mm,input_state,detector_pair,counts\n"
        "s1,84.9,|1000>,m4,90\n"
        "s1,84.9,|1000>,m1,10\n"
    )
    result = xp.ingest_counts(path, outer_single)
    curve = result.curves["|1000>"]
    assert curve.probability[0] == pytest.approx(0.9)
    assert curve.sigma[0] == pytest.approx(math.sqrt(90 * 10 / 100 ** 3))


def test_ingest_sigma_matches_resampling(tmp_path, outer_single):
    # Poisson-propagated sigma vs an empirical resampling estimate
    s_mean, f_mean = 90.0, 10.0
    rng = np.random.default_rng(23)
    s = rng.poisson(s_mean, 40_000)
    f = rng.poisson(f_mean, 40_000)
    samples = s / np.maximum(s + f, 1)
    sigma_resampled = samples.std()
    sigma_formula = math.sqrt(s_mean * f_mean / (s_mean + f_mean) ** 3)
    assert sigma_formula == pytest.approx(sigma_resampled, rel=0.1)


def test_ingest_zero_counts_marker(tmp_path, outer_single):
    path = tmp_path / "counts.csv"
    path.write_text(
        "structure_id,length_mm,input_state,detector_pair,counts\n"
        "s1,84.9,|1000>,m2,50\n"
    )
    result = xp.ingest_counts(path, outer_single)
    curve = result.curves["|1000>"]
    assert np.isnan(curve.probability[0])


def test_ingest_malformed_row(tmp_path, outer_single):
    path = tmp_path / "counts.csv"
    path.write_text(
        "structure_id,length_mm,input_state,detector_pair,counts\n"
        "s1,weird,|1000>,m4,90\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        xp.ingest_counts(path, outer_single)


def test_ingest_rejects_non_finite_values(tmp_path, outer_single):
    path = tmp_path / "counts.csv"
    for row in ["s1,nan,|1000>,m4,90", "s1,84.9,|1000>,m4,inf"]:
        path.write_text("structure_id,length_mm,input_state,detector_pair,counts\n"
                        "s1,84.9,|1000>,m1,10\n" + row + "\n")
        with pytest.raises(ValueError, match="line 3"):
            xp.ingest_counts(path, outer_single)


def test_ingest_empty_file(tmp_path, outer_single):
    path = tmp_path / "counts.csv"
    path.write_text("")
    with pytest.warns(UserWarning):
        result = xp.ingest_counts(path, outer_single)
    assert result.curves == {}


def test_scan_csv_export(tmp_path, outer_single):
    result = xp.scan(outer_single, [xp.InputSpec(outer_single.members[0])])
    path = tmp_path / "curve.csv"
    result.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "input_state,length_mm,probability,sigma"
    assert len(lines) == 1 + len(cm.STRUCTURE_LENGTHS_MM)


# ---------------------------------------------------------------- reference


def test_reference_rows_well_formed():
    assert len(ref.REFERENCE_WIDTHS) == 34
    indist = [r for r in ref.REFERENCE_WIDTHS if r.statistics == ref.INDIST]
    assert len(indist) == 16
    single = [r for r in ref.REFERENCE_WIDTHS if r.statistics == ref.SINGLE]
    assert len(single) == 1


def test_reference_subspace_construction():
    row = ref.REFERENCE_WIDTHS[1]
    sub = ref.row_subspace(row)
    assert sub.dimension == 2
    check = ref.holonomy_check_subspace(row)
    assert check.dimension == 2  # bunched states have a single assignment
    dist_row = next(r for r in ref.REFERENCE_WIDTHS
                    if r.statistics == ref.DIST and len(r.states[0]) == 4
                    and r.states == ((1, 1, 0, 0), (0, 0, 1, 1)))
    assert ref.holonomy_check_subspace(dist_row).dimension == 4
