import math
import tracemalloc

import numpy as np
import pytest

from geomode import coupledmode as cm
from geomode import experiment as xp
from geomode import holonomy as hol
from geomode import reference as ref
from geomode.fock import ParticleType, enumerate_basis, lift_unitary

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


def test_success_probability_is_one_at_ideal_length(outer_single):
    system = cm.jx4_structure(cm.IDEAL_LENGTH_MM)
    spec = xp.InputSpec(outer_single.members[0])
    assert xp.success_probability(outer_single, spec, system) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("length", [80.0, 84.9, 88.0, 95.0])
def test_single_photon_success_closed_form(outer_single, length):
    system = cm.jx4_structure(length)
    spec = xp.InputSpec(outer_single.members[0])
    got = xp.success_probability(outer_single, spec, system)
    d = delta_at(length)
    s6 = math.sin(d / 2) ** 6
    c6 = math.cos(d / 2) ** 6
    assert got == pytest.approx(s6 / (s6 + c6), abs=1e-12)


@pytest.mark.parametrize("length", [80.0, 90.0, 100.0])
def test_two_boson_bunched_success_closed_form(bunched_pair, length):
    system = cm.jx4_structure(length)
    spec = xp.InputSpec(bunched_pair.members[0])
    got = xp.success_probability(bunched_pair, spec, system)
    d = delta_at(length)
    s12 = math.sin(d / 2) ** 12
    c12 = math.cos(d / 2) ** 12
    assert got == pytest.approx(s12 / (s12 + c12), abs=1e-12)


def test_success_requires_member_input(outer_single):
    system = cm.jx4_structure(cm.IDEAL_LENGTH_MM)
    basis = outer_single.basis
    spec = xp.InputSpec(basis.state((0, 1, 0, 0)))
    with pytest.raises(ValueError):
        xp.success_probability(outer_single, spec, system)


def test_mirror_symmetry_theory_curves(outer_single, bunched_pair):
    scan = xp.scan(outer_single, [xp.InputSpec(m) for m in outer_single.members])
    p1 = scan.probabilities("|1000>")
    p4 = scan.probabilities("|0001>")
    assert np.allclose(p1, p4, atol=1e-12)
    scan2 = xp.scan(bunched_pair, [xp.InputSpec(m) for m in bunched_pair.members])
    assert np.allclose(scan2.probabilities("|2000>"), scan2.probabilities("|0002>"),
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
    pi = engine.success_curve(three_state, spec_i)[0]
    pd = engine.success_curve(three_state, spec_d)[0]
    assert pi != pytest.approx(pd, abs=1e-6)


def test_hom_bunched_visibility_mixes_predictions(bunched_pair):
    engine = xp.CurveEngine([92.0])
    member = bunched_pair.members[0]
    p_ind = engine.success_curve(bunched_pair, xp.InputSpec(member))[0]
    p_dis = engine.success_curve(
        bunched_pair, xp.InputSpec(member, statistics="distinguishable"))[0]
    for v in (0.0, 0.5, 0.986, 1.0):
        spec = xp.InputSpec(member, preparation="hom_bunched", visibility=v)
        got = engine.success_curve(bunched_pair, spec)[0]
        pn = v * engine.outcome_probabilities(bunched_pair, xp.InputSpec(member)) \
            + (1 - v) * engine.outcome_probabilities(
                bunched_pair, xp.InputSpec(member, statistics="distinguishable"))
        want = pn[0, 1] / pn[0].sum()
        assert got == pytest.approx(want, abs=1e-12)
    # pure limits
    spec1 = xp.InputSpec(member, preparation="hom_bunched", visibility=1.0)
    assert engine.success_curve(bunched_pair, spec1)[0] == pytest.approx(p_ind, abs=1e-12)
    spec0 = xp.InputSpec(member, preparation="hom_bunched", visibility=0.0)
    assert engine.success_curve(bunched_pair, spec0)[0] == pytest.approx(p_dis, abs=1e-12)


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
    with pytest.raises(ValueError):
        xp.DetectionModel(splitter_ratios=((0.6, 0.5), 0.5, 0.5, 0.5))
    model = xp.DetectionModel(splitter_ratios=((0.6, 0.4), 0.5, 0.5, 0.5))
    assert model.splitter_ratios[0] == pytest.approx(0.6)


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


# ------------------------------------------------------------------- scans


def test_theory_scan_default_lengths(outer_single):
    result = xp.scan(outer_single, [xp.InputSpec(outer_single.members[0])])
    points = result.curves["|1000>"]
    assert [p.length_mm for p in points] == pytest.approx(list(cm.STRUCTURE_LENGTHS_MM))
    assert result.mode == "theory"


def test_theory_scan_peaks_at_ideal_length(outer_single):
    lengths = np.arange(80.0, 100.0 + 1e-9, 0.1)
    result = xp.scan(outer_single, [xp.InputSpec(outer_single.members[0])], lengths)
    probs = result.probabilities("|1000>")
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
        pt = theory.probabilities(label)
        ps = synth.probabilities(label)
        sig = np.array([p.sigma for p in synth.curves[label]])
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
        outer_single, [xp.InputSpec(m) for m in outer_single.members])
    assert unrestricted == pytest.approx(23.7, abs=0.05)
    assert restricted == pytest.approx(16.7, abs=0.1)


def test_plateau_contains_peak(outer_single):
    lengths = np.arange(60.0, 115.0, 0.01)
    engine = xp.CurveEngine(lengths)
    curve = engine.success_curve(outer_single, xp.InputSpec(outer_single.members[0]))
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


def test_plateau_width_delta_cross_check(outer_single, bunched_pair):
    for sub in (outer_single, bunched_pair):
        spec = xp.InputSpec(sub.members[0])
        _, unrestricted = xp.theory_plateau_widths(sub, [spec], grid_step=0.005)
        width_delta = xp.plateau_width_delta(sub, spec)
        assert abs(unrestricted * cm.FLAT_COUPLING_PER_MM - width_delta) < 1e-3


def test_plateau_width_delta_lifts_only_read_amplitudes():
    # 60 001 delta samples: the full lifted (Z, 10, 10) stack alone is
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


def test_three_boson_success_curve_matches_per_length_lift():
    basis = enumerate_basis(4, 3, BOSON)
    sub = hol.subspace_from_states(basis, [(3, 0, 0, 0), (2, 1, 0, 0), (0, 0, 1, 2), (0, 0, 0, 3)])
    lengths = np.linspace(60.0, 115.0, 23)
    engine = xp.CurveEngine(lengths)
    idx = list(sub.member_indices)
    ideal = lift_unitary(cm.jx_pattern(4).unitary(math.pi), basis)
    for spec in (xp.InputSpec(sub.members[0]), xp.InputSpec(sub.members[1])):
        col = basis.index_of(spec.state)
        target = int(np.argmax(np.abs(ideal[idx, col])))
        probs = np.array([np.abs(lift_unitary(u, basis)[idx, col]) ** 2 for u in engine.u_stack])
        expected = probs[:, target] / probs.sum(axis=1)
        assert np.max(np.abs(engine.success_curve(sub, spec) - expected)) < 1e-12


def test_plateau_report_means(three_state):
    lengths = np.arange(60.0, 115.0, 0.01)
    result = xp.scan(three_state, [xp.InputSpec(m) for m in three_state.members], lengths)
    report = xp.plateau_report(result, xp.THEORY_RULE)
    widths = [iv.width for iv in report.per_input.values()]
    assert report.mean_width == pytest.approx(np.mean(widths))
    assert report.mean_width == pytest.approx(20.2, abs=max(0.15 * 20.2, 1.5))


def test_plateau_report_skips_undefined_points(outer_single):
    spec = xp.InputSpec(outer_single.members[0])
    label = spec.label()
    for rule, lengths, walk_stop in ((xp.THEORY_RULE, np.arange(60.0, 115.0, 0.05), 2),
                                     (xp.EXPERIMENTAL_RULE, np.arange(80.0, 100.01, 0.5), 1)):
        want = xp.plateau_report(xp.scan(outer_single, [spec], lengths), rule).per_input[label]
        holed = xp.scan(outer_single, [spec], lengths)
        k = int(np.argmin(np.abs(lengths - 82.5)))  # inside the plateau, left of the peak
        holed.curves[label][k] = xp.ScanPoint(float(lengths[k]), None, None)
        got = xp.plateau_report(holed, rule).per_input[label]
        # the walk stops at the hole (theory: the slopes beside it are undefined too)
        assert got.start == lengths[k + walk_stop]
        assert got.end == want.end
        assert got.start <= cm.IDEAL_LENGTH_MM <= got.end
        for i in range(len(lengths)):
            holed.curves[label][i] = xp.ScanPoint(float(lengths[i]), None, None)
        with pytest.raises(ValueError, match="no defined points"):
            xp.plateau_report(holed, rule)


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
        pa = direct.probabilities(label)
        pb = ingested.probabilities(label)
        assert np.allclose(pa, pb, atol=1e-12, equal_nan=True)
        sa = [p.sigma for p in direct.curves[label]]
        sb = [p.sigma for p in ingested.curves[label]]
        assert sa == pytest.approx(sb, abs=1e-12)


def test_ingest_simple_counts(tmp_path, outer_single):
    path = tmp_path / "counts.csv"
    path.write_text(
        "structure_id,length_mm,input_state,detector_pair,counts\n"
        "s1,84.9,|1000>,m4,90\n"
        "s1,84.9,|1000>,m1,10\n"
    )
    result = xp.ingest_counts(path, outer_single)
    point = result.curves["|1000>"][0]
    assert point.probability == pytest.approx(0.9)
    assert point.sigma == pytest.approx(math.sqrt(90 * 10 / 100 ** 3))


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
    point = result.curves["|1000>"][0]
    assert point.probability is None


def test_ingest_malformed_row(tmp_path, outer_single):
    path = tmp_path / "counts.csv"
    path.write_text(
        "structure_id,length_mm,input_state,detector_pair,counts\n"
        "s1,weird,|1000>,m4,90\n"
    )
    with pytest.raises(ValueError, match="line 2"):
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
