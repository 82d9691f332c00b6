"""End-to-end acceptance gate.

Each test prints one PASS line when its checks hold; any assertion failure
marks the corresponding requirement red. Run with ``pytest -v`` to get one
pass/fail line per requirement.
"""

import json
import time

import numpy as np

from persal import (
    AnnotatedImage,
    BaselineConfig,
    CategoryMapping,
    Detection,
    DetectionSet,
    GtWeights,
    SaliencyGrid,
    cc,
    center_prior,
    center_prior_baseline,
    detection_baseline,
    emd,
    evaluate_pair,
    extract_preferences,
    final_weights,
    from_ratings,
    generate_psal,
    minmax_normalize,
    read_grid,
    softmax_normalize,
    sweep_alpha,
    sweep_ratio,
    transport,
    write_grid,
)
from persal.cli import main, run_from_manifest
from persal.preference import PreferenceVector
from persal.tuning import SweepSpec
from lp_oracle import emd_oracle
from ssp_oracle import ssp_transport
from synth import (
    IMAGE_SIZE,
    fixation_map,
    gaussian_blob,
    normalized_grid,
    random_annotated,
    two_cat_mapping,
)

MAPPING = two_cat_mapping()
FINAL = GtWeights(0.06, 0.752, 0.188)


def pvec(a, b):
    return PreferenceVector(MAPPING.super_names, np.array([a, b], dtype=np.float64))


def report(line):
    print(f"\nPASS: {line}")


def test_01_identical_pairs_score_perfectly():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        p = normalized_grid(rng, 16, 16)
        r = evaluate_pair(p, p, emd_resolution=16)
        assert abs(r.cc - 1.0) <= 1e-9
        assert abs(r.sim - 1.0) <= 1e-9
        assert abs(r.kld_judd) <= 1e-12
        assert r.kld_plain <= 1e-12
        assert r.emd <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"100 identical 16x16 pairs score perfectly in {elapsed:.2f}s (<5s)")


def test_02_emd_matches_lp_oracle(monkeypatch):
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    for _ in range(50):
        p = normalized_grid(rng, 3, 3)
        q = normalized_grid(rng, 3, 3)
        got, plan = emd(p, q)
        ref = emd_oracle(p.values, q.values)
        assert abs(got - ref) <= 1e-6
        with monkeypatch.context() as patch:  # same EMD on the independent SSP solver
            patch.setattr(transport, "solve_transport", ssp_transport)
            ssp_ref, _ = emd(p, q)
        assert abs(got - ssp_ref) <= 1e-7 * max(1.0, ssp_ref)
        F = np.zeros((9, 9))
        for i, j, m in plan.flows:
            assert m >= 0
            F[i, j] += m
        assert np.all(F.sum(axis=1) <= p.values.ravel() + 1e-9)
        assert np.all(F.sum(axis=0) <= q.values.ravel() + 1e-9)
        assert abs(F.sum() - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"50 random 3x3 EMD instances match the LP and SSP oracles in {elapsed:.2f}s (<10s)")


def test_03_emd_is_a_metric_with_exact_shifts():
    rng = np.random.default_rng(103)
    for _ in range(10):
        a, b, c = (normalized_grid(rng, 3, 3) for _ in range(3))
        dab, _ = emd(a, b)
        dba, _ = emd(b, a)
        dbc, _ = emd(b, c)
        dac, _ = emd(a, c)
        assert abs(dab - dba) <= 1e-9
        assert dac <= dab + dbc + 1e-9
    for k in (1, 2, 3, 4):
        p = np.zeros((3, 6))
        q = np.zeros((3, 6))
        p[1, 0] = 1.0
        q[1, k] = 1.0
        cost, _ = emd(SaliencyGrid(p), SaliencyGrid(q))
        assert abs(cost - k) <= 1e-9
    report("EMD symmetry, triangle inequality, and k-cell shift costs hold")


def test_04_normalization_pipeline_is_affine_invariant():
    rng = np.random.default_rng(104)
    for _ in range(100):
        v = rng.random((12, 12))
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(0.0, 3.0))
        base = softmax_normalize(minmax_normalize(SaliencyGrid(v))).values
        scaled = softmax_normalize(minmax_normalize(SaliencyGrid(a * v + b))).values
        assert np.max(np.abs(base - scaled)) <= 1e-9
    report("softmax(minmax(.)) invariant to 100 positive-affine rescalings")


def test_05_degenerate_preferences_reduce_to_plain_saliency():
    rng = np.random.default_rng(105)
    for trial in range(10):
        img = random_annotated(rng, MAPPING)
        ref = softmax_normalize(minmax_normalize(img.sal)).values
        zero = generate_psal(img, pvec(0.0, 0.0), FINAL).values
        assert np.max(np.abs(zero - ref)) <= 1e-9
        full = AnnotatedImage(
            sal=img.sal,
            boxes=DetectionSet(IMAGE_SIZE, IMAGE_SIZE,
                               (Detection(0, 1.0, (0, 0, IMAGE_SIZE, IMAGE_SIZE)),)),
            mapping=MAPPING,
        )
        ones = generate_psal(full, pvec(1.0, 1.0), FINAL).values
        assert np.max(np.abs(ones - ref)) <= 1e-9
    report("zero preferences and uniform full-coverage preferences reduce to plain saliency")


def test_06_final_weights_are_exact():
    w = final_weights(0.06, 0.8)
    assert w.as_tuple() == (0.06, 0.752, 0.188)
    report("final_weights(0.06, 0.8) == (0.06, 0.752, 0.188) exactly")


def test_07_weight_sweep_recovers_the_generating_blend():
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    gen_pvec = pvec(1.0, 0.3)
    dataset = [random_annotated(rng, MAPPING, image_id=f"img{i:03d}") for i in range(100)]
    labels = [generate_psal(img, gen_pvec, FINAL) for img in dataset]

    spec = SweepSpec(alpha_grid=(0.02, 0.04, 0.06, 0.08, 0.10, 0.14),
                     ratio_grid=(0.6, 0.7, 0.8, 0.9, 1.0),
                     fixed_ratio=0.8, fixed_alpha=0.06)
    res_a = sweep_alpha(dataset, labels, gen_pvec, spec)
    assert res_a.best.alpha == 0.06
    objs = [c.objective for c in res_a.candidates]
    peak = objs.index(max(objs))
    assert abs(objs[peak] - 2.0) <= 1e-9
    assert all(objs[i] < objs[i + 1] for i in range(peak))          # rising flank
    assert all(objs[i] > objs[i + 1] for i in range(peak, len(objs) - 1))  # falling flank

    res_r = sweep_ratio(dataset, labels, gen_pvec, spec)
    assert res_r.best.as_tuple() == (0.06, 0.752, 0.188)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"sweeps over 100 images recover (0.06, 0.752, 0.188) with a single "
           f"interior peak in {elapsed:.1f}s (<60s)")


def test_08_preference_extraction_invariants():
    rng = np.random.default_rng(108)
    now = 1_700_000_000.0
    day = 86400.0
    for _ in range(1000):
        n_sets = int(rng.integers(1, 6))
        in_window, out_window = [], []
        for s in range(n_sets):
            dets = tuple(
                Detection(int(rng.integers(0, 2)), float(rng.uniform(0.01, 0.12)),
                          (10.0, 10.0, 50.0, 50.0))
                for _ in range(int(rng.integers(1, 4)))
            )
            recent = bool(rng.random() < 0.7)
            ts = now - float(rng.uniform(0, 89)) * day if recent else now - float(rng.uniform(91, 400)) * day
            ds = DetectionSet(100, 100, dets, timestamp=ts)
            (in_window if recent else out_window).append(ds)
        if not in_window:
            in_window.append(DetectionSet(
                100, 100, (Detection(0, 0.05, (10.0, 10.0, 50.0, 50.0)),),
                timestamp=now - day))
        history = in_window + out_window

        base = extract_preferences(history, MAPPING, now).weights
        # stale records are ignored entirely
        trimmed = extract_preferences(in_window, MAPPING, now).weights
        np.testing.assert_array_equal(base, trimmed)
        # the dominant category is pinned to exactly 1
        assert base.max() == 1.0
        # power-of-two confidence rescaling leaves the vector bit-identical
        k = int(rng.integers(-3, 4))
        scaled = [
            DetectionSet(ds.image_w, ds.image_h,
                         tuple(Detection(d.category_id, d.score * 2.0**k, d.box)
                               for d in ds.detections),
                         timestamp=ds.timestamp)
            for ds in history
        ]
        np.testing.assert_array_equal(
            base, extract_preferences(scaled, MAPPING, now).weights)

    for ratings, expected in [([10, 8, 2], (1.0, 0.8, 0.2)),
                              ([10, 8, 5, 3], (1.0, 0.8, 0.5, 0.3))]:
        names = [f"c{i}" for i in range(len(ratings))]
        got = from_ratings(names, ratings)
        assert tuple(got.weights) == expected
    report("1000 histories: scale invariance, windowing, and rating vectors are exact")


def test_09_personalized_baseline_beats_center_prior():
    rng = np.random.default_rng(109)
    user = pvec(1.0, 0.05)
    cfg = BaselineConfig(kind="detection", seed=0, confidence_threshold=0.5)

    images = []
    for i in range(100):
        # viewers fixate near the center...
        cy, cx = 19 + rng.uniform(-2, 2), 19 + rng.uniform(-2, 2)
        sal = SaliencyGrid(gaussian_blob(38, 38, cy, cx, 5.0).values
                           + 0.05 * rng.random((38, 38)))
        # ...but this user's preferred objects sit off-center
        corner = rng.integers(0, 4)
        bx = 20.0 if corner % 2 == 0 else 240.0
        by = 20.0 if corner < 2 else 240.0
        boxes = (
            Detection(0, 0.9, (bx, by, 110.0, 110.0)),
            Detection(1, 0.9, (150.0, 150.0, 80.0, 80.0)),
        )
        images.append(AnnotatedImage(
            sal=sal,
            boxes=DetectionSet(IMAGE_SIZE, IMAGE_SIZE, boxes),
            mapping=MAPPING,
            image_id=f"img{i:03d}",
        ))

    prior = center_prior_baseline(center_prior([img.sal for img in images]))
    wins = 0
    for img in images:
        gt = generate_psal(img, user, FINAL)
        det_pred = detection_baseline(img.boxes, MAPPING, user, cfg)
        if cc(det_pred, gt) > cc(prior, gt):
            wins += 1
    assert wins >= 90
    report(f"personalized detection baseline beats the center prior on "
           f"{wins}/100 images (>=90 required)")


def test_10_cli_pipeline_replays_bit_identically(tmp_path):
    rng = np.random.default_rng(110)
    fix_dir = tmp_path / "fix"
    fix_dir.mkdir()
    records = []
    detrecs = []
    for i in range(3):
        name = f"img{i:03d}"
        write_grid(fixation_map(rng), fix_dir / f"{name}.fgrd")
        if i == 2:  # only a sub-threshold detection: exercises the seeded fallback
            dets = [{"category_id": 1, "score": 0.3, "bbox": [100, 100, 80, 80]}]
        else:
            dets = [{"category_id": 0, "score": 0.9, "bbox": [40 + 60 * i, 40, 120, 120]},
                    {"category_id": 1, "score": 0.7, "bbox": [200, 200, 100, 100]}]
        records.append({"image_id": name, "width": IMAGE_SIZE, "height": IMAGE_SIZE,
                        "detections": dets, "fixation_grid": f"fix/{name}.fgrd"})
        detrecs.append({k: records[-1][k] for k in ("image_id", "width", "height", "detections")})
    annotations = tmp_path / "annotations.json"
    annotations.write_text(json.dumps(records))
    detections = tmp_path / "detections.json"
    detections.write_text(json.dumps(detrecs))
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"super_categories": ["preferred", "other"],
                                   "map": {"0": 0, "1": 1}}))
    pvec_path = tmp_path / "pvec.json"
    pvec_path.write_text(json.dumps({"names": ["preferred", "other"],
                                     "weights": [1.0, 0.05]}))

    gt_dir, pred_dir, report_dir = tmp_path / "gt", tmp_path / "pred", tmp_path / "report"
    assert main(["gen-gt", "--annotations", str(annotations), "--pvec", str(pvec_path),
                 "--mapping", str(mapping), "--res", "16", "--out", str(gt_dir)]) == 0
    assert main(["baseline", "--kind", "detection", "--detections", str(detections),
                 "--pvec", str(pvec_path), "--mapping", str(mapping),
                 "--seed", "3", "--res", "16", "--out", str(pred_dir)]) == 0
    assert main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                 "--out", str(report_dir), "--emd-res", "16", "--jobs", "1"]) == 0

    fallback = read_grid(pred_dir / "img002.fgrd")
    assert abs(fallback.values.sum() - 1.0) <= 1e-5  # fallback grid is a distribution

    artifacts = sorted(
        list(gt_dir.glob("*")) + list(pred_dir.glob("*")) + list(report_dir.glob("*"))
    )
    before = {str(p): p.read_bytes() for p in artifacts}
    for p in artifacts:
        if p.name != "run_manifest.json":
            p.unlink()
    for d in (gt_dir, pred_dir, report_dir):
        assert run_from_manifest(d / "run_manifest.json") == 0
    after = {str(p): p.read_bytes() for p in artifacts}
    assert before == after
    report("gen-gt -> baseline -> eval pipeline replays bit-identically from its manifests")
