import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

import persal
from persal import SaliencyGrid, cli, read_grid, transport, write_grid
from persal.cli import _resolve_jobs, build_parser, main, run_from_manifest
from persal.manifest import read_manifest
from synth import fixation_map

NOW = 1_700_000_000.0
DAY = 86400.0


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def make_workspace(tmp_path):
    """Mapping, preference vector, fixation grids, and manifests for 3 images."""
    ws = {}
    ws["mapping"] = write_json(tmp_path / "mapping.json", {
        "super_categories": ["preferred", "other"],
        "map": {"0": 0, "1": 1},
    })
    ws["pvec"] = write_json(tmp_path / "pvec.json", {
        "names": ["preferred", "other"], "weights": [1.0, 0.3],
    })
    fix_dir = tmp_path / "fix"
    fix_dir.mkdir()
    rng = np.random.default_rng(0)
    records = []
    for i, dets in enumerate([
        [{"category_id": 0, "score": 0.9, "bbox": [40, 40, 120, 120]}],
        [{"category_id": 0, "score": 0.8, "bbox": [200, 60, 100, 150]},
         {"category_id": 1, "score": 0.7, "bbox": [30, 220, 140, 90]}],
        [{"category_id": 1, "score": 0.3, "bbox": [100, 100, 80, 80]}],  # sub-threshold only
    ]):
        name = f"img{i:03d}"
        write_grid(fixation_map(rng), fix_dir / f"{name}.fgrd")
        records.append({
            "image_id": name, "width": 380, "height": 380,
            "timestamp": NOW - (i + 1) * DAY,
            "detections": dets,
            "fixation_grid": f"fix/{name}.fgrd",
        })
    ws["fix_dir"] = str(fix_dir)
    ws["annotations"] = write_json(tmp_path / "annotations.json", records)
    ws["detections"] = write_json(
        tmp_path / "detections.json",
        [{k: rec[k] for k in ("image_id", "width", "height", "timestamp", "detections")}
         for rec in records],
    )
    return ws


class TestProfile:
    def test_stdout_hand_values(self, tmp_path, capsys):
        dets = write_json(tmp_path / "d.json", [
            {"image_id": "a", "width": 100, "height": 100, "timestamp": NOW - DAY,
             "detections": [{"category_id": 0, "score": 0.5, "bbox": [0, 0, 10, 10]},
                            {"category_id": 1, "score": 0.25, "bbox": [0, 0, 10, 10]}]},
            {"image_id": "b", "width": 100, "height": 100, "timestamp": NOW - 2 * DAY,
             "detections": [{"category_id": 0, "score": 0.5, "bbox": [0, 0, 10, 10]}]},
            {"image_id": "old", "width": 100, "height": 100, "timestamp": NOW - 100 * DAY,
             "detections": [{"category_id": 1, "score": 1.0, "bbox": [0, 0, 10, 10]}]},
        ])
        mapping = write_json(tmp_path / "m.json", {
            "super_categories": ["preferred", "other"], "map": {"0": 0, "1": 1},
        })
        rc = main(["profile", "--detections", dets, "--mapping", mapping,
                   "--now", repr(NOW)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["names"] == ["preferred", "other"]
        assert doc["weights"] == [1.0, 0.25]  # old record is outside the 90-day window

    def test_ratings_mode(self, tmp_path, capsys):
        ratings = write_json(tmp_path / "r.json",
                             {"names": ["a", "b", "c"], "ratings": [10, 8, 2]})
        assert main(["profile", "--ratings", ratings]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["weights"] == [1.0, 0.8, 0.2]

    def test_out_file_and_manifest(self, tmp_path):
        ws = make_workspace(tmp_path)
        out = tmp_path / "pvec_out.json"
        rc = main(["profile", "--detections", ws["detections"], "--mapping", ws["mapping"],
                   "--now", repr(NOW), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["names"] == ["preferred", "other"]
        m = read_manifest(f"{out}.manifest.json")
        assert m["command"] == "profile"
        assert ws["detections"] in m["inputs"]

    def test_missing_source_flags(self):
        assert main(["profile"]) == 1


class TestGenGt:
    def test_writes_distributions_and_manifest(self, tmp_path):
        ws = make_workspace(tmp_path)
        out = tmp_path / "gt"
        rc = main(["gen-gt", "--annotations", ws["annotations"], "--pvec", ws["pvec"],
                   "--mapping", ws["mapping"], "--res", "8", "--out", str(out)])
        assert rc == 0
        grids = sorted(out.glob("*.fgrd"))
        assert [p.stem for p in grids] == ["img000", "img001", "img002"]
        for p in grids:
            g = read_grid(p)
            assert g.shape == (8, 8)
            assert abs(g.values.sum() - 1.0) <= 1e-5  # float32 payload
        doc = read_manifest(out / "run_manifest.json")
        assert doc["config"]["weights"] == [0.06, 0.752, 0.188]

    def test_manifest_replay_is_bit_identical(self, tmp_path):
        ws = make_workspace(tmp_path)
        out = tmp_path / "gt"
        main(["gen-gt", "--annotations", ws["annotations"], "--pvec", ws["pvec"],
              "--mapping", ws["mapping"], "--res", "8", "--out", str(out)])
        before = {p.name: p.read_bytes() for p in out.glob("*.fgrd")}
        for p in out.glob("*.fgrd"):
            p.unlink()
        assert run_from_manifest(out / "run_manifest.json") == 0
        after = {p.name: p.read_bytes() for p in out.glob("*.fgrd")}
        assert before == after


class TestPriorAndBaselines:
    def test_prior_command(self, tmp_path):
        ws = make_workspace(tmp_path)
        out = tmp_path / "prior.fgrd"
        assert main(["prior", "--grids", ws["fix_dir"], "--out", str(out)]) == 0
        prior = read_grid(out)
        assert prior.values.min() >= 0.0
        assert abs(prior.values.max() - 1.0) <= 1e-6
        assert read_manifest(f"{out}.manifest.json")["config"]["n_maps"] == 3

    def test_center_prior_baseline_command(self, tmp_path):
        ws = make_workspace(tmp_path)
        prior = tmp_path / "prior.fgrd"
        main(["prior", "--grids", ws["fix_dir"], "--out", str(prior)])
        out = tmp_path / "cp.fgrd"
        assert main(["baseline", "--kind", "center_prior", "--prior", str(prior),
                     "--out", str(out)]) == 0
        assert abs(read_grid(out).values.sum() - 1.0) <= 1e-5

    def test_detection_baseline_with_seeded_fallback(self, tmp_path):
        ws = make_workspace(tmp_path)
        out = tmp_path / "base"
        rc = main(["baseline", "--kind", "detection", "--detections", ws["detections"],
                   "--pvec", ws["pvec"], "--mapping", ws["mapping"],
                   "--seed", "5", "--res", "8", "--out", str(out)])
        assert rc == 0
        grids = {p.stem: read_grid(p) for p in out.glob("*.fgrd")}
        assert set(grids) == {"img000", "img001", "img002"}
        for g in grids.values():
            assert abs(g.values.sum() - 1.0) <= 1e-5
        # img002 has only a sub-threshold detection: replay must reproduce the
        # seeded random fallback exactly
        before = {p.name: p.read_bytes() for p in out.glob("*.fgrd")}
        for p in out.glob("*.fgrd"):
            p.unlink()
        assert run_from_manifest(out / "run_manifest.json") == 0
        after = {p.name: p.read_bytes() for p in out.glob("*.fgrd")}
        assert before == after

    def test_center_prior_requires_prior_flag(self, tmp_path):
        assert main(["baseline", "--kind", "center_prior", "--out",
                     str(tmp_path / "x.fgrd")]) == 1


class TestEval:
    def run_identity_eval(self, tmp_path, extra=()):
        ws = make_workspace(tmp_path)
        gt = tmp_path / "gt"
        main(["gen-gt", "--annotations", ws["annotations"], "--pvec", ws["pvec"],
              "--mapping", ws["mapping"], "--res", "8", "--out", str(gt)])
        out = tmp_path / "report"
        rc = main(["eval", "--pred", str(gt), "--gt", str(gt), "--out", str(out),
                   "--emd-res", "8", "--jobs", "1", *extra])
        return rc, out

    def test_identity_report(self, tmp_path):
        rc, out = self.run_identity_eval(tmp_path)
        assert rc == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert abs(agg["means"]["cc"] - 1.0) <= 1e-9
        assert abs(agg["means"]["sim"] - 1.0) <= 1e-5
        assert agg["means"]["emd"] == 0.0
        assert agg["counts"] == {"images": 3, "cc_excluded": 0, "failures": 0}
        rows = (out / "per_image.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 images
        assert rows[0].startswith("id,cc,sim,")

    def test_parallel_jobs_match_serial(self, tmp_path):
        rc, out = self.run_identity_eval(tmp_path)
        serial = (out / "per_image.csv").read_text()
        ws_dir = tmp_path / "p2"
        ws_dir.mkdir()
        rc2, out2 = self.run_identity_eval(ws_dir, extra=("--jobs", "2"))
        assert rc == rc2 == 0
        assert (out2 / "per_image.csv").read_text() == serial

    def test_dim_mismatch_fails_before_writing(self, tmp_path):
        pred = tmp_path / "pred"
        gt = tmp_path / "gtdir"
        pred.mkdir()
        gt.mkdir()
        rng = np.random.default_rng(1)
        write_grid(SaliencyGrid(rng.random((4, 4))), pred / "a.fgrd")
        write_grid(SaliencyGrid(rng.random((8, 8))), gt / "a.fgrd")
        out = tmp_path / "report"
        assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                     "--out", str(out), "--jobs", "1"]) == 1
        assert not (out / "per_image.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_normalize_turns_zero_mass_grid_into_failure_row(self, tmp_path):
        pred = tmp_path / "pred"
        gt = tmp_path / "gtdir"
        pred.mkdir()
        gt.mkdir()
        rng = np.random.default_rng(3)
        for name in ("a", "b", "c"):
            values = np.zeros((4, 4)) if name == "b" else rng.random((4, 4)) + 0.1
            write_grid(SaliencyGrid(values), pred / f"{name}.fgrd")
            write_grid(SaliencyGrid(rng.random((4, 4)) + 0.1), gt / f"{name}.fgrd")
        out = tmp_path / "report"
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out),
                   "--jobs", "1", "--normalize"])
        assert rc == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["counts"]["failures"] == 1
        rows = (out / "per_image.csv").read_text().strip().splitlines()[1:]
        by_id = {row.split(",")[0]: row for row in rows}
        assert by_id["b"].endswith("ZeroMassError: b: prediction has zero mass")
        for name in ("a", "c"):
            assert by_id[name].split(",")[5] != ""  # EMD scored

    @pytest.mark.filterwarnings("error")
    def test_normalize_names_zero_mass_ground_truth(self, tmp_path):
        pred = tmp_path / "pred"
        gt = tmp_path / "gtdir"
        pred.mkdir()
        gt.mkdir()
        write_grid(SaliencyGrid(np.ones((4, 4))), pred / "a.fgrd")
        write_grid(SaliencyGrid(np.zeros((4, 4))), gt / "a.fgrd")
        out = tmp_path / "report"
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out),
                     "--jobs", "1", "--normalize"]) == 0
        row = (out / "per_image.csv").read_text().strip().splitlines()[1]
        assert row.endswith("ZeroMassError: a: ground truth has zero mass")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_corrupt_payload_fails_run_without_output(self, tmp_path, jobs):
        pred = tmp_path / "pred"
        gt = tmp_path / "gtdir"
        pred.mkdir()
        gt.mkdir()
        rng = np.random.default_rng(4)
        for name in ("a", "b", "c"):
            write_grid(SaliencyGrid(rng.random((4, 4))), pred / f"{name}.fgrd")
            write_grid(SaliencyGrid(rng.random((4, 4))), gt / f"{name}.fgrd")
        raw = bytearray((pred / "b.fgrd").read_bytes())
        raw[20] ^= 0xFF  # payload byte; the header still parses
        (pred / "b.fgrd").write_bytes(bytes(raw))
        out = tmp_path / "report"
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out),
                     "--jobs", jobs]) == 2
        assert not (out / "per_image.csv").exists()

    def test_each_grid_read_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        for d in ("pred", "gtdir"):
            (tmp_path / d).mkdir()
            for name in ("a", "b", "c"):
                write_grid(SaliencyGrid(rng.random((4, 4))), tmp_path / d / f"{name}.fgrd")
        calls = []
        real = persal.gridio.read_grid
        monkeypatch.setattr(persal.gridio, "read_grid", lambda path: calls.append(path) or real(path))
        assert main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gtdir"),
                     "--out", str(tmp_path / "report"), "--jobs", "1"]) == 0
        assert len(calls) == 6  # 3 images, pred and gt each read once

    def test_manifest_records_solver_environment(self, tmp_path):
        rc, out = self.run_identity_eval(tmp_path)
        assert rc == 0
        env = read_manifest(out / "run_manifest.json")["environment"]
        assert env["solver_backend"] == transport.BACKEND
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__

    def test_manifest_records_package_version(self, tmp_path):
        rc, out = self.run_identity_eval(tmp_path)
        assert rc == 0
        assert read_manifest(out / "run_manifest.json")["tool_version"] == persal.__version__

    def test_no_matching_names(self, tmp_path):
        pred = tmp_path / "pred"
        gt = tmp_path / "gtdir"
        pred.mkdir()
        gt.mkdir()
        rng = np.random.default_rng(2)
        write_grid(SaliencyGrid(rng.random((4, 4))), pred / "a.fgrd")
        write_grid(SaliencyGrid(rng.random((4, 4))), gt / "b.fgrd")
        assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                     "--out", str(tmp_path / "r"), "--jobs", "1"]) == 1


class TestTune:
    def test_alpha_sweep_recovers_default_weights(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        labels = tmp_path / "labels"
        main(["gen-gt", "--annotations", ws["annotations"], "--pvec", ws["pvec"],
              "--mapping", ws["mapping"], "--out", str(labels)])
        out = tmp_path / "sweep.csv"
        rc = main(["tune", "--annotations", ws["annotations"], "--pvec", ws["pvec"],
                   "--mapping", ws["mapping"], "--labels", str(labels),
                   "--mode", "alpha", "--alpha-grid", "0.02,0.06,0.10",
                   "--fixed-ratio", "0.8", "--out", str(out)])
        assert rc == 0
        best = json.loads(capsys.readouterr().out)["best"]
        assert best["alpha"] == [0.06, 0.752, 0.188]
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 candidates

    def test_missing_label_grid(self, tmp_path):
        ws = make_workspace(tmp_path)
        labels = tmp_path / "labels"
        labels.mkdir()
        rng = np.random.default_rng(3)
        write_grid(SaliencyGrid(rng.random((8, 8))), labels / "img000.fgrd")
        assert main(["tune", "--annotations", ws["annotations"], "--pvec", ws["pvec"],
                     "--mapping", ws["mapping"], "--labels", str(labels),
                     "--out", str(tmp_path / "s.csv")]) == 1


class TestConvert:
    def test_fgrd_to_pgm(self, tmp_path):
        src = tmp_path / "g.fgrd"
        write_grid(SaliencyGrid(np.array([[0.0, 1.0]])), src)
        out = tmp_path / "g.pgm"
        assert main(["convert", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_bytes() == b"P5\n2 1\n255\n" + bytes([0, 255])
        assert read_manifest(f"{out}.manifest.json")["command"] == "convert"


class TestReplay:
    """Every command's manifest re-runs it bit-identically, and its argv parses
    back to the run's resolved arguments, ``--jobs`` aside."""

    CASES = ["profile", "gen-gt", "prior", "baseline-center-prior", "baseline-detection",
             "eval", "tune", "convert"]

    @staticmethod
    def invocation(tmp_path, case):
        ws = make_workspace(tmp_path)
        t = str(tmp_path)
        common = ["--pvec", ws["pvec"], "--mapping", ws["mapping"]]
        detection = ["baseline", "--kind", "detection", "--detections", ws["detections"],
                     *common, "--seed", "5", "--res", "8", "--out"]
        assert main(["gen-gt", "--annotations", ws["annotations"], *common, "--res", "8",
                     "--out", f"{t}/gt"]) == 0
        assert main([*detection, f"{t}/pred"]) == 0
        assert main(["prior", "--grids", ws["fix_dir"], "--out", f"{t}/prior.fgrd"]) == 0
        recent = write_json(tmp_path / "recent.json", [
            {"image_id": "a", "width": 100, "height": 100, "timestamp": time.time() - DAY,
             "detections": [{"category_id": 1, "score": 0.5, "bbox": [0, 0, 10, 10]}]}])
        return {
            # --now omitted: the run resolves it and the manifest records it
            "profile": ["profile", "--detections", recent, "--mapping", ws["mapping"],
                        "--out", f"{t}/out.json"],
            "gen-gt": ["gen-gt", "--annotations", ws["annotations"], *common, "--res", "8",
                       "--out", f"{t}/out"],
            "prior": ["prior", "--grids", ws["fix_dir"], "--out", f"{t}/out.fgrd"],
            "baseline-center-prior": ["baseline", "--kind", "center_prior",
                                      "--prior", f"{t}/prior.fgrd", "--out", f"{t}/out.fgrd"],
            "baseline-detection": [*detection, f"{t}/out"],
            "eval": ["eval", "--pred", f"{t}/pred", "--gt", f"{t}/gt", "--out", f"{t}/out",
                     "--emd-res", "8", "--jobs", "2", "--normalize"],
            "tune": ["tune", "--annotations", ws["annotations"], *common, "--labels", f"{t}/gt",
                     "--alpha-grid", "0.02,0.06", "--ratio-grid", "0.7,0.8",
                     "--out", f"{t}/out.csv"],
            "convert": ["convert", "--in", f"{t}/prior.fgrd", "--out", f"{t}/out.pgm"],
        }[case]

    @staticmethod
    def outputs(tmp_path):
        return {str(p): p.read_bytes() for p in sorted(tmp_path.rglob("*"))
                if p.is_file() and p.relative_to(tmp_path).parts[0].startswith("out")}

    @pytest.mark.parametrize("case", CASES)
    def test_manifest_replays_bit_identically(self, tmp_path, monkeypatch, case):
        argv = self.invocation(tmp_path, case)
        seen = []
        name = f"cmd_{argv[0].replace('-', '_')}"
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or real(args))
        assert main(argv) == 0

        before = self.outputs(tmp_path)
        [manifest_path] = [p for p in before if p.endswith("manifest.json")]
        recorded = read_manifest(manifest_path)["argv"]
        assert "--jobs" not in recorded
        assert ("--now" in recorded) == (case == "profile")
        replayed = vars(build_parser().parse_args(recorded))
        resolved = vars(seen[0])
        assert {k: v for k, v in replayed.items() if k != "jobs"} == \
               {k: v for k, v in resolved.items() if k != "jobs"}

        for p in before:
            if p != manifest_path:
                Path(p).unlink()
        assert run_from_manifest(manifest_path) == 0
        assert self.outputs(tmp_path) == before


class TestReplayDashValue:
    def test_value_beginning_with_dash_replays(self, tmp_path, monkeypatch):
        ws = make_workspace(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["prior", "--grids", ws["fix_dir"], "--out=-x.fgrd"]) == 0
        before = Path("-x.fgrd").read_bytes()
        Path("-x.fgrd").unlink()
        assert run_from_manifest("-x.fgrd.manifest.json") == 0
        assert Path("-x.fgrd").read_bytes() == before


class TestManifestInputs:
    def test_rewritten_fixation_grid_changes_gen_gt_inputs(self, tmp_path):
        ws = make_workspace(tmp_path)
        out = tmp_path / "gt"
        argv = ["gen-gt", "--annotations", ws["annotations"], "--pvec", ws["pvec"],
                "--mapping", ws["mapping"], "--res", "8", "--out", str(out)]
        assert main(argv) == 0
        before = read_manifest(out / "run_manifest.json")["inputs"]
        fixation = tmp_path / "fix" / "img001.fgrd"
        write_grid(SaliencyGrid(np.random.default_rng(9).random((8, 8))), fixation)
        assert main(argv) == 0
        after = read_manifest(out / "run_manifest.json")["inputs"]
        assert {k for k in after if before.get(k) != after[k]} == {str(fixation)}

    def test_tune_records_fixation_and_label_grids(self, tmp_path):
        ws = make_workspace(tmp_path)
        labels = tmp_path / "labels"
        common = ["--annotations", ws["annotations"], "--pvec", ws["pvec"],
                  "--mapping", ws["mapping"]]
        assert main(["gen-gt", *common, "--res", "8", "--out", str(labels)]) == 0
        out = tmp_path / "sweep.csv"
        assert main(["tune", *common, "--labels", str(labels), "--mode", "alpha",
                     "--alpha-grid", "0.06", "--out", str(out)]) == 0
        inputs = set(read_manifest(f"{out}.manifest.json")["inputs"])
        grids = {str(p) for d in (tmp_path / "fix", labels) for p in d.glob("*.fgrd")}
        assert len(grids) == 6 and grids <= inputs


class TestExitCodes:
    def test_missing_input_file_is_io_error(self, tmp_path):
        assert main(["profile", "--detections", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["profile", "--detections", str(bad)]) == 2

    @pytest.mark.parametrize("record, message", [
        ({"image_id": "a", "height": 10}, "record 0 (image 'a'): missing key 'width'"),
        ({"image_id": "a", "width": 10, "height": 10,
          "detections": [{"category_id": 0, "bbox": [0, 0, 1, 1]}]},
         "record 0 (image 'a'), detection 0: missing key 'score'"),
        (5, "record 0: expected an object with 'width', got int"),
        ({"image_id": "a", "width": 10, "height": 10, "detections": 3},
         "record 0 (image 'a'): 'detections' must be an array, got 3"),
        ({"image_id": "a", "width": 10, "height": 10, "timestamp": "yesterday"},
         "record 0 (image 'a'): 'timestamp' must be a number or null, got 'yesterday'"),
        ({"image_id": "a", "width": 10, "height": 10,
          "detections": [{"category_id": 0, "score": 0.5, "bbox": [0, 0, 1]}]},
         "record 0 (image 'a'), detection 0: 'bbox' must be 4 numbers, got [0, 0, 1]"),
        ({"image_id": "a", "width": "ten", "height": 10},
         "record 0 (image 'a'): 'width' must be an integer, got 'ten'"),
    ])
    def test_malformed_detection_record_is_named_io_error(self, tmp_path, capsys, record,
                                                          message):
        dets = write_json(tmp_path / "d.json", [record])
        assert main(["profile", "--detections", dets, "--now", "0"]) == 2
        assert f"{dets}: {message}" in capsys.readouterr().err

    def test_malformed_annotation_record_is_named_io_error(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        records = json.loads(Path(ws["annotations"]).read_text())
        for rec in records:  # ground-truth boxes need no score
            for d in rec["detections"]:
                del d["score"]
        base = ["gen-gt", "--annotations", ws["annotations"], "--pvec", ws["pvec"],
                "--mapping", ws["mapping"], "--res", "8", "--out", str(tmp_path / "gt")]
        write_json(Path(ws["annotations"]), records)
        assert main(base) == 0
        del records[1]["fixation_grid"]
        write_json(Path(ws["annotations"]), records)
        assert main(base) == 2
        assert (f"{ws['annotations']}: record 1 (image 'img001'): missing key 'fixation_grid'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag, doc, message", [
        ("--pvec", {"names": ["preferred", "other"]}, "missing key 'weights'"),
        ("--mapping", {"super_categories": ["preferred", "other"]}, "missing key 'map'"),
        ("--pvec", [1.0, 0.3], "expected an object with 'names', got list"),
        ("--mapping", {"super_categories": ["preferred", "other"], "map": [[1, 0]]},
         "'map' must be an object, got [[1, 0]]"),
    ])
    def test_json_input_without_required_key_is_named_io_error(self, tmp_path, capsys, flag,
                                                                doc, message):
        ws = make_workspace(tmp_path)
        bad = ws[flag[2:]] = write_json(tmp_path / "bad.json", doc)
        assert main(["baseline", "--kind", "detection", "--detections", ws["detections"],
                     "--pvec", ws["pvec"], "--mapping", ws["mapping"],
                     "--out", str(tmp_path / "pred")]) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err

    def test_ratings_without_required_key_is_named_io_error(self, tmp_path, capsys):
        ratings = write_json(tmp_path / "r.json", {"names": ["a", "b"]})
        assert main(["profile", "--ratings", ratings]) == 2
        assert f"{ratings}: missing key 'ratings'" in capsys.readouterr().err

    def test_corrupt_grid_is_io_error(self, tmp_path):
        d = tmp_path / "grids"
        d.mkdir()
        write_grid(SaliencyGrid(np.random.default_rng(0).random((4, 4))), d / "a.fgrd")
        raw = bytearray((d / "a.fgrd").read_bytes())
        raw[-1] ^= 0xFF
        (d / "a.fgrd").write_bytes(bytes(raw))
        assert main(["prior", "--grids", str(d), "--out", str(tmp_path / "p.fgrd")]) == 2

    def test_bad_weights_are_validation_errors(self, tmp_path):
        ws = make_workspace(tmp_path)
        base = ["gen-gt", "--annotations", ws["annotations"], "--pvec", ws["pvec"],
                "--mapping", ws["mapping"], "--out", str(tmp_path / "gt")]
        assert main(base + ["--weights", "0.5,0.5"]) == 1  # wrong arity
        assert main(base + ["--weights", "0.5,0.4,0.3"]) == 1  # wrong sum

    def test_empty_grid_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["prior", "--grids", str(d), "--out", str(tmp_path / "p.fgrd")]) == 1


class TestJobsResolution:
    def test_flag_wins(self):
        assert _resolve_jobs(3) == 3
        assert _resolve_jobs(0) == 1

    def test_default_cpu_count(self):
        assert _resolve_jobs(None) >= 1


class TestStartup:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # the solver imports scipy.optimize on first use; at start-up it would
        # cost every command about 0.5 s. The manifest imports scipy, and eval
        # the process pool, only when they run; importlib.metadata is not used.
        src = str(Path(persal.__file__).resolve().parents[1])
        code = ("import sys, persal.cli; print([m for m in ('scipy.optimize', 'scipy', "
                "'importlib.metadata', 'concurrent.futures') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
