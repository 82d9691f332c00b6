"""Command-line surface tying the library into reproducible pipelines.

Exit codes: 0 success, 1 validation error, 2 I/O or file-format error. Every
run writes a run manifest next to its outputs; ``run_from_manifest`` replays
the recorded invocation bit-for-bit.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import baselines, groundtruth, gridio, manifest, metrics, preference, tuning
from .errors import DimMismatchError, PersalError, PersalIOError, ZeroMassError
from .grid import SaliencyGrid
from .raster import GRID_SIZE


class _UsageError(PersalError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # validation failures exit 1, not argparse's 2
        raise _UsageError(message)


def _load_mapping(path: str | None) -> preference.CategoryMapping:
    return preference.load_mapping(path) if path else preference.default_mapping()


def _parse_weights(text: str) -> groundtruth.GtWeights:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise _UsageError(f"--weights needs three comma-separated values, got {text!r}")
    return groundtruth.GtWeights(*parts)


def _parse_grid_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _sorted_grids(directory: str | Path) -> list[Path]:
    paths = sorted(Path(directory).glob("*.fgrd"))
    if not paths:
        raise _UsageError(f"no .fgrd files in {directory}")
    return paths


def _resolve_jobs(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get("PERSAL_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _opt(flag: str, value) -> list[str]:
    return [] if value is None else [flag, str(value)]


# --- subcommands --------------------------------------------------------------


def cmd_profile(args) -> int:
    now = args.now if args.now is not None else time.time()
    inputs = []
    if args.ratings:
        with open(args.ratings) as f:
            doc = json.load(f)
        pvec = preference.from_ratings(doc["names"], doc["ratings"])
        inputs.append(args.ratings)
    else:
        if not args.detections:
            raise _UsageError("profile needs --detections or --ratings")
        mapping = _load_mapping(args.mapping)
        history = preference.load_detection_manifest(args.detections)
        pvec = preference.extract_preferences(history, mapping, now, args.window_days)
        inputs.append(args.detections)
        if args.mapping:
            inputs.append(args.mapping)

    payload = json.dumps(preference.pvec_to_dict(pvec), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
        argv = (
            ["profile"]
            + _opt("--detections", args.detections)
            + _opt("--ratings", args.ratings)
            + _opt("--mapping", args.mapping)
            + ["--window-days", str(args.window_days), "--now", repr(now), "--out", args.out]
        )
        manifest.write_manifest(
            f"{args.out}.manifest.json", "profile", argv,
            {"window_days": args.window_days, "now": now}, inputs,
        )
    else:
        sys.stdout.write(payload)
    return 0


def cmd_gen_gt(args) -> int:
    mapping = _load_mapping(args.mapping)
    pvec = preference.load_pvec(args.pvec)
    weights = _parse_weights(args.weights)
    dataset = groundtruth.load_annotation_manifest(args.annotations, mapping)
    out_dir = Path(args.out)

    generated = []  # fully generate before writing anything
    for idx, img in enumerate(sorted(dataset, key=lambda im: im.image_id)):
        name = img.image_id or f"{idx:06d}"
        generated.append((name, groundtruth.generate_psal(img, pvec, weights, args.res, args.res)))

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, g in generated:
        gridio.write_grid(g, out_dir / f"{name}.fgrd")
    argv = (
        ["gen-gt", "--annotations", args.annotations, "--pvec", args.pvec]
        + _opt("--mapping", args.mapping)
        + ["--weights", args.weights, "--res", str(args.res), "--out", args.out]
    )
    inputs = [args.annotations, args.pvec] + ([args.mapping] if args.mapping else [])
    manifest.write_manifest(
        out_dir / "run_manifest.json", "gen-gt", argv,
        {"weights": list(weights.as_tuple()), "res": args.res}, inputs,
    )
    return 0


def cmd_prior(args) -> int:
    paths = _sorted_grids(args.grids)
    grids = [gridio.read_grid(p) for p in paths]
    prior = groundtruth.center_prior(grids)
    gridio.write_grid(prior, args.out)
    argv = ["prior", "--grids", args.grids, "--out", args.out]
    manifest.write_manifest(f"{args.out}.manifest.json", "prior", argv,
                            {"n_maps": len(grids)}, paths)
    return 0


def cmd_baseline(args) -> int:
    cfg = baselines.BaselineConfig(
        kind=args.kind, seed=args.seed, confidence_threshold=args.threshold
    )
    if args.kind == "center_prior":
        if not args.prior:
            raise _UsageError("center_prior baseline needs --prior")
        out = baselines.center_prior_baseline(gridio.read_grid(args.prior))
        gridio.write_grid(out, args.out)
        argv = ["baseline", "--kind", "center_prior", "--prior", args.prior,
                "--seed", str(args.seed), "--out", args.out]
        manifest.write_manifest(f"{args.out}.manifest.json", "baseline", argv,
                                {"kind": args.kind, "seed": args.seed}, [args.prior])
        return 0

    if not args.detections or not args.pvec:
        raise _UsageError("detection baseline needs --detections and --pvec")
    mapping = _load_mapping(args.mapping)
    pvec = preference.load_pvec(args.pvec)
    sets = preference.load_detection_manifest(args.detections)
    out_dir = Path(args.out)
    results = []
    for idx, ds in enumerate(sorted(sets, key=lambda s: s.image_id)):
        name = ds.image_id or f"{idx:06d}"
        results.append((name, baselines.detection_baseline(ds, mapping, pvec, cfg, args.res, args.res)))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, g in results:
        gridio.write_grid(g, out_dir / f"{name}.fgrd")
    argv = (
        ["baseline", "--kind", "detection", "--detections", args.detections,
         "--pvec", args.pvec]
        + _opt("--mapping", args.mapping)
        + ["--seed", str(args.seed), "--threshold", str(args.threshold),
           "--res", str(args.res), "--out", args.out]
    )
    inputs = [args.detections, args.pvec] + ([args.mapping] if args.mapping else [])
    manifest.write_manifest(
        out_dir / "run_manifest.json", "baseline", argv,
        {"kind": args.kind, "seed": args.seed, "threshold": args.threshold, "res": args.res},
        inputs,
    )
    return 0


def _eval_one(task) -> metrics.PairResult:
    pred_path, gt_path, normalize, emd_res, distance = task
    p = gridio.read_grid(pred_path)
    q = gridio.read_grid(gt_path)
    try:
        if normalize:  # a zero-mass grid fails here, as one image, not the run
            p = SaliencyGrid(p.values / p.values.sum())
            q = SaliencyGrid(q.values / q.values.sum())
        return metrics.evaluate_pair(p, q, Path(pred_path).stem,
                                     emd_resolution=emd_res, distance=distance)
    except Exception as exc:  # noqa: BLE001
        return metrics.PairResult(image_id=Path(pred_path).stem,
                                  error=f"{type(exc).__name__}: {exc}")


def cmd_eval(args) -> int:
    pred_paths = {p.name: p for p in _sorted_grids(args.pred)}
    gt_paths = {p.name: p for p in _sorted_grids(args.gt)}
    names = sorted(set(pred_paths) & set(gt_paths))
    if not names:
        raise _UsageError("no matching grid filenames between --pred and --gt")

    # dimension check up front, before any output is written
    for name in names:
        p = gridio.read_grid(pred_paths[name])
        q = gridio.read_grid(gt_paths[name])
        if p.shape != q.shape:
            raise DimMismatchError(f"{name}: pred {p.shape} vs gt {q.shape}")

    tasks = [
        (str(pred_paths[n]), str(gt_paths[n]), args.normalize, args.emd_res, args.distance)
        for n in names
    ]
    jobs = _resolve_jobs(args.jobs)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_eval_one, tasks))
    else:
        records = [_eval_one(t) for t in tasks]

    ok = [r for r in records if r.error is None]
    cc_vals = [r.cc for r in ok if r.cc is not None]
    means = {
        "cc": float(np.mean(cc_vals)) if cc_vals else float("nan"),
        "sim": float(np.mean([r.sim for r in ok])) if ok else float("nan"),
        "kld_judd": float(np.mean([r.kld_judd for r in ok])) if ok else float("nan"),
        "kld_plain": float(np.mean([r.kld_plain for r in ok])) if ok else float("nan"),
        "emd": float(np.mean([r.emd for r in ok])) if ok else float("nan"),
    }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "per_image.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "cc", "sim", "kld_judd", "kld_plain", "emd", "flags"])
        for r in records:
            flags = r.error or ("cc_undefined" if r.cc is None else "")
            writer.writerow([
                r.image_id,
                "" if r.cc is None else repr(r.cc),
                "" if r.sim is None else repr(r.sim),
                "" if r.kld_judd is None else repr(r.kld_judd),
                "" if r.kld_plain is None else repr(r.kld_plain),
                "" if r.emd is None else repr(r.emd),
                flags,
            ])
    aggregate = {
        "means": means,
        "counts": {
            "images": len(records),
            "cc_excluded": len(ok) - len(cc_vals),
            "failures": len(records) - len(ok),
        },
        "config": {"emd_resolution": args.emd_res, "distance": args.distance,
                   "normalize": args.normalize},
    }
    with open(out_dir / "aggregate.json", "w") as f:
        json.dump(aggregate, f, indent=2, sort_keys=True)
        f.write("\n")
    argv = ["eval", "--pred", args.pred, "--gt", args.gt, "--out", args.out,
            "--emd-res", str(args.emd_res), "--distance", args.distance, "--jobs", "1"]
    if args.normalize:
        argv.append("--normalize")
    manifest.write_manifest(
        out_dir / "run_manifest.json", "eval", argv, aggregate["config"],
        [pred_paths[n] for n in names] + [gt_paths[n] for n in names],
    )
    return 0


def cmd_tune(args) -> int:
    mapping = _load_mapping(args.mapping)
    pvec = preference.load_pvec(args.pvec)
    dataset = sorted(groundtruth.load_annotation_manifest(args.annotations, mapping),
                     key=lambda im: im.image_id)
    label_paths = {p.stem: p for p in _sorted_grids(args.labels)}
    labels = []
    for img in dataset:
        if img.image_id not in label_paths:
            raise _UsageError(f"no label grid for image {img.image_id!r} in {args.labels}")
        labels.append(gridio.read_grid(label_paths[img.image_id]))

    spec = tuning.SweepSpec(
        alpha_grid=_parse_grid_list(args.alpha_grid),
        ratio_grid=_parse_grid_list(args.ratio_grid),
        fixed_ratio=args.fixed_ratio,
        fixed_alpha=args.fixed_alpha,
    )
    rows = []
    best = {}
    if args.mode in ("alpha", "both"):
        res = tuning.sweep_alpha(dataset, labels, pvec, spec)
        rows += [("alpha", c) for c in res.candidates]
        best["alpha"] = res.best.as_tuple()
    if args.mode in ("ratio", "both"):
        res = tuning.sweep_ratio(dataset, labels, pvec, spec)
        rows += [("ratio", c) for c in res.candidates]
        best["ratio"] = res.best.as_tuple()

    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sweep", "alpha", "beta", "gamma", "mean_cc", "mean_sim",
                         "objective", "failed"])
        for sweep_name, c in rows:
            writer.writerow([sweep_name, repr(c.weights.alpha), repr(c.weights.beta),
                             repr(c.weights.gamma), repr(c.mean_cc), repr(c.mean_sim),
                             repr(c.objective), int(c.failed)])
    argv = (
        ["tune", "--annotations", args.annotations, "--pvec", args.pvec,
         "--labels", args.labels]
        + _opt("--mapping", args.mapping)
        + ["--mode", args.mode, "--alpha-grid", args.alpha_grid,
           "--ratio-grid", args.ratio_grid, "--fixed-alpha", str(args.fixed_alpha),
           "--fixed-ratio", str(args.fixed_ratio), "--out", args.out]
    )
    inputs = [args.annotations, args.pvec] + ([args.mapping] if args.mapping else [])
    manifest.write_manifest(f"{args.out}.manifest.json", "tune", argv,
                            {"best": best, "mode": args.mode}, inputs)
    print(json.dumps({"best": best}))
    return 0


def cmd_convert(args) -> int:
    g = gridio.read_grid(args.input)
    gridio.export_pgm(g, args.out)
    argv = ["convert", "--in", args.input, "--out", args.out]
    manifest.write_manifest(f"{args.out}.manifest.json", "convert", argv, {}, [args.input])
    return 0


# --- parser / dispatch ---------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="persal", description="Personalized saliency toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="build a preference vector")
    p.add_argument("--detections", help="detection manifest JSON")
    p.add_argument("--ratings", help="ratings JSON {names, ratings} (overrides detections)")
    p.add_argument("--mapping", help="category mapping JSON (default: bundled COCO-12)")
    p.add_argument("--window-days", type=int, default=preference.DEFAULT_WINDOW_DAYS)
    p.add_argument("--now", type=float, help="epoch seconds (default: current time)")
    p.add_argument("--out", help="output pvec JSON (default: stdout)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("gen-gt", help="generate personalized ground truth")
    p.add_argument("--annotations", required=True)
    p.add_argument("--pvec", required=True)
    p.add_argument("--mapping")
    p.add_argument("--weights", default="0.06,0.752,0.188")
    p.add_argument("--res", type=int, default=GRID_SIZE)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_gt)

    p = sub.add_parser("prior", help="build the dataset center prior")
    p.add_argument("--grids", required=True, help="directory of fixation .fgrd files")
    p.add_argument("--out", required=True, help="output .fgrd")
    p.set_defaults(func=cmd_prior)

    p = sub.add_parser("baseline", help="compute a baseline prediction")
    p.add_argument("--kind", choices=["center_prior", "detection"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--prior", help="prior .fgrd (center_prior kind)")
    p.add_argument("--detections", help="detection manifest (detection kind)")
    p.add_argument("--pvec")
    p.add_argument("--mapping")
    p.add_argument("--res", type=int, default=GRID_SIZE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--emd-res", type=int, default=metrics.DEFAULT_EMD_RESOLUTION)
    p.add_argument("--distance", choices=["euclidean", "manhattan"], default="euclidean")
    p.add_argument("--normalize", action="store_true",
                   help="divide each grid by its sum before scoring")
    p.add_argument("--jobs", type=int, help="worker processes (default: PERSAL_JOBS or CPU count)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune", help="sweep ground-truth blend weights")
    p.add_argument("--annotations", required=True)
    p.add_argument("--pvec", required=True)
    p.add_argument("--labels", required=True, help="directory of reference label .fgrd files")
    p.add_argument("--mapping")
    p.add_argument("--mode", choices=["alpha", "ratio", "both"], default="both")
    p.add_argument("--alpha-grid", default=",".join(map(str, tuning.DEFAULT_ALPHA_GRID)))
    p.add_argument("--ratio-grid", default=",".join(map(str, tuning.DEFAULT_RATIO_GRID)))
    p.add_argument("--fixed-alpha", type=float, default=0.06)
    p.add_argument("--fixed-ratio", type=float, default=0.8)
    p.add_argument("--out", required=True, help="sweep-curve CSV")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("convert", help="export an FGRD grid as 8-bit PGM")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (PersalIOError, OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (PersalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_from_manifest(path: str | Path) -> int:
    """Replay the invocation recorded in a run manifest."""
    doc = manifest.read_manifest(path)
    return main(doc["argv"])


if __name__ == "__main__":
    sys.exit(main())
