"""Command-line surface tying the library into reproducible pipelines.

Exit codes: 0 success, 1 validation error, 2 I/O or file-format error (this
includes a JSON input that lacks a required key or holds a value of the wrong
kind). Each ``cmd_*`` returns its config and input files, or None when it
wrote only to stdout, and ``main`` writes the run manifest;
``run_from_manifest`` replays it bit-for-bit.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

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
    return os.cpu_count() or 1


def _replay_argv(subparser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """The argv that re-runs ``args``: every option of the subcommand with its
    resolved value, defaults included, except ``--jobs``, which decides how
    fast a run is and never its bits. A value that begins with ``-`` is
    written as ``--flag=value``, since argparse would read it as a flag."""
    argv = [args.command]
    for action in subparser._actions:
        value = getattr(args, action.dest, None)
        if value is None or action.dest == "jobs":
            continue
        if action.nargs == 0:
            if value:
                argv.append(action.option_strings[0])
        else:
            flag, text = action.option_strings[0], str(value)
            argv += [f"{flag}={text}"] if text.startswith("-") else [flag, text]
    return argv


def _write_grids(out_dir: str | Path, images: list, make) -> None:
    """Write ``make(image)`` to ``<out_dir>/<image_id>.fgrd`` for every image
    (one without an id is named by its index in id order). All grids are made
    before the first write, so a failing image leaves no partial directory."""
    named = [(im.image_id or f"{i:06d}", make(im))
             for i, im in enumerate(sorted(images, key=lambda im: im.image_id))]
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for name, g in named:
        gridio.write_grid(g, Path(out_dir) / f"{name}.fgrd")


# --- subcommands --------------------------------------------------------------


def cmd_profile(args) -> tuple[dict, list] | None:
    if args.now is None:
        args.now = time.time()  # resolved here so the manifest records it
    if args.ratings:
        pvec = preference.load_ratings(args.ratings)
        inputs = [args.ratings]
    else:
        if not args.detections:
            raise _UsageError("profile needs --detections or --ratings")
        mapping = _load_mapping(args.mapping)
        history = preference.load_detection_manifest(args.detections)
        pvec = preference.extract_preferences(history, mapping, args.now, args.window_days)
        inputs = [args.detections, args.mapping]

    payload = json.dumps(preference.pvec_to_dict(pvec), indent=2) + "\n"
    if not args.out:
        sys.stdout.write(payload)
        return None
    Path(args.out).write_text(payload)
    return {"window_days": args.window_days, "now": args.now}, inputs


def cmd_gen_gt(args) -> tuple[dict, list]:
    mapping = _load_mapping(args.mapping)
    pvec = preference.load_pvec(args.pvec)
    weights = _parse_weights(args.weights)
    dataset, fixations = groundtruth.load_annotation_manifest(args.annotations, mapping)
    _write_grids(args.out, dataset,
                 lambda img: groundtruth.generate_psal(img, pvec, weights, args.res, args.res))
    return ({"weights": list(weights.as_tuple()), "res": args.res},
            [args.annotations, args.pvec, args.mapping, *fixations])


def cmd_prior(args) -> tuple[dict, list]:
    paths = _sorted_grids(args.grids)
    grids = [gridio.read_grid(p) for p in paths]
    gridio.write_grid(groundtruth.center_prior(grids), args.out)
    return {"n_maps": len(grids)}, paths


def cmd_baseline(args) -> tuple[dict, list]:
    cfg = baselines.BaselineConfig(
        kind=args.kind, seed=args.seed, confidence_threshold=args.threshold
    )
    if args.kind == "center_prior":
        if not args.prior:
            raise _UsageError("center_prior baseline needs --prior")
        out = baselines.center_prior_baseline(gridio.read_grid(args.prior))
        gridio.write_grid(out, args.out)
        return {"kind": args.kind, "seed": args.seed}, [args.prior]

    if not args.detections or not args.pvec:
        raise _UsageError("detection baseline needs --detections and --pvec")
    mapping = _load_mapping(args.mapping)
    pvec = preference.load_pvec(args.pvec)
    sets = preference.load_detection_manifest(args.detections)
    _write_grids(args.out, sets,
                 lambda ds: baselines.detection_baseline(ds, mapping, pvec, cfg, args.res, args.res))
    return ({"kind": args.kind, "seed": args.seed, "threshold": args.threshold, "res": args.res},
            [args.detections, args.pvec, args.mapping])


def _normalized(g: SaliencyGrid, image_id: str, role: str) -> SaliencyGrid:
    mass = float(g.values.sum())
    if mass <= 0:
        raise ZeroMassError(f"{image_id}: {role} has zero mass")
    return SaliencyGrid(g.values / mass)


def _eval_one(task) -> metrics.PairResult:
    """Score one pair. File errors propagate and fail the run; every other
    error becomes this image's failure record."""
    pred_path, gt_path, normalize, emd_res, distance = task
    image_id = Path(pred_path).stem
    p = gridio.read_grid(pred_path)
    q = gridio.read_grid(gt_path)
    try:
        if normalize:
            p = _normalized(p, image_id, "prediction")
            q = _normalized(q, image_id, "ground truth")
        return metrics.evaluate_pair(p, q, image_id, emd_resolution=emd_res, distance=distance)
    except Exception as exc:  # noqa: BLE001
        return metrics.PairResult(image_id=image_id, error=f"{type(exc).__name__}: {exc}")


def cmd_eval(args) -> tuple[dict, list]:
    pred_paths = {p.name: p for p in _sorted_grids(args.pred)}
    gt_paths = {p.name: p for p in _sorted_grids(args.gt)}
    names = sorted(set(pred_paths) & set(gt_paths))
    if not names:
        raise _UsageError("no matching grid filenames between --pred and --gt")

    # dimension check from the headers, before any output is written; the
    # payloads are read and checksummed once, in _eval_one
    for name in names:
        p_shape = gridio.read_shape(pred_paths[name])
        q_shape = gridio.read_shape(gt_paths[name])
        if p_shape != q_shape:
            raise DimMismatchError(f"{name}: pred {p_shape} vs gt {q_shape}")

    tasks = [
        (str(pred_paths[n]), str(gt_paths[n]), args.normalize, args.emd_res, args.distance)
        for n in names
    ]
    jobs = _resolve_jobs(args.jobs)
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # kept out of start-up
        from concurrent.futures.process import BrokenProcessPool
        records = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            try:
                for record in pool.map(_eval_one, tasks):
                    records.append(record)
            except BrokenProcessPool:  # a crash in a worker, e.g. in the transport kernel
                unfinished = ", ".join(Path(n).stem for n in names[len(records):][:jobs])
                raise PersalError(f"a worker process died while scoring {unfinished}") from None
            except BaseException:  # a file error ends the run: drop the queued pairs
                pool.shutdown(cancel_futures=True)
                raise
    else:
        records = [_eval_one(t) for t in tasks]

    report = metrics.summarize(records, {"emd_resolution": args.emd_res,
                                         "distance": args.distance,
                                         "normalize": args.normalize})

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "per_image.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "cc", "sim", "kld_judd", "kld_plain", "emd", "flags"])
        for r in records:
            scores = (r.cc, r.sim, r.kld_judd, r.kld_plain, r.emd)
            flags = r.error or ("cc_undefined" if r.cc is None else "")
            writer.writerow([r.image_id, *("" if v is None else repr(v) for v in scores), flags])
    aggregate = {
        "means": report.means,
        "counts": {
            "images": len(report.records),
            "cc_excluded": report.cc_excluded,
            "failures": report.failures,
        },
        "config": report.config,
    }
    with open(out_dir / "aggregate.json", "w") as f:
        json.dump(aggregate, f, indent=2, sort_keys=True)
        f.write("\n")
    return report.config, [pred_paths[n] for n in names] + [gt_paths[n] for n in names]


def cmd_tune(args) -> tuple[dict, list]:
    mapping = _load_mapping(args.mapping)
    pvec = preference.load_pvec(args.pvec)
    dataset, fixations = groundtruth.load_annotation_manifest(args.annotations, mapping)
    dataset.sort(key=lambda im: im.image_id)
    label_paths = {p.stem: p for p in _sorted_grids(args.labels)}
    for img in dataset:
        if img.image_id not in label_paths:
            raise _UsageError(f"no label grid for image {img.image_id!r} in {args.labels}")
    used_labels = [label_paths[img.image_id] for img in dataset]
    labels = [gridio.read_grid(p) for p in used_labels]

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
    print(json.dumps({"best": best}))
    return ({"best": best, "mode": args.mode},
            [args.annotations, args.pvec, args.mapping, *fixations, *used_labels])


def cmd_convert(args) -> tuple[dict, list]:
    gridio.export_pgm(gridio.read_grid(args.input), args.out)
    return {}, [args.input]


# --- parser / dispatch ---------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="persal", description="Personalized saliency toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser, for the manifest argv

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
    p.add_argument("--jobs", type=int, help="worker processes (default: CPU count)")
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
        result = args.func(args)
        if result is not None:
            config, inputs = result
            out = Path(args.out)
            manifest.write_manifest(
                out / "run_manifest.json" if out.is_dir() else f"{args.out}.manifest.json",
                args.command, _replay_argv(parser.commands[args.command], args), config,
                [p for p in inputs if p is not None],  # None: an optional input left unset
            )
        return 0
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
