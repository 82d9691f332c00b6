"""Grid sweep for the ground-truth blend weights.

Two one-dimensional sweeps, scored by mean CC + mean SIM against reference
labels: first the fixation weight alpha with the beta:gamma ratio fixed, then
the beta fraction with alpha fixed. Ties break toward smaller alpha, then
larger beta.

Each sweep reads every image once: the blend inputs depend on the image
alone, so all candidates of the sweep are blended as one (K, h*w) array and
scored against the label by ``metrics``' own CC and SIM row kernels, which
give the same bits as ``generate_psal``, ``cc`` and ``sim`` on one candidate
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotNormalizedError, OutOfRangeError
from .grid import SaliencyGrid
from .groundtruth import AnnotatedImage, GtWeights, blend, blend_inputs
from .metrics import _require_normalized, cc_rows, sim_rows
from .preference import PreferenceVector

# Not used by the sweep: perfbench/tracer.py wraps these names in this module,
# so they stay importable from here until the tracer stops wrapping them.
from .groundtruth import generate_psal  # noqa: F401
from .metrics import cc, sim  # noqa: F401

DEFAULT_ALPHA_GRID = (0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.14, 0.20)
DEFAULT_RATIO_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class SweepSpec:
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    ratio_grid: tuple[float, ...] = DEFAULT_RATIO_GRID  # beta fractions of (1 - alpha)
    fixed_ratio: float = 0.8
    fixed_alpha: float = 0.06

    def __post_init__(self):
        if not self.alpha_grid or not self.ratio_grid:
            raise ValueError("sweep grids must be non-empty")
        if min(self.alpha_grid) < 0 or min(self.ratio_grid) < 0:
            raise ValueError("sweep grid values must be nonnegative")


@dataclass(frozen=True)
class Candidate:
    weights: GtWeights
    mean_cc: float
    mean_sim: float
    objective: float
    failed: bool = False
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    candidates: tuple[Candidate, ...]
    best: GtWeights


def final_weights(alpha: float, beta_fraction: float) -> GtWeights:
    """Split the non-alpha mass by the beta fraction: beta = (1-a)*f, gamma = rest.

    Computed in exact rational arithmetic on the decimal reading of the inputs
    with a single rounding at the end, so decimal-clean inputs give
    decimal-clean weights (0.06, 0.8 -> 0.06, 0.752, 0.188 exactly).
    """
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRangeError(f"alpha {alpha} outside [0, 1]")
    if not 0.0 <= beta_fraction <= 1.0:
        raise OutOfRangeError(f"beta_fraction {beta_fraction} outside [0, 1]")
    a = Fraction(str(alpha))
    f = Fraction(str(beta_fraction))
    beta = (1 - a) * f
    gamma = (1 - a) * (1 - f)
    return GtWeights(float(a), float(beta), float(gamma))


def _score_candidates(
    dataset: list[AnnotatedImage],
    labels: list[SaliencyGrid],
    pvec: PreferenceVector,
    weights: list[GtWeights],
) -> list[Candidate]:
    """Mean CC and SIM of each candidate over the images where its CC is
    defined, in image order. An error on an image fails every candidate it
    reaches (all of them, if the image's inputs fail) with the error's text."""
    k, n = len(weights), len(dataset)
    triples = np.array([w.as_tuple() for w in weights])
    ccs, sims = np.zeros((k, n)), np.zeros((k, n))
    defined = np.zeros((k, n), dtype=bool)
    errors: list[str | None] = [None] * k
    for i, (img, label) in enumerate(zip(dataset, labels)):
        live = np.flatnonzero([e is None for e in errors])
        if not live.size:
            break
        failures: dict[int, Exception] = {}  # row of g -> why that candidate failed
        try:
            sal, pm = blend_inputs(img, pvec, label.height, label.width)
            g = blend(sal, pm, triples[live])
            q = label.values.ravel()
            # CC is undefined, and the image left out, where either grid is
            # constant; blend rows are distributions, so SIM checks only q
            c = cc_rows(g, q)
            ok = ~np.isnan(c)
            if ok.any():
                _require_normalized(q, "q")
            rows = live[ok]
            ccs[rows, i] = c[ok]
            sims[rows, i] = sim_rows(g[ok], q)
            defined[rows, i] = True
        except NotNormalizedError as exc:  # fails the candidates that reached SIM
            failures = dict.fromkeys(np.flatnonzero(ok), exc)
        except Exception as exc:  # noqa: BLE001 - an image error fails candidates, not the sweep
            failures = dict.fromkeys(range(live.size), exc)
        for r, exc in failures.items():
            errors[live[r]] = f"{type(exc).__name__}: {exc}"

    candidates = []
    for j, w in enumerate(weights):
        if errors[j] is None and not defined[j].any():
            errors[j] = "ZeroVarianceError: no image produced a defined CC score"
        if errors[j] is not None:
            candidates.append(Candidate(w, float("nan"), float("nan"), float("-inf"),
                                        failed=True, error=errors[j]))
            continue
        mean_cc = float(np.mean(ccs[j, defined[j]]))
        mean_sim = float(np.mean(sims[j, defined[j]]))
        candidates.append(Candidate(w, mean_cc, mean_sim, mean_cc + mean_sim))
    return candidates


def _pick_best(candidates: list[Candidate]) -> GtWeights:
    # ties: smaller alpha wins, then larger beta
    best = max(candidates, key=lambda c: (c.objective, -c.weights.alpha, c.weights.beta))
    if best.failed:
        raise RuntimeError("every sweep candidate failed")
    return best.weights


def sweep_alpha(
    dataset: list[AnnotatedImage],
    labels: list[SaliencyGrid],
    pvec: PreferenceVector,
    spec: SweepSpec,
) -> SweepResult:
    """Vary alpha over the grid with the beta:gamma split fixed."""
    candidates = _score_candidates(
        dataset, labels, pvec, [final_weights(a, spec.fixed_ratio) for a in spec.alpha_grid])
    return SweepResult(tuple(candidates), _pick_best(candidates))


def sweep_ratio(
    dataset: list[AnnotatedImage],
    labels: list[SaliencyGrid],
    pvec: PreferenceVector,
    spec: SweepSpec,
) -> SweepResult:
    """Vary the beta fraction over the grid with alpha fixed."""
    candidates = _score_candidates(
        dataset, labels, pvec, [final_weights(spec.fixed_alpha, f) for f in spec.ratio_grid])
    return SweepResult(tuple(candidates), _pick_best(candidates))
