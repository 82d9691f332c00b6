"""The batched sweep against the candidate-at-a-time loop it replaced
(``sweep_oracle``): the same bits for every candidate, and the same failures."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persal import AnnotatedImage, DetectionSet, SaliencyGrid, generate_psal
from persal.errors import ConstantGridWarning
from persal.groundtruth import blend
from persal.preference import PreferenceVector
from persal.tuning import _score_candidates, final_weights
from sweep_oracle import psal_oracle, score_candidate_oracle
from synth import IMAGE_SIZE, fixation_map, normalized_grid, random_boxes, two_cat_mapping

MAPPING = two_cat_mapping()
SHAPES = [(38, 38), (16, 16), (5, 7), (1, 3), (1, 1)]
LABELS = ["random", "generated", "uniform", "unnormalized"]

# one image: (label shape, number of boxes, constant fixation map, label kind)
IMAGE = st.tuples(st.sampled_from(SHAPES), st.integers(0, 3), st.booleans(),
                  st.sampled_from(LABELS))
SPEC = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "images": st.lists(IMAGE, min_size=1, max_size=4),
    "pvec": st.tuples(*[st.sampled_from([0.0, 0.3, 1.0])] * 2),
    "grid": st.lists(st.tuples(st.sampled_from([0.0, 0.01, 0.06, 0.2, 1.0]),
                               st.sampled_from([0.0, 0.5, 0.8, 1.0])),
                     min_size=1, max_size=5),
})


def build(spec):
    """Images, labels, preference vector and candidate weights of a spec."""
    rng = np.random.default_rng(spec["seed"])
    pvec = PreferenceVector(MAPPING.super_names, np.array(spec["pvec"]))
    dataset, labels = [], []
    for i, ((h, w), n_boxes, constant, kind) in enumerate(spec["images"]):
        sal = SaliencyGrid(np.full((38, 38), 0.5)) if constant else fixation_map(rng)
        boxes = DetectionSet(IMAGE_SIZE, IMAGE_SIZE, random_boxes(rng, n_boxes), image_id=f"{i}")
        img = AnnotatedImage(sal=sal, boxes=boxes, mapping=MAPPING, image_id=f"{i}")
        if kind == "random":
            label = normalized_grid(rng, h, w)
        elif kind == "generated":
            label = psal_oracle(img, pvec, final_weights(0.06, 0.8), h, w)
        elif kind == "uniform":
            label = SaliencyGrid(np.full((h, w), 1.0 / (h * w)))
        else:
            label = SaliencyGrid(rng.random((h, w)) + 0.5)
        dataset.append(img)
        labels.append(label)
    return dataset, labels, pvec, [final_weights(a, f) for a, f in spec["grid"]]


def fields(c):
    return (c.weights, repr(c.mean_cc), repr(c.mean_sim), repr(c.objective), c.failed, c.error)


def make_spec(seed, images, grid, pvec=(1.0, 0.3)):
    return {"seed": seed, "images": images, "pvec": pvec, "grid": grid}


# no boxes on a constant fixation map: that image's blend is constant
CONSTANT_BLEND = make_spec(1, [((38, 38), 0, True, "random"), ((38, 38), 2, False, "random")],
                           [(0.06, 0.8), (0.2, 0.5)])
# mixed label shapes, one of them constant, so its CC is undefined
MIXED_SHAPES = make_spec(2, [((38, 38), 1, False, "generated"), ((16, 16), 3, False, "random"),
                             ((5, 7), 2, False, "random"), ((1, 1), 1, False, "uniform")],
                         [(0.01, 0.8), (0.06, 0.8), (0.2, 0.8)])
# one label that is not a distribution fails every candidate
UNNORMALIZED_LABEL = make_spec(3, [((38, 38), 2, False, "random"),
                                   ((38, 38), 1, False, "unnormalized")],
                               [(0.06, 0.0), (0.06, 0.5), (0.06, 1.0)])
ONE_CANDIDATE = make_spec(4, [((38, 38), 2, False, "generated")], [(0.06, 0.8)])


@pytest.mark.filterwarnings("ignore::persal.errors.ConstantGridWarning")
@settings(max_examples=60, deadline=None)
@given(SPEC)
@example(CONSTANT_BLEND)
@example(MIXED_SHAPES)
@example(UNNORMALIZED_LABEL)
@example(ONE_CANDIDATE)
def test_batched_sweep_matches_candidate_loop(spec):
    dataset, labels, pvec, weights = build(spec)
    got = _score_candidates(dataset, labels, pvec, weights)
    want = [score_candidate_oracle(dataset, labels, pvec, w) for w in weights]
    assert [fields(c) for c in got] == [fields(c) for c in want]
    for img, label in zip(dataset, labels):
        for w in weights:
            np.testing.assert_array_equal(
                generate_psal(img, pvec, w, label.height, label.width).values,
                psal_oracle(img, pvec, w, label.height, label.width).values)


class TestExamplesExercise:
    """What each explicit example above reaches, so none of them goes stale."""

    def test_constant_blend_warns_and_scores(self):
        dataset, labels, pvec, weights = build(CONSTANT_BLEND)
        with pytest.warns(ConstantGridWarning):
            out = _score_candidates(dataset, labels, pvec, weights)
        assert not any(c.failed for c in out)

    @pytest.mark.filterwarnings("ignore::persal.errors.ConstantGridWarning")  # the 1x1 image
    def test_mixed_shapes_score(self):
        dataset, labels, pvec, weights = build(MIXED_SHAPES)
        assert {lb.shape for lb in labels} == {(38, 38), (16, 16), (5, 7), (1, 1)}
        assert not any(c.failed for c in _score_candidates(dataset, labels, pvec, weights))

    def test_unnormalized_label_fails_every_candidate(self):
        dataset, labels, pvec, weights = build(UNNORMALIZED_LABEL)
        out = _score_candidates(dataset, labels, pvec, weights)
        assert all(c.failed and c.error.startswith("NotNormalizedError: q has pixel-sum")
                   for c in out)

    def test_one_candidate(self):
        dataset, labels, pvec, weights = build(ONE_CANDIDATE)
        [c] = _score_candidates(dataset, labels, pvec, weights)
        assert abs(c.objective - 2.0) <= 1e-9  # the label is that candidate's own blend


@pytest.mark.filterwarnings("ignore::persal.errors.ConstantGridWarning")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 200), st.booleans())
def test_blend_rows_are_distributions(seed, k, n, constant):
    rng = np.random.default_rng(seed)
    sal = np.zeros(n) if constant else rng.random(n)
    pm = rng.choice([0.0, 0.3, 1.0], n)
    weights = rng.dirichlet(np.ones(3), k)
    out = blend(sal, pm, weights)
    assert out.shape == (k, n)
    assert np.all(np.isfinite(out)) and np.all(out > 0)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)
