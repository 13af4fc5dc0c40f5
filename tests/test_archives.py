"""The leader and novelty archives against list-based references.

``ListLeaderArchive`` is the per-member implementation of the leader archive
with the array dominance masks, kept here as the reference: on tie-heavy and
duplicate fitness, and on a wide archive, ``LeaderArchive`` must accept the
same candidates, hold the same members in the same order and pick the same
leaders from the same random streams.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failcover.algorithms.nsga2 import (
    NoveltyArchive,
    archive_insert,
    crowding_distance,
    novelty_distance,
)
from failcover.algorithms.omopso import LeaderArchive
from failcover.samplers import make_rng


def mask_dominates(a, b) -> bool:
    """Pareto dominance as array masks, the form the float scans replaced."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool((a <= b).all() and (a < b).any())


class ListLeaderArchive:
    """Reference: members as Python lists, dominance tested one member at a time."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.positions: list[np.ndarray] = []
        self.fitness: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.positions)

    def add(self, position: np.ndarray, fitness: np.ndarray) -> bool:
        if any(mask_dominates(f, fitness) for f in self.fitness):
            return False
        keep = [i for i, f in enumerate(self.fitness) if not mask_dominates(fitness, f)]
        if len(keep) < len(self.fitness):
            self.positions = [self.positions[i] for i in keep]
            self.fitness = [self.fitness[i] for i in keep]
        self.positions.append(np.array(position, dtype=float))
        self.fitness.append(np.array(fitness, dtype=float))
        while len(self.positions) > self.capacity:
            crowd = crowding_distance(np.array(self.fitness))
            evict = int(np.argmin(crowd))
            self.positions.pop(evict)
            self.fitness.pop(evict)
        return True

    def select_leader(self, rng: np.random.Generator) -> np.ndarray:
        if len(self.positions) == 1:
            return self.positions[0]
        i, j = (int(v) for v in rng.integers(len(self.positions), size=2))
        crowd = crowding_distance(np.array(self.fitness))
        if crowd[i] == crowd[j]:
            return self.positions[i]
        return self.positions[i] if crowd[i] > crowd[j] else self.positions[j]


def grid_fitness(m: int):
    """Fitness on a 0..3 integer grid: many ties, duplicates and dominated points."""
    return st.lists(st.integers(0, 3), min_size=m, max_size=m).map(
        lambda v: np.array(v, dtype=float)
    )


@st.composite
def archive_scripts(draw):
    m = draw(st.integers(2, 4))
    capacity = draw(st.integers(1, 8))
    fits = draw(st.lists(grid_fitness(m), min_size=1, max_size=40))
    # Each insert passes its fitness as an array or as a list of floats.
    as_list = draw(st.lists(st.booleans(), min_size=len(fits), max_size=len(fits)))
    seed = draw(st.integers(0, 2**31 - 1))
    return capacity, [f.tolist() if lst else f for f, lst in zip(fits, as_list)], seed


def assert_archive_matches_reference(capacity, fits, seed, picks=3):
    """Replay one insert script on both archives and compare them after every step."""
    archive, reference = LeaderArchive(capacity), ListLeaderArchive(capacity)
    rng_a, rng_b = make_rng(seed), make_rng(seed)
    accepted = 0
    for step, f in enumerate(fits):
        # The position records the insertion step, so member order is checked too.
        position = np.array([float(step), -float(step)])
        verdict = archive.add(position, f)
        assert verdict == reference.add(position, f)
        accepted += verdict
        assert len(archive) == len(reference)
        got_pos, want_pos = np.array(archive.positions), np.array(reference.positions)
        got_fit, want_fit = np.array(archive.fitness), np.array(reference.fitness)
        assert got_pos.tobytes() == want_pos.tobytes() and got_pos.shape == want_pos.shape
        assert got_fit.tobytes() == want_fit.tobytes() and got_fit.shape == want_fit.shape
        for _ in range(picks):
            leader = archive.select_leader(rng_a)
            assert all(type(v) is float for v in leader)
            assert np.array(leader).tobytes() == reference.select_leader(rng_b).tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    return archive, accepted


@given(archive_scripts())
@settings(max_examples=300, deadline=None)
def test_leader_archive_matches_list_reference(script):
    assert_archive_matches_reference(*script)


def test_wide_leader_archive_matches_list_reference():
    # bigpop-3d's archive of 200 under 360 inserts. Most candidates lie on a
    # 1/16 grid of the plane f1 + f2 + f3 = 1, where no point dominates another
    # and duplicates are kept, so the archive fills and then evicts by crowding;
    # one in ten lies above the plane and is dominated.
    rng = make_rng(20)
    fits = []
    for k in range(360):
        w = np.floor(rng.dirichlet(np.ones(3)) * 16.0) / 16.0
        w[2] = 1.0 - w[0] - w[1]
        fits.append((w + (0.25 if k % 5 == 4 else 0.0)).tolist() if k % 2 else w)
    archive, accepted = assert_archive_matches_reference(200, fits, seed=21, picks=1)
    assert len(archive) == 200 and accepted > 250


def test_leader_archive_keeps_the_mask_verdicts_on_signed_zeros_and_infinities():
    archive, reference = LeaderArchive(4), ListLeaderArchive(4)
    script = [[0.0, 1.0], [-0.0, 1.0], [math.inf, -math.inf], [0.0, math.inf],
              [-math.inf, math.inf], [-0.0, -0.0], [0.0, 0.0], [-math.inf, -math.inf]]
    for step, f in enumerate(script):
        assert archive.add([float(step)], f) == reference.add([float(step)], f)
        assert archive.fitness == [g.tolist() for g in reference.fitness]
        assert archive.positions == [p.tolist() for p in reference.positions]


@pytest.mark.parametrize("capacity", [0, -1, float("nan"), 2.5, True, np.float64(3.0), "4"])
def test_leader_archive_rejects_a_capacity_that_is_not_a_positive_integer(capacity):
    with pytest.raises(ValueError, match="archive capacity"):
        LeaderArchive(capacity)


@pytest.mark.parametrize("capacity", [1, 3, np.int64(2)])
def test_leader_archive_holds_at_most_its_capacity(capacity):
    archive = LeaderArchive(capacity)
    for k in range(10):
        assert archive.add([float(k)], [float(k), float(-k)])  # mutually non-dominated
        assert len(archive) == min(k + 1, capacity)


def test_leader_archive_refuses_a_candidate_of_another_length():
    archive = LeaderArchive(3)
    archive.add([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="objectives"):
        archive.add([0.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="variables"):
        archive.add([0.0], [2.0, 1.0])
    assert archive.fitness == [[1.0, 2.0]]


def test_leader_archive_empty_select_raises():
    with pytest.raises(ValueError, match="empty archive"):
        LeaderArchive(capacity=2).select_leader(make_rng(0))


@pytest.mark.parametrize("n_members", [0, 1, 57])
@pytest.mark.parametrize("dims", [2, 3, 20])
def test_novelty_distances_equal_per_row_distance_exactly(n_members, dims):
    rng = make_rng(100 + n_members + dims)
    archive = NoveltyArchive(threshold=1e-12)
    for _ in range(n_members):
        assert archive_insert(archive, rng.uniform(-1, 1, dims))
    X = rng.uniform(-1, 1, size=(31, dims))
    batch = novelty_distance(archive, X)
    assert batch.shape == (31,)
    assert novelty_distance(archive, X[:0]).shape == (0,)
    assert novelty_distance(archive, X[:1]).tobytes() == batch[:1].tobytes()
    for k in range(len(X)):
        one = novelty_distance(archive, X[k])
        assert type(one) is float and one == batch[k]
        if n_members:
            M = np.array(archive.members)
            assert batch[k] == np.min(np.linalg.norm(M - X[k], axis=1))
        else:
            assert batch[k] == np.inf


def test_novelty_matrix_follows_inserts():
    archive = NoveltyArchive(threshold=0.5)
    archive_insert(archive, np.array([0.0, 0.0]))
    assert novelty_distance(archive, np.array([3.0, 0.0])) == 3.0
    archive_insert(archive, np.array([2.0, 0.0]))
    assert novelty_distance(archive, np.array([3.0, 0.0])) == 1.0
