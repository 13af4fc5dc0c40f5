"""The array-backed leader and novelty archives against list-based references.

``ListLeaderArchive`` is the per-member implementation the array version
replaced, kept here as the reference: on tie-heavy and duplicate fitness the
two must accept the same candidates, hold the same members in the same order
and pick the same leaders from the same random streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failcover.algorithms import (
    LeaderArchive,
    NoveltyArchive,
    archive_insert,
    crowding_distance,
    novelty_distance,
    novelty_distances,
)
from failcover.core import dominates
from failcover.samplers import make_rng


class ListLeaderArchive:
    """Reference: members as Python lists, dominance tested one member at a time."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.positions: list[np.ndarray] = []
        self.fitness: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.positions)

    def add(self, position: np.ndarray, fitness: np.ndarray) -> bool:
        if any(dominates(f, fitness) for f in self.fitness):
            return False
        keep = [i for i, f in enumerate(self.fitness) if not dominates(fitness, f)]
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
    m = draw(st.integers(2, 3))
    capacity = draw(st.integers(1, 6))
    fits = draw(st.lists(grid_fitness(m), min_size=1, max_size=40))
    seed = draw(st.integers(0, 2**31 - 1))
    return capacity, fits, seed


@given(archive_scripts())
@settings(max_examples=300, deadline=None)
def test_leader_archive_matches_list_reference(script):
    capacity, fits, seed = script
    array_archive, list_archive = LeaderArchive(capacity), ListLeaderArchive(capacity)
    rng_a, rng_b = make_rng(seed), make_rng(seed)
    for step, f in enumerate(fits):
        # The position records the insertion step, so member order is checked too.
        position = np.array([float(step), -float(step)])
        assert array_archive.add(position, f) == list_archive.add(position, f)
        assert len(array_archive) == len(list_archive)
        np.testing.assert_array_equal(array_archive.positions, np.array(list_archive.positions))
        np.testing.assert_array_equal(array_archive.fitness, np.array(list_archive.fitness))
        for _ in range(3):
            np.testing.assert_array_equal(
                array_archive.select_leader(rng_a), list_archive.select_leader(rng_b)
            )
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


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
    batch = novelty_distances(archive, X)
    assert batch.shape == (31,)
    for k in range(len(X)):
        assert batch[k] == novelty_distance(archive, X[k])
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
