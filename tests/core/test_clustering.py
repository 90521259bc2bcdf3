"""Tests for Procedure 4 (relative scores) and the final cluster assignment."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Comparison,
    ComparisonEngine,
    PairwiseOracle,
    ScoreTable,
    bind_comparator,
    cluster_algorithms,
    final_assignment,
    get_cluster,
    relative_scores,
)
from repro.core.comparison import BootstrapComparator, MeanComparator

_OUTCOMES = {1: Comparison.BETTER, 0: Comparison.EQUIVALENT, -1: Comparison.WORSE}


class _CodeComparator:
    """Deterministic array comparator reading a fixed outcome-code matrix.

    Algorithm ``i`` is measured as ``[i]``; ``codes[i, j]`` is its outcome
    against ``j`` (1 better, 0 equivalent, -1 worse).
    """

    stochastic = False

    def __init__(self, codes: np.ndarray):
        self.codes = codes

    def compare(self, a, b) -> Comparison:
        return _OUTCOMES[int(self.codes[int(a[0]), int(b[0])])]

    def outcome_matrix(self, arrays):
        return [[self.compare(a, b) for b in arrays] for a in arrays]


def _antisymmetric_codes(rng: np.random.Generator, p: int) -> np.ndarray:
    upper = np.triu(rng.integers(-1, 2, size=(p, p)), 1)
    return upper - upper.T


class TestRelativeScoresDeterministicOracle:
    """With a deterministic, consistent oracle the scores are all 1.0."""

    def test_figure2_oracle_scores(self, figure2_oracle):
        table = relative_scores(["DD", "AA", "DA", "AD"], figure2_oracle, repetitions=20, rng=0)
        assert table.score("AD", 1) == pytest.approx(1.0)
        assert table.score("AA", 2) == pytest.approx(1.0)
        assert table.score("DD", 3) == pytest.approx(1.0)
        assert table.score("DA", 3) == pytest.approx(1.0)

    def test_scores_per_algorithm_sum_to_one(self, figure2_oracle):
        table = relative_scores(["DD", "AA", "DA", "AD"], figure2_oracle, repetitions=13, rng=1)
        for label in ["DD", "AA", "DA", "AD"]:
            assert table.total_score(label) == pytest.approx(1.0)

    def test_shuffle_disabled_is_deterministic(self, figure2_oracle):
        a = relative_scores(["DD", "AA", "DA", "AD"], figure2_oracle, repetitions=5, shuffle=False)
        b = relative_scores(["DD", "AA", "DA", "AD"], figure2_oracle, repetitions=5, shuffle=False)
        assert a == b

    def test_invalid_arguments(self, figure2_oracle):
        with pytest.raises(ValueError):
            relative_scores([], figure2_oracle)
        with pytest.raises(ValueError):
            relative_scores(["a", "a"], figure2_oracle)
        with pytest.raises(ValueError):
            relative_scores(["a", "b"], figure2_oracle, repetitions=0)


class TestRelativeScoresNoisyComparator:
    """Reproduce the flavour of the Section III example: a borderline pair splits its score."""

    @pytest.fixture
    def flaky_compare(self):
        """AD vs AA is equivalent roughly one out of three comparisons; the rest is fixed."""
        rng = np.random.default_rng(99)
        base = PairwiseOracle(
            {
                ("AD", "DD"): Comparison.BETTER,
                ("AD", "DA"): Comparison.BETTER,
                ("AA", "DD"): Comparison.BETTER,
                ("AA", "DA"): Comparison.BETTER,
                ("DD", "DA"): Comparison.EQUIVALENT,
            }
        )

        def compare(a, b):
            pair = {a, b}
            if pair == {"AD", "AA"}:
                outcome = (
                    Comparison.EQUIVALENT if rng.random() < 1.0 / 3.0 else Comparison.BETTER
                )
                return outcome if a == "AD" else outcome.flipped()
            return base(a, b)

        return compare

    def test_borderline_algorithm_splits_between_adjacent_ranks(self, flaky_compare):
        table = relative_scores(
            ["DD", "AA", "DA", "AD"], flaky_compare, repetitions=300, rng=7
        )
        # AD is always in the best cluster.
        assert table.score("AD", 1) == pytest.approx(1.0, abs=0.01)
        # AA lands in rank 1 roughly a third of the time and in rank 2 otherwise.
        assert 0.15 <= table.score("AA", 1) <= 0.5
        assert 0.5 <= table.score("AA", 2) <= 0.85
        assert table.score("AA", 1) + table.score("AA", 2) == pytest.approx(1.0)

    def test_final_assignment_matches_paper_style_result(self, flaky_compare):
        table = relative_scores(
            ["DD", "AA", "DA", "AD"], flaky_compare, repetitions=300, rng=7
        )
        final = final_assignment(table)
        assert final.cluster_of("AD") == 1
        assert final.cluster_of("AA") == 2
        assert final.cluster_of("DD") == final.cluster_of("DA") == 3
        # Cumulated scores: every algorithm's final score approaches 1.0 except
        # possibly the borderline ones that also appear in better ranks.
        assert final.score_of("AA") == pytest.approx(1.0, abs=0.01)


class TestGetCluster:
    def test_matches_score_table_entries(self, figure2_oracle):
        entries = get_cluster(["DD", "AA", "DA", "AD"], figure2_oracle, rank=3, repetitions=10, rng=2)
        assert {e.label for e in entries} == {"DD", "DA"}
        assert all(e.score == pytest.approx(1.0) for e in entries)

    def test_absent_rank_returns_empty(self, figure2_oracle):
        entries = get_cluster(["DD", "AA", "DA", "AD"], figure2_oracle, rank=4, repetitions=10, rng=2)
        assert entries == []


class TestFinalAssignmentFromPaperTable:
    def test_section3_worked_example(self):
        """Final clustering C1:{AD}, C2:{AA}, C3:{DD, DA(0.9)} from the published score table."""
        table = ScoreTable(
            {
                1: {"AD": 1.0, "AA": 0.3},
                2: {"AA": 0.7, "DD": 0.3, "DA": 0.3},
                3: {"DD": 0.7, "DA": 0.6},
                4: {"DA": 0.1},
            }
        )
        final = final_assignment(table)
        assert final.n_clusters == 3
        assert final.members(1) == ["AD"]
        assert final.members(2) == ["AA"]
        assert set(final.members(3)) == {"DD", "DA"}
        assert final.score_of("AD") == pytest.approx(1.0)
        assert final.score_of("AA") == pytest.approx(1.0)
        assert final.score_of("DD") == pytest.approx(1.0)
        assert final.score_of("DA") == pytest.approx(0.9)

    def test_empty_rank_disappears_from_final_clustering(self):
        table = ScoreTable({1: {"a": 1.0}, 2: {"b": 0.2}, 3: {"b": 0.8}})
        final = final_assignment(table)
        # b's maximum is at rank 3, rank 2 ends up empty -> renumbered to cluster 2.
        assert final.n_clusters == 2
        assert final.cluster_of("b") == 2
        assert final.score_of("b") == pytest.approx(1.0)


class TestClusterAlgorithmsEndToEnd:
    def test_with_measurements_and_bootstrap_comparator(self, well_separated_measurements):
        compare = bind_comparator(BootstrapComparator(seed=0), well_separated_measurements)
        table, final = cluster_algorithms(
            list(well_separated_measurements), compare, repetitions=30, rng=0
        )
        assert final.n_clusters == 4
        assert final.cluster_of("fast") == 1
        assert final.cluster_of("slowest") == 4

    def test_equivalent_twins_share_a_cluster(self, overlapping_measurements):
        compare = bind_comparator(BootstrapComparator(seed=0), overlapping_measurements)
        _, final = cluster_algorithms(
            list(overlapping_measurements), compare, repetitions=30, rng=0
        )
        assert final.cluster_of("fast") == 1
        assert final.cluster_of("twin_a") == final.cluster_of("twin_b") == 2

    def test_partition_property(self, well_separated_measurements):
        compare = bind_comparator(MeanComparator(), well_separated_measurements)
        table, final = cluster_algorithms(
            list(well_separated_measurements), compare, repetitions=10, rng=1
        )
        assert sorted(final.labels, key=str) == sorted(well_separated_measurements, key=str)


class TestClusteringProperties:
    @given(
        n=st.integers(min_value=1, max_value=6),
        n_classes=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_consistent_oracle_partition_and_scores(self, n, n_classes, seed):
        """For any consistent weak order, the final clustering is a partition whose order
        respects the class order, and every relative score lies in (0, 1]."""
        rng = np.random.default_rng(seed)
        labels = [f"alg{i}" for i in range(n)]
        classes = {label: int(rng.integers(0, n_classes)) for label in labels}

        def compare(a, b):
            if classes[a] == classes[b]:
                return Comparison.EQUIVALENT
            return Comparison.BETTER if classes[a] < classes[b] else Comparison.WORSE

        table, final = cluster_algorithms(labels, compare, repetitions=15, rng=seed)
        # Partition of the label set.
        assert sorted(final.labels, key=str) == sorted(labels, key=str)
        # Scores bounded.
        for rank in table.ranks():
            for _, score in table[rank].items():
                assert 0.0 < score <= 1.0
        # Cluster order respects the class order.
        for a in labels:
            for b in labels:
                if classes[a] < classes[b]:
                    assert final.cluster_of(a) < final.cluster_of(b)
                elif classes[a] == classes[b]:
                    assert final.cluster_of(a) == final.cluster_of(b)


class TestLockstepProcedure4:
    """A precomputed engine runs the Rep sorts in lock step; the result is the loop's."""

    @given(
        p=st.integers(min_value=1, max_value=9),
        repetitions=st.integers(min_value=1, max_value=25),
        shuffle=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lockstep_equals_sequential_loop(self, p, repetitions, shuffle, seed, data):
        rng = np.random.default_rng(seed)
        codes = _antisymmetric_codes(rng, p)
        labels = [f"alg{i}" for i in range(p)]
        arrays = {label: [float(i)] for i, label in enumerate(labels)}
        engine = ComparisonEngine(arrays, _CodeComparator(codes))
        assert engine.outcome_codes is not None
        oracle = PairwiseOracle(
            {
                (a, b): _OUTCOMES[int(codes[i, j])]
                for i, a in enumerate(labels)
                for j, b in enumerate(labels)
                if i < j
            }
        )
        # Any non-empty subset of the engine's labels, in any order.
        subset = data.draw(st.permutations(labels))[: data.draw(st.integers(1, p))]
        lockstep = relative_scores(subset, engine, repetitions=repetitions, rng=seed, shuffle=shuffle)
        sequential = relative_scores(subset, oracle, repetitions=repetitions, rng=seed, shuffle=shuffle)
        assert lockstep == sequential
        assert lockstep.labels == sequential.labels
        for rank in sequential:
            assert list(lockstep[rank]) == list(sequential[rank])
        k = len(subset)
        assert engine.lookups == oracle.calls == repetitions * (k * (k - 1) // 2)

    def test_generator_left_in_the_same_state(self):
        codes = _antisymmetric_codes(np.random.default_rng(3), 6)
        labels = list(range(6))
        engine = ComparisonEngine({i: [float(i)] for i in labels}, _CodeComparator(codes))
        oracle = PairwiseOracle(
            {(a, b): _OUTCOMES[int(codes[a, b])] for a in labels for b in labels if a < b}
        )
        g1, g2 = np.random.default_rng(11), np.random.default_rng(11)
        assert relative_scores(labels, engine, 17, rng=g1) == relative_scores(labels, oracle, 17, rng=g2)
        assert g1.random() == g2.random()

    def test_lazy_engine_runs_the_sequential_loop(self):
        codes = _antisymmetric_codes(np.random.default_rng(5), 5)
        arrays = {i: [float(i)] for i in range(5)}
        eager = ComparisonEngine(arrays, _CodeComparator(codes))
        lazy = ComparisonEngine(arrays, _CodeComparator(codes), precompute=False)
        assert lazy.outcome_codes is None
        expected = relative_scores(list(arrays), lazy, 9, rng=2)
        assert relative_scores(list(arrays), eager, 9, rng=2) == expected
        assert eager.lookups == lazy.lookups == 9 * 10

    def test_unknown_label_still_raises(self):
        codes = np.array([[0, 1], [-1, 0]])
        engine = ComparisonEngine({"a": [0.0], "b": [1.0]}, _CodeComparator(codes))
        with pytest.raises(KeyError, match="zz"):
            relative_scores(["a", "zz"], engine, repetitions=2, rng=0)
