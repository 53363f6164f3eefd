"""Group-by aggregation layer."""

import pytest

from repro.aggregate import DistinctCountAggregator


def build(pairs, **kwargs):
    aggregator = DistinctCountAggregator(**kwargs)
    for group, item in pairs:
        aggregator.add(group, item)
    return aggregator


class TestAccumulation:
    def test_per_group_counts(self):
        aggregator = build(
            [("a", i) for i in range(100)] + [("b", i) for i in range(10)]
        )
        assert aggregator.estimate("a") == pytest.approx(100, rel=0.05, abs=2)
        assert aggregator.estimate("b") == pytest.approx(10, rel=0.05, abs=1)

    def test_unseen_group_zero(self):
        assert DistinctCountAggregator().estimate("nope") == 0.0

    def test_duplicates_free(self):
        aggregator = build([("g", "x")] * 100)
        assert aggregator.estimate("g") == pytest.approx(1.0)

    def test_group_key_types(self):
        aggregator = DistinctCountAggregator()
        aggregator.add(b"bytes", 1)
        aggregator.add("str", 1)
        aggregator.add(42, 1)
        assert len(aggregator) == 3
        assert 42 in aggregator

    def test_add_pairs_and_top(self):
        aggregator = DistinctCountAggregator()
        aggregator.add_pairs(("big" if i % 4 else "small", i) for i in range(4000))
        top = aggregator.top(1)
        assert top[0][0] == b"big"

    def test_estimates_keys(self):
        aggregator = build([("x", 1), ("y", 2)])
        assert set(aggregator.estimates()) == {b"x", b"y"}

    def test_decode_key(self):
        decode = DistinctCountAggregator.decode_key
        assert decode(b"DE") == "DE"
        assert decode("schlüssel".encode("utf-8")) == "schlüssel"
        # Integer keys (NUL-padded little-endian) fall back to hex, as do
        # keys that aren't valid UTF-8 at all.
        from repro.hashing import to_bytes

        assert decode(to_bytes(65)) == to_bytes(65).hex()
        assert decode(b"\xff\xfe") == "fffe"

    def test_decode_key_hex_fallback_round_trips(self):
        """Hex-fallback keys recover the canonical key via bytes.fromhex.

        The docstring example of :mod:`repro.aggregate` promises exactly
        this: whenever ``decode_key`` falls back to a hex digest, the
        digest is lossless — ``bytes.fromhex`` reproduces the stored key
        byte for byte, so display forms can be mapped back to groups.
        """
        from repro.hashing import to_bytes

        decode = DistinctCountAggregator.decode_key
        fallback_groups = [0, 1, -1, 65, 2**63, -(2**40), 3.25, b"\xff\xfe", b"\x00"]
        for group in fallback_groups:
            key = to_bytes(group)
            decoded = decode(key)
            assert decoded == key.hex(), f"{group!r} should hit the hex fallback"
            assert bytes.fromhex(decoded) == key
        # Printable strings take the UTF-8 branch instead and also round-trip.
        for group in ["DE", "schlüssel", "a b"]:
            key = to_bytes(group)
            assert decode(key) == group
            assert decode(key).encode("utf-8") == key
        # End to end: an aggregator keyed by an integer group exposes a
        # hex display key that maps back to the canonical stored key.
        aggregator = DistinctCountAggregator(p=4)
        aggregator.add(1, "alice")
        [key] = aggregator.groups()
        assert bytes.fromhex(decode(key)) == key
        assert aggregator.estimate(1) == aggregator.estimates()[key]


class TestMerge:
    def test_merge_equals_union(self):
        left = build([("g", i) for i in range(3000)], p=8)
        right = build([("g", i) for i in range(2000, 5000)], p=8)
        merged = left.merge(right)
        assert merged.estimate("g") == pytest.approx(5000, rel=0.12)

    def test_merge_disjoint_groups(self):
        left = build([("a", 1)])
        right = build([("b", 2)])
        merged = left.merge(right)
        assert len(merged) == 2

    def test_merge_leaves_operands_unchanged(self):
        left = build([("g", 1)])
        right = build([("g", 2)])
        left.merge(right)
        assert left.estimate("g") == pytest.approx(1.0)

    def test_config_mismatch(self):
        with pytest.raises(ValueError):
            DistinctCountAggregator(p=8).merge(DistinctCountAggregator(p=9))

    def test_type_error(self):
        with pytest.raises(TypeError):
            DistinctCountAggregator().merge_inplace(object())  # type: ignore[arg-type]


class TestSparseBehaviour:
    def test_small_groups_stay_small(self):
        sparse = build([(f"g{i}", i) for i in range(100)], sparse=True, p=10)
        dense = build([(f"g{i}", i) for i in range(100)], sparse=False, p=10)
        assert sparse.total_memory_bytes() < dense.total_memory_bytes() / 20

    def test_dense_mode_works(self):
        aggregator = build([("g", i) for i in range(500)], sparse=False)
        assert aggregator.estimate("g") == pytest.approx(500, rel=0.1)


class TestSerialization:
    @pytest.mark.parametrize("sparse", [True, False])
    def test_roundtrip(self, sparse):
        aggregator = build(
            [(f"group-{i % 7}", i) for i in range(3000)], sparse=sparse, p=8
        )
        restored = DistinctCountAggregator.from_bytes(aggregator.to_bytes())
        assert restored == aggregator
        assert restored.estimates() == aggregator.estimates()

    def test_empty_roundtrip(self):
        aggregator = DistinctCountAggregator()
        assert DistinctCountAggregator.from_bytes(aggregator.to_bytes()) == aggregator

    def test_repr(self):
        assert "groups=0" in repr(DistinctCountAggregator())


class TestTruncationRegression:
    """Every proper prefix of a valid blob must raise SerializationError.

    Regression: ``from_bytes`` validated inner-blob truncation but not key
    truncation — a blob cut mid-key silently yielded a short key — and it
    accepted trailing garbage after the last group.
    """

    @pytest.mark.parametrize("sparse", [True, False])
    def test_truncation_at_every_offset(self, sparse):
        from repro.storage.serialization import SerializationError

        aggregator = build(
            [(f"group-key-{i % 5}", i) for i in range(500)], sparse=sparse, p=4
        )
        data = aggregator.to_bytes()
        for cut in range(len(data)):
            with pytest.raises(SerializationError):
                DistinctCountAggregator.from_bytes(data[:cut])

    def test_trailing_garbage_rejected(self):
        from repro.storage.serialization import SerializationError

        data = build([("g", 1)], p=4).to_bytes()
        for tail in (b"\x00", b"\xff" * 3, data[4:]):
            with pytest.raises(SerializationError):
                DistinctCountAggregator.from_bytes(data + tail)

    def test_truncated_key_never_yields_short_key(self):
        """A cut inside a group key must not deserialize at all."""
        from repro.storage.serialization import SerializationError

        aggregator = build([("abcdefgh", 1)], p=4)
        data = aggregator.to_bytes()
        key_start = data.index(b"abcdefgh")
        for cut in range(key_start + 1, key_start + 8):
            with pytest.raises(SerializationError):
                DistinctCountAggregator.from_bytes(data[:cut])


class TestSparseDensifiedRoundTrip:
    """Mixed sparse/densified groups must survive serialization and merge."""

    def _mixed(self, heavy_items, seed_offset=0):
        # The heavy group crosses the sparse break-even (densifies);
        # the small groups stay in token mode.
        pairs = [("heavy", i + seed_offset) for i in range(heavy_items)]
        pairs += [(f"tiny-{g}", g * 1000 + i) for g in range(5) for i in range(3)]
        return build(pairs, sparse=True, p=8)

    def test_mixed_modes_exist(self):
        aggregator = self._mixed(3000)
        key = aggregator._group_key
        assert not aggregator._groups[key("heavy")].is_sparse
        assert aggregator._groups[key("tiny-0")].is_sparse

    def test_roundtrip_preserves_estimates_exactly(self):
        aggregator = self._mixed(3000)
        restored = DistinctCountAggregator.from_bytes(aggregator.to_bytes())
        assert restored == aggregator
        assert restored.estimates() == aggregator.estimates()
        assert restored.to_bytes() == aggregator.to_bytes()

    @pytest.mark.parametrize("left_heavy,right_heavy", [
        (3000, 10),    # densified group meets sparse group
        (10, 3000),    # sparse group meets densified group
        (3000, 3000),  # densified meets densified
        (10, 10),      # sparse meets sparse (may densify on union)
    ])
    def test_merge_across_modes_matches_union(self, left_heavy, right_heavy):
        left = self._mixed(left_heavy)
        right = self._mixed(right_heavy, seed_offset=2000)
        union_pairs = [("heavy", i) for i in range(left_heavy)]
        union_pairs += [("heavy", i + 2000) for i in range(right_heavy)]
        union_pairs += [
            (f"tiny-{g}", g * 1000 + i) for g in range(5) for i in range(3)
        ]
        reference = build(union_pairs, sparse=True, p=8)
        merged = left.merge(right)
        assert merged.estimates() == reference.estimates()

    def test_merge_of_deserialized_partials(self):
        """Shuffle-stage shape: serialize partials, deserialize, merge."""
        left = self._mixed(3000)
        right = self._mixed(10, seed_offset=5000)
        direct = left.merge(right)
        rehydrated = DistinctCountAggregator.from_bytes(left.to_bytes()).merge(
            DistinctCountAggregator.from_bytes(right.to_bytes())
        )
        assert rehydrated == direct
        assert rehydrated.estimates() == direct.estimates()


class TestWriteApi:
    """fold / merge_sketch / drop_group / sketches / segment."""

    def test_fold_matches_per_item_add(self):
        from repro.hashing.batch import hash_items

        items = [f"user-{i}" for i in range(300)]
        looped = DistinctCountAggregator(p=6, seed=3)
        for item in items:
            looped.add("g", item)
        folded = DistinctCountAggregator(p=6, seed=3)
        folded.fold("g", hash_items(items[:100], 3)).fold(b"g", hash_items(items[100:], 3))
        assert folded.to_bytes() == looped.to_bytes()

    @pytest.mark.parametrize("sparse", [True, False])
    def test_merge_sketch_adopts_own_representation(self, sparse):
        from repro.core.exaloglog import ExaLogLog
        from repro.core.sparse import SparseExaLogLog

        incoming = SparseExaLogLog(2, 20, 8).add_batch(range(40))
        before = incoming.to_bytes()
        aggregator = DistinctCountAggregator(sparse=sparse).merge_sketch("g", incoming)
        sketch = aggregator.sketches()[b"g"]
        assert isinstance(sketch, SparseExaLogLog if sparse else ExaLogLog)
        assert incoming.to_bytes() == before  # the argument is left unchanged
        expected = incoming if sparse else incoming.copy().densify()
        assert sketch.to_bytes() == expected.to_bytes()

    def test_merge_sketch_rejects_unmergeable(self):
        from repro.core.exaloglog import ExaLogLog

        aggregator = DistinctCountAggregator(p=8)
        with pytest.raises(ValueError, match="parameters differ"):
            aggregator.merge_sketch("g", ExaLogLog(2, 20, 10))
        with pytest.raises(TypeError):
            aggregator.merge_sketch("g", {"not": "a sketch"})
        assert len(aggregator) == 0

    def test_drop_group(self):
        aggregator = build([("a", 1), ("b", 2)])
        aggregator.drop_group("a").drop_group("never-seen")
        assert list(aggregator.groups()) == [b"b"]

    def test_sketches_is_a_live_read_only_view(self):
        aggregator = build([("a", 1)])
        view = aggregator.sketches()
        sketch = view[b"a"]
        aggregator.add("a", 2).add("b", 3)
        assert list(view) == [b"a", b"b"]
        assert view[b"a"] is sketch  # no copies: the group's own sketch
        assert sketch.estimate() == aggregator.estimate("a")
        with pytest.raises(TypeError):
            view[b"c"] = sketch

    def test_numpy_scalar_groups_address_array_built_groups(self):
        import numpy as np

        aggregator = DistinctCountAggregator(p=8)
        aggregator.add_batch(np.array([1, 2, 3]), np.array([10, 20, 30]))
        assert aggregator.estimate(np.int64(1)) == aggregator.estimate(1) > 0
        assert aggregator.group_sketch(np.int64(2)).to_bytes() == (
            aggregator.group_sketch(2).to_bytes()
        )
        assert np.int64(1) in aggregator
        aggregator.add_batch(list(np.array([1, 2])), [40, 50])
        assert len(aggregator) == 3

    def test_segment_scatters_by_first_appearance(self):
        import numpy as np

        from repro.aggregate import segment
        from repro.hashing.batch import hash_items

        groups = ["x", "y", "x", "z", "y", "x"]
        items = np.arange(6, dtype=np.int64)
        hashes = hash_items(items, 7)
        segments = segment(groups, items, 7)
        assert [key for key, _ in segments] == [b"x", b"y", b"z"]
        assert segments[0][1].tolist() == hashes[[0, 2, 5]].tolist()
        assert segment([], [], 0) == []
        with pytest.raises(ValueError, match="length mismatch"):
            segment(["x"], [1, 2], 0)


def test_only_the_aggregator_touches_its_group_map():
    """No module but aggregate.py reaches into an aggregator's privates.

    Group-map access (get-or-create, adoption on merge, drop) and the
    batch scatter live in one place; everything else goes through
    ``fold`` / ``merge_sketch`` / ``drop_group`` / ``sketches`` /
    ``segment`` and ``repro.hashing.to_bytes`` for canonical keys.
    """
    import ast
    import pathlib

    import repro

    private = {
        "_groups", "_new_sketch", "_segments", "_group_key", "_config",
        "_from_keyed_hashes",
    }
    root = pathlib.Path(repro.__file__).parent
    hits = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "aggregate.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                name = node.attr
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr", "setattr", "delattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in private
            ):
                name = node.args[1].value
            else:
                continue
            hits.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    assert not hits, "\n".join(hits)
