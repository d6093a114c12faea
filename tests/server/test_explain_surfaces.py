"""One explain, and one hint resolution, on every surface.

The same find — filter, sort and limit — is explained on a stand-alone
collection, on the sharded cluster's routed collection, and on that cluster
served over a socket.  ``cursor.explain()`` must be the owning collection's
``explain(cursor.spec)`` on each, the three documents must share one key
set, and a key-pattern hint must reach the planner (or fail with a
structured error) the same way everywhere.
"""

from __future__ import annotations

import pytest

from repro.documentstore import PLANNER_KEYS, TOP_LEVEL_KEYS, FindSpec, OperationFailure

FILTER = {"store": 2}
SORT = [("amount", -1), ("order_id", 1)]


@pytest.fixture()
def surfaces(cluster, remote, standalone):
    """Stand-alone, sharded and served handles on the same indexed data."""
    standalone.create_index("store")
    remote.create_index("store")  # through the server, onto every shard
    return {
        "standalone": standalone,
        "sharded": cluster.get_database("shop")["orders"],
        "served": remote,
    }


def winning_index_names(explain):
    """The index each plan of *explain* chose (per shard when sharded)."""
    if explain["shards"]:
        return {
            entry["queryPlanner"]["winningPlan"].get("indexName")
            for entry in explain["shards"].values()
        }
    return {explain["queryPlanner"]["winningPlan"].get("indexName")}


class TestCursorExplain:
    @pytest.mark.parametrize("surface", ["standalone", "sharded", "served"])
    def test_cursor_explain_is_collection_explain(self, surfaces, surface):
        collection = surfaces[surface]
        cursor = collection.find(FILTER, sort=SORT, limit=5)
        explain = cursor.explain()
        assert explain == collection.explain(cursor.spec)
        assert explain["surface"] == surface
        assert explain["queryPlanner"]["spec"]["limit"] == 5
        assert explain["queryPlanner"]["spec"]["sort"] == [list(pair) for pair in SORT]

    def test_surfaces_share_one_shape(self, surfaces):
        explains = {
            name: collection.find(FILTER, sort=SORT, limit=5).explain()
            for name, collection in surfaces.items()
        }
        for explain in explains.values():
            assert set(explain) == set(TOP_LEVEL_KEYS)
            assert set(explain["queryPlanner"]) == set(PLANNER_KEYS)
        specs = [explain["queryPlanner"]["spec"] for explain in explains.values()]
        assert specs[0] == specs[1] == specs[2]
        # The served cluster reports the sharded cluster's own plan.
        served = dict(explains["served"], surface="sharded")
        assert served == explains["sharded"]

    def test_served_explain_carries_the_complete_spec(self, surfaces):
        remote = surfaces["served"]
        spec = FindSpec.create(filter=FILTER, sort=SORT, skip=2, limit=3, hint="store_1")
        explain = remote.explain(spec)
        assert explain["queryPlanner"]["spec"] == spec.describe()
        assert explain["queryPlanner"]["sortMode"] == "streamingKWayMerge"
        assert winning_index_names(explain) == {"store_1"}


class TestKeyPatternHint:
    @pytest.mark.parametrize("surface", ["standalone", "sharded", "served"])
    @pytest.mark.parametrize("pattern", [{"store": 1}, [("store", 1)], [["store", 1]]])
    def test_hint_by_key_pattern(self, surfaces, surface, pattern):
        collection = surfaces[surface]
        query = {"store": 2, "tag": "t3"}
        cursor = collection.find(query, {"_id": 0}, sort=[("order_id", 1)]).hint(pattern)
        assert winning_index_names(cursor.explain()) == {"store_1"}
        expected = collection.find(query, {"_id": 0}, sort=[("order_id", 1)]).to_list()
        assert cursor.to_list() == expected
        assert expected

    @pytest.mark.parametrize("surface", ["standalone", "sharded", "served"])
    @pytest.mark.parametrize("pattern", [{"nope": 1}, {"store": -1}, [("store", 1, 2)], 7])
    def test_unmatched_key_pattern_raises_operation_failure(self, surfaces, surface, pattern):
        with pytest.raises(OperationFailure, match="does not match an index"):
            surfaces[surface].find(FILTER).hint(pattern).to_list()

    def test_bad_hint_is_a_structured_error_over_the_wire(self, surfaces, server):
        remote = surfaces["served"]
        for bad in ({"nope": 1}, [("store", -1)], 7, "nope_1"):
            with pytest.raises(OperationFailure) as caught:
                remote.find(FILTER).hint(bad).to_list()
            assert type(caught.value) is OperationFailure
            assert "InternalError" not in str(caught.value)
            assert "does not match an index" in str(caught.value)
        # The connection and the server stay healthy.
        assert remote.find(FILTER).hint({"store": 1}).to_list()
