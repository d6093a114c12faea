"""One collection contract on every surface.

The stand-alone collection, the sharded cluster's routed collection and
that cluster served over a socket share one driver API.  Every contract
method must exist on all three with one signature, the derived methods must
be the single definitions in :class:`CollectionSurface`, and the same calls
must give the same results — or the same errors — everywhere.
"""

from __future__ import annotations

import inspect

import pytest

from repro.documentstore import CollectionSurface, InvalidDocumentError, OperationFailure

from .conftest import build_served_cluster

#: The contract: the derived methods plus the primitives each transport implements.
DERIVED = (
    "find",
    "find_one",
    "insert_one",
    "update_one",
    "update_many",
    "replace_one",
    "delete_one",
    "delete_many",
)
PRIMITIVES = (
    "_execute_find",
    "_update",
    "_delete",
    "insert_many",
    "count_documents",
    "distinct",
    "aggregate",
    "explain",
    "create_index",
    "list_indexes",
    "drop_index",
    "drop",
)
#: Keyword-only options one transport offers beyond the contract.
EXTENSIONS = {
    ("standalone", "create_index"): {"defer"},
    ("served", "aggregate"): {"batch_size"},
}


@pytest.fixture()
def routed_cluster():
    """A second cluster with the same data, so writes on one surface stay on it."""
    cluster = build_served_cluster()
    yield cluster
    cluster.close()


@pytest.fixture()
def surfaces(routed_cluster, remote, standalone):
    """Stand-alone, sharded and served handles on three copies of the same data."""
    return {
        "standalone": standalone,
        "sharded": routed_cluster.get_database("shop")["orders"],
        "served": remote,
    }


def router_operations(*clusters):
    return [cluster.router.metrics.operations for cluster in clusters]


def contract_signature(surface, collection, method):
    signature = inspect.signature(getattr(type(collection), method))
    extra = EXTENSIONS.get((surface, method), set())
    return signature.replace(
        parameters=[p for p in signature.parameters.values() if p.name not in extra]
    )


def outcome(call):
    """The result of *call*, or the type and message of the error it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared across surfaces
        return type(exc), str(exc)


def without_id(document):
    return {key: value for key, value in document.items() if key != "_id"}


def same_everywhere(surfaces, call):
    """Run *call* on each surface; assert one outcome and return it."""
    outcomes = {name: outcome(lambda: call(collection)) for name, collection in surfaces.items()}
    assert outcomes["sharded"] == outcomes["standalone"]
    assert outcomes["served"] == outcomes["standalone"]
    return outcomes["standalone"]


class TestSignatures:
    @pytest.mark.parametrize("method", DERIVED + PRIMITIVES)
    def test_one_signature_on_every_surface(self, surfaces, method):
        signatures = {
            name: contract_signature(name, collection, method)
            for name, collection in surfaces.items()
        }
        assert signatures["sharded"] == signatures["standalone"]
        assert signatures["served"] == signatures["standalone"]

    @pytest.mark.parametrize("method", DERIVED)
    def test_derived_methods_are_written_once(self, surfaces, method):
        for collection in surfaces.values():
            assert isinstance(collection, CollectionSurface)
            assert getattr(type(collection), method) is getattr(CollectionSurface, method)


class TestSameResults:
    def test_replace_one_plain_document(self, surfaces):
        replacement = {"order_id": 7, "amount": 1.5, "store": 9, "tag": "replaced"}

        def replace(collection):
            result = collection.replace_one({"order_id": 7}, replacement)
            stored = collection.find_one({"order_id": 7}, {"_id": 0})
            return result.matched_count, result.modified_count, result.upserted_id, stored

        assert same_everywhere(surfaces, replace) == (1, 1, None, replacement)

    def test_replace_one_upsert(self, surfaces):
        def upsert(collection):
            result = collection.replace_one(
                {"order_id": 5000}, {"order_id": 5000, "amount": 2.0}, upsert=True
            )
            stored = collection.find_one({"order_id": 5000})
            return (
                result.matched_count,
                result.modified_count,
                result.upserted_id == stored["_id"],
                without_id(stored),
            )

        assert same_everywhere(surfaces, upsert) == (
            0, 0, True, {"order_id": 5000, "amount": 2.0}
        )

    def test_replace_one_rejects_operators_before_any_io(
        self, surfaces, cluster, routed_cluster
    ):
        operations = router_operations(cluster, routed_cluster)
        error = same_everywhere(
            surfaces, lambda c: c.replace_one({"order_id": 7}, {"$set": {"amount": 0.0}})
        )
        assert error == (OperationFailure, "replace_one requires a plain replacement document")
        assert router_operations(cluster, routed_cluster) == operations

    def test_update_many_rejects_a_replacement_document(
        self, surfaces, cluster, routed_cluster
    ):
        operations = router_operations(cluster, routed_cluster)
        error = same_everywhere(
            surfaces, lambda c: c.update_many({"store": 1}, {"amount": 0.0})
        )
        assert error == (OperationFailure, "update_many requires update operators")
        assert router_operations(cluster, routed_cluster) == operations

    def test_delete_one(self, surfaces):
        def delete(collection):
            deleted = collection.delete_one({"store": 3}).deleted_count
            missing = collection.delete_one({"store": 99}).deleted_count
            return deleted, missing, collection.count_documents({"store": 3})

        assert same_everywhere(surfaces, delete) == (1, 0, 59)

    def test_find_one_with_sort(self, surfaces):
        document = same_everywhere(
            surfaces,
            lambda c: c.find_one(
                {"store": 2}, {"_id": 0}, sort=[("amount", -1), ("order_id", 1)]
            ),
        )
        assert document["store"] == 2

    def test_insert_one(self, surfaces):
        def insert(collection):
            result = collection.insert_one({"order_id": 6000, "store": 1})
            return without_id(collection.find_one({"_id": result.inserted_id}))

        assert same_everywhere(surfaces, insert) == {"order_id": 6000, "store": 1}

    def test_insert_many_rejects_a_non_document(self, surfaces):
        error = same_everywhere(surfaces, lambda c: c.insert_many([{"order_id": 6001}, 5]))
        assert error == (InvalidDocumentError, "documents must be mappings, got int")


class TestRoutedDeleteOne:
    def test_one_fan_out_and_standalone_count(self, cluster, standalone):
        routed = cluster.get_database("shop")["orders"]
        cluster.reset_metrics()
        result = routed.delete_one({"store": 4})
        assert cluster.router.metrics.operations == 1
        assert result.deleted_count == standalone.delete_one({"store": 4}).deleted_count == 1
        assert routed.count_documents({}) == standalone.count_documents({})


class TestIndexSpecs:
    @pytest.mark.parametrize("keys", ["g", [("g", 1)], {"g": 1}])
    def test_key_forms_give_one_index(self, surfaces, keys):
        def create(collection):
            name = collection.create_index(keys)
            return name, [spec for spec in collection.list_indexes() if spec["name"] == name]

        assert same_everywhere(surfaces, create) == (
            "g_1", [{"name": "g_1", "type": "btree", "keys": [["g", 1]], "unique": False}]
        )

    def test_unique(self, surfaces):
        def create(collection):
            name = collection.create_index("order_id", unique=True)
            return name, [spec for spec in collection.list_indexes() if spec["name"] == name]

        assert same_everywhere(surfaces, create) == (
            "order_id_1",
            [{"name": "order_id_1", "type": "btree", "keys": [["order_id", 1]], "unique": True}],
        )

    @pytest.mark.parametrize("keys", [5, [("g",)], {"keys": 5}])
    def test_malformed_spec_fails_alike(self, surfaces, keys):
        error_type, _message = same_everywhere(surfaces, lambda c: c.create_index(keys))
        assert error_type is OperationFailure
