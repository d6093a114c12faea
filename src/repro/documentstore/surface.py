"""The collection contract, written once for every transport.

The stand-alone :class:`~repro.documentstore.collection.Collection`, the
sharded :class:`~repro.sharding.router.RoutedCollection` and the served
:class:`~repro.server.client.RemoteCollection` expose one driver API.  This
base class defines the methods derived from smaller primitives — ``find``,
``find_one``, ``insert_one``, ``update_one``, ``update_many``,
``replace_one``, ``delete_one`` and ``delete_many`` — so their signatures,
argument checks and errors are the same on every surface.

Each transport implements only the primitives underneath:

* ``_execute_find(spec)`` — run a complete :class:`FindSpec`, returning an
  iterable of final result documents;
* ``_update(query, update, *, upsert, multi)`` and ``_delete(query, *, multi)``;
* ``insert_many``, ``count_documents``, ``distinct``, ``aggregate`` and
  ``explain``;
* the index DDL (``create_index``, ``list_indexes``, ``drop_index``) and
  ``drop``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from .cursor import Cursor, DeleteResult, InsertOneResult, UpdateResult
from .errors import OperationFailure
from .findspec import FindSpec
from .update import is_update_document

__all__ = ["CollectionSurface"]


class CollectionSurface:
    """Derived collection methods over a transport's primitives."""

    def find(
        self,
        query: Mapping[str, Any] | None = None,
        projection: Mapping[str, Any] | None = None,
        *,
        sort: str | Sequence[tuple[str, int]] | Mapping[str, int] | None = None,
        skip: int = 0,
        limit: int = 0,
        batch_size: int | None = None,
        hint: str | Mapping[str, Any] | Sequence[Any] | None = None,
    ) -> Cursor:
        """Return a lazy cursor over the documents matching *query*.

        Options may be passed here or chained on the cursor; either way the
        transport receives one complete :class:`FindSpec` when iteration
        starts.
        """
        spec = FindSpec.create(
            filter=query,
            projection=projection,
            sort=sort,
            skip=skip,
            limit=limit,
            batch_size=batch_size,
            hint=hint,
        )
        return Cursor(self._execute_find, spec=spec, explain=self.explain)

    def find_one(
        self,
        query: Mapping[str, Any] | None = None,
        projection: Mapping[str, Any] | None = None,
        *,
        sort: str | Sequence[tuple[str, int]] | Mapping[str, int] | None = None,
    ) -> dict[str, Any] | None:
        """Return one matching document, or ``None``."""
        for document in self.find(query, projection, sort=sort, limit=1):
            return document
        return None

    def insert_one(self, document: Mapping[str, Any]) -> InsertOneResult:
        """Insert a single document, assigning an ``ObjectId`` if needed."""
        result = self.insert_many([document])
        return InsertOneResult(inserted_id=result.inserted_ids[0])

    def update_one(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Update the first matching document."""
        return self._update(query, update, upsert=upsert, multi=False)

    def update_many(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Update every matching document (the thesis' ``multi=true``)."""
        if not is_update_document(update):
            raise OperationFailure("update_many requires update operators")
        return self._update(query, update, upsert=upsert, multi=True)

    def replace_one(
        self,
        query: Mapping[str, Any] | None,
        replacement: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Replace the first matching document with *replacement*."""
        if is_update_document(replacement):
            raise OperationFailure("replace_one requires a plain replacement document")
        return self._update(query, replacement, upsert=upsert, multi=False)

    def delete_one(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Delete the first matching document."""
        return self._delete(query, multi=False)

    def delete_many(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Delete every matching document."""
        return self._delete(query, multi=True)
