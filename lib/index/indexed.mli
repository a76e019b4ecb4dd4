(** An indexed relation: a heap and the B-trees over it.

    In the paper every Inversion file is a POSTGRES table with a B-tree
    on chunk number, and the namespace lives in [naming] and [fileatt]
    tables that are indexed the same way.  This is that one idea.  Each
    tree is declared once, as an {!Audit.index} [{name; tree; key_of}],
    and every path that adds, finds or removes entries derives its keys
    from [key_of]: inserting and updating a version, migration's raw
    copy, the newest-first probe, the vacuum's index maintenance, the
    crash reset, the rebuild from the heap and the recovery audit.  The
    heap is the sole source of truth; the trees are update-in-place and
    can always be rebuilt from it.

    The relation also owns its archive tier, the append-only heap its
    archive-mode vacuum moves dead versions to ({!Relstore.Db.archive}).
    It is fixed when the relation is made, and a migration hands it on
    to the relation that replaces this one, so [As_of] reads reach
    every archived version without looking anything up by name. *)

type t

val create : Relstore.Heap.t -> archive:Relstore.Heap.t Lazy.t -> Audit.index list -> t
(** The relation over [heap] with this archive and these trees.  The
    list order is the order every operation visits the trees in. *)

val heap : t -> Relstore.Heap.t

val archive : t -> Relstore.Heap.t Lazy.t
(** The archive tier, made by the first archive-mode vacuum that forces
    it; until then the relation has archived nothing. *)

val indexes : t -> Audit.index list
(** The trees and their keys, in declaration order. *)

val insert : t -> Relstore.Txn.t -> oid:int64 -> bytes -> Relstore.Tid.t
(** {!Relstore.Heap.insert}, then file the new version under every tree. *)

val update :
  t -> Relstore.Txn.t -> Relstore.Tid.t -> oid:int64 -> bytes -> Relstore.Tid.t
(** {!Relstore.Heap.update} of the version at that TID, then file the new
    version under every tree.  [oid] is the record's oid, which the update
    keeps. *)

val append_raw :
  t -> oid:int64 -> xmin:Relstore.Xid.t -> xmax:Relstore.Xid.t -> bytes -> Relstore.Tid.t
(** {!Relstore.Heap.append_raw} (stamps intact), then file the version
    under every tree: how migration copies a relation's whole history. *)

val probe :
  t ->
  Audit.index ->
  Relstore.Snapshot.t ->
  key:string ->
  (Relstore.Heap.record -> 'a option) ->
  'a option
(** The first [Some] [f] returns on a version filed under [key] in that
    tree, visible under the snapshot and whose own key is [key].  Versions
    are probed newest (highest TID) first: a current snapshot sees at most
    one version per key, and it is nearly always the latest.  The key
    check re-identifies each record, so a stale entry whose slot now holds
    a different record never matches. *)

val historical : Relstore.Snapshot.t -> bool
(** [As_of] snapshots.  Whether such a read may use the trees, which hold
    no entry for a vacuumed version, is each catalog's rule. *)

val scan :
  ?where:(Relstore.Heap_page.view -> bool) ->
  t ->
  Relstore.Snapshot.t ->
  (Relstore.Heap.record -> unit) ->
  unit
(** Every version visible under the snapshot that passes the key test
    [where] (default: every one): {!Relstore.Heap.scan} of the heap, and
    under [As_of] of the archive too, once it is made.  A crash between a
    vacuum step's two commits can leave one version in both heaps; such
    duplicates are collapsed on the version's identity (stamps and
    payload), so each is handed over once.

    [where] runs under the page pin, as {!Relstore.Heap.scan} says: a
    pure test of the record in place that must not touch the cache.  The
    records handed over are exactly those, in the same order, that the
    scan without [where] hands over and [where] would pass; the pages
    read and the charges are the same either way. *)

val on_vacuum : t -> Relstore.Heap.record -> unit
(** The vacuum's [on_remove] hook: drop a removed version's entries. *)

val crash : t -> unit
(** Forget every tree's volatile state after a simulated machine crash. *)

val rebuild : t -> unit
(** Reconstruct every tree from the heap, all versions re-inserted.  The
    trees keep their segment ids, so stored references stay valid. *)

val audit : t -> Audit.verdict
(** {!Audit.run} of the heap and its trees. *)
