(** The crash-recovery audit of a heap relation and its B-tree indexes,
    in one read of the heap.

    The heap is no-overwrite and self-identifying, so recovery only has
    to prove its pages intact; the indexes are update-in-place, the one
    layer a crash can tear.  {!run} reads each heap page once — verifying
    it exactly as {!Relstore.Heap.verify} does and keeping, from that
    same read, each record version's TID, its key under every index and
    whether its inserter committed.  It then walks each tree once
    ({!Btree.check_invariants} plus one {!Btree.iter}) and settles three
    questions as set comparisons in memory, keyed by TID:
    - the tree's structure is sound;
    - every committed version is indexed under its key;
    - no index entry dangles (its TID holds no version) or aliases a
      version whose key differs from the entry's.

    Any answer but yes means the index must be rebuilt from the heap. *)

type index = {
  name : string;  (** names the tree in problem messages *)
  tree : Btree.t;
  key_of : Relstore.Heap.record -> string;
      (** the key a record version is indexed under *)
}

type verdict = {
  pages : (unit, string) result;  (** {!Relstore.Heap.verify}'s verdict *)
  indexes : (unit, string) result;  (** the first index problem found *)
}

val run : Relstore.Heap.t -> index list -> verdict
(** Audit [heap] and the trees over it.  A heap holding no committed
    version has nothing reachable through its indexes, so their state is
    irrelevant: they are not read and the verdict is [Ok ()].  Raises
    {!Pagestore.Device.Media_failure} when a heap page cannot be read:
    nothing can then be said about the indexes, and there is nothing to
    rebuild them from. *)
