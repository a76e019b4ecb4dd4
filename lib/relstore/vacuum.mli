(** The vacuum cleaner: garbage collection and record archiving.

    "Periodically, obsolete records must be garbage-collected from the
    database, and either moved elsewhere or physically deleted.  If time
    travel is desired, the records must be saved forever somewhere."
    (paper, "The No-Overwrite Storage Manager").

    A record version is {e obsolete} at horizon [h] when its deleter
    committed at or before [h]; a version whose inserter aborted is pure
    garbage.  In [`Archive] mode obsolete versions move (stamps intact) to
    the archive heap the mode names ({!Db.archive}, typically on the WORM
    jukebox), so [As_of] reads of the relation that owns it still see
    them; in [`Discard] mode history
    before the horizon is lost, which is what POSTGRES does for relations
    whose users "have no interest in maintaining history".

    There is one vacuum, {!step}: a budgeted window of pages judged and
    moved as two ordinary transactions.  A full pass ({!Db.vacuum}) is
    that step over the whole heap, so it is crash-safe in the same way,
    needs no quiescence, and gives way to a writer like any step. *)

type stats = {
  scanned : int;  (** record versions examined *)
  archived : int;  (** moved to the archive heap *)
  discarded : int;  (** physically removed without archiving *)
  pages_compacted : int;
}
(** The result of a full pass ({!Db.vacuum}). *)

type step_stats = {
  s_scanned : int;
  s_archived : int;
  s_discarded : int;
  s_pages : int;  (** pages examined (0 when skipped) *)
  s_compacted : int;
  s_next_block : int;  (** cursor for the next step *)
  s_wrapped : bool;  (** this step reached the end of the heap *)
  s_skipped : bool;  (** gave way to a writer; nothing was done *)
}

val step :
  Heap.t ->
  mgr:Txn.manager ->
  horizon:int64 ->
  mode:[ `Archive of Heap.t | `Discard ] ->
  ?on_remove:(Heap.record -> unit) ->
  start_block:int ->
  pages:int ->
  unit ->
  step_stats
(** One budgeted increment of the {e concurrent} vacuum: judge at most
    [pages] pages starting at [start_block], as two ordinary logged
    transactions — archive copies commit (and hit the platter) first,
    then page latches are taken, indexes fixed via [on_remove], and the
    doomed slots killed and compacted.  Safe under live traffic: the step
    holds the relation's {e shared} lock, so it excludes writers (giving
    way instantly — [s_skipped] — if one is active) but runs alongside
    readers; the caller must clamp [horizon] below every active
    transaction's start and every registered [As_of] lease (see
    {!Db.safe_horizon}).  A crash between the two commits at worst leaves
    archived duplicates, which the owning relation's [As_of] scan
    ([Index.Indexed.scan]) collapses; re-running the step is
    idempotent. *)
