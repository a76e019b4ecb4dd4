type stats = {
  scanned : int;
  archived : int;
  discarded : int;
  pages_compacted : int;
}

type step_stats = {
  s_scanned : int;
  s_archived : int;
  s_discarded : int;
  s_pages : int;
  s_compacted : int;
  s_next_block : int;
  s_wrapped : bool;
  s_skipped : bool;
}

type verdict = Keep | Archive | Discard

let judge log ~horizon (r : Heap.record) =
  match Status_log.state log r.xmin with
  | exception Not_found -> Keep (* unknown inserter: be conservative *)
  | Status_log.Aborted -> Discard (* never existed *)
  | Status_log.In_progress -> Keep
  | Status_log.Committed _ ->
    if Xid.is_valid r.xmax && Status_log.committed_before log r.xmax horizon then Archive
    else Keep

let m_archived = Obs.Metrics.counter "vacuum.archived"
let m_discarded = Obs.Metrics.counter "vacuum.discarded"
let m_steps = Obs.Metrics.counter "vacuum.steps"
let m_steps_skipped = Obs.Metrics.counter "vacuum.steps_skipped"

exception Step_skipped

(* One budgeted increment of the concurrent vacuum.

   The step is two ordinary logged transactions, so every durability and
   crash-recovery guarantee of the engine applies to the vacuum itself:

   - Transaction A takes the relation's {e shared} lock (so it excludes
     writers but runs alongside readers — records it touches are already
     invisible to every [Current] snapshot, and the caller's horizon is
     clamped below every registered [As_of] lease), judges the page
     window, and copies [Archive] verdicts into the WORM tier under an
     exclusive lock on the archive heap; its commit therefore flushes the
     archive pages to the jukebox {e before} any main-heap slot dies.

   - Transaction B re-takes the shared guard, latches each touched page
     ([vacpage:<rel>:<blkno>], exclusive), fires [on_remove] (index
     maintenance), kills the doomed slots and compacts the pages; its
     commit flushes the rewritten pages.

   A crash between the two commits leaves the moved versions present in
   {e both} heaps; historical scans collapse such duplicates on the
   version identity ([Index.Indexed.scan]), and a re-run of the step
   re-judges the window idempotently.  If the shared guard is unavailable (a writer
   holds the relation exclusively) the step gives way immediately and
   reports itself skipped — vacuum never makes a foreground writer
   wait. *)
let step heap ~mgr ~horizon ~mode ?(on_remove = fun _ -> ()) ~start_block ~pages
    () =
  let log = Heap.status_log heap in
  Obs.span Obs.Vacuum "vacuum.step"
    ~args:[ ("rel", Obs.S (Heap.name heap)); ("start", Obs.I start_block) ]
  @@ fun () ->
  let nb = Heap.nblocks heap in
  if nb = 0 || pages <= 0 then
    { s_scanned = 0; s_archived = 0; s_discarded = 0; s_pages = 0;
      s_compacted = 0; s_next_block = 0; s_wrapped = true; s_skipped = false }
  else begin
    let start = if start_block < 0 || start_block >= nb then 0 else start_block in
    let last = min nb (start + pages) in
    let wrapped = last >= nb in
    let next_block = if wrapped then 0 else last in
    let scanned = ref 0 and archived = ref 0 and discarded = ref 0 in
    let doomed = ref [] in
    let guard txn =
      Lock_mgr.try_acquire (Txn.locks mgr) (Txn.xid txn)
        ~resource:(Heap.resource heap) Lock_mgr.Shared
    in
    let skipped =
      (* Transaction A: judge the window, copy archive-bound versions. *)
      try
        Txn.with_txn mgr (fun txn ->
            if not (guard txn) then raise Step_skipped;
            (match mode with
            | `Archive arch -> Heap.write_lock arch txn
            | `Discard -> ());
            for blkno = start to last - 1 do
              Heap.scan_block heap blkno (fun r ->
                  incr scanned;
                  match judge log ~horizon r with
                  | Keep -> ()
                  | Discard ->
                    incr discarded;
                    doomed := r :: !doomed
                  | Archive ->
                    (match mode with
                    | `Archive arch ->
                      ignore
                        (Heap.append_raw arch ~oid:r.oid ~xmin:r.xmin
                           ~xmax:r.xmax r.payload
                          : Tid.t);
                      incr archived
                    | `Discard -> incr discarded);
                    doomed := r :: !doomed)
            done);
        false
      with Step_skipped -> true
    in
    let compacted = ref 0 in
    if (not skipped) && !doomed <> [] then
      (* Transaction B: latch touched pages, fix indexes, kill, compact. *)
      Txn.with_txn mgr (fun txn ->
          Txn.lock txn ~resource:(Heap.resource heap) Lock_mgr.Shared;
          let touched = Hashtbl.create 8 in
          List.iter
            (fun (r : Heap.record) -> Hashtbl.replace touched r.tid.Tid.blkno ())
            !doomed;
          let blknos =
            Hashtbl.fold (fun b () acc -> b :: acc) touched []
            |> List.sort compare
          in
          List.iter
            (fun b ->
              Txn.lock txn
                ~resource:(Printf.sprintf "vacpage:%s:%d" (Heap.name heap) b)
                Lock_mgr.Exclusive)
            blknos;
          List.iter
            (fun (r : Heap.record) ->
              on_remove r;
              Heap.kill_tid heap r.tid)
            (List.rev !doomed);
          List.iter (Heap.compact_block heap) blknos;
          compacted := List.length blknos);
    if skipped then Obs.Metrics.incr m_steps_skipped else Obs.Metrics.incr m_steps;
    Obs.Metrics.incr ~by:!archived m_archived;
    Obs.Metrics.incr ~by:!discarded m_discarded;
    if Obs.on Obs.Vacuum then
      Obs.event Obs.Vacuum "vacuum.step_stats"
        ~args:
          [ ("scanned", Obs.I !scanned); ("archived", Obs.I !archived);
            ("discarded", Obs.I !discarded); ("pages", Obs.I (last - start));
            ("skipped", Obs.I (if skipped then 1 else 0));
          ]
        ();
    {
      s_scanned = !scanned;
      s_archived = !archived;
      s_discarded = !discarded;
      s_pages = (if skipped then 0 else last - start);
      s_compacted = !compacted;
      s_next_block = (if skipped then start else next_block);
      s_wrapped = (not skipped) && wrapped;
      s_skipped = skipped;
    }
  end
