(* Vacuum-under-traffic sweep, run via `dune build @vacuum`.

   Each seed replays a randomized workload with one budgeted increment
   of the concurrent archive vacuum interleaved at every op boundary,
   O(1) snapshots and copy-on-write clones in the op mix, and crashes
   injected mid-step; the run must stay oracle-equivalent throughout
   (see Benchlib.Vacuumtest).  Always covers the fixed seed set below
   (30+ seeds); VACUUM_SEEDS=5,6,7 appends extra comma-separated seeds,
   VACUUM_OPS=N lengthens each run, `--quick` (used by the @sweeps
   meta-alias and the default `dune runtest`) trims to a fast subset,
   and `--trace SEED` replays one seed with the per-op log on stderr. *)

module VT = Benchlib.Vacuumtest

let () =
  let ops = Sweep.env_int "VACUUM_OPS" VT.default_config.ops in
  let config = { VT.ops; trace = Sweep.trace_seed <> None } in
  let archived = ref 0 in
  Sweep.run ~name:"vacuum"
    (Sweep.seeds ~name:"vacuum"
       ~full:(List.init 30 (fun i -> Int64.of_int (i + 1)) @ [ 42L; 1993L ])
       ~quick:[ 1L; 7L; 42L ])
    (fun seed ->
      let o = VT.run ~config ~seed () in
      archived := !archived + o.vacuum_archived;
      [ (VT.outcome_to_string o, o.mismatches) ])
    ~finally:(fun () ->
      (* The sweep must actually exercise the archive path: across the
         seed set, the incremental vacuum must have migrated versions to
         the WORM tier, or the oracle equivalence proves nothing about it. *)
      if !archived = 0 then
        Sweep.fail "no versions were ever archived — the sweep is vacuous")
