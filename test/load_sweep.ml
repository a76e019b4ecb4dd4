(* Seeded differential load sweep, run via `dune build @load`.

   Each seed drives a full Loadtest run — open-loop Poisson arrivals,
   Zipf popularity, multi-op transactions — and must be
   oracle-equivalent (zero mismatches) while satisfying the saturation
   invariants: achieved throughput never exceeds realized offered load,
   percentiles are ordered, and the detected knee lies within the swept
   range.  Covers 50 seeds by default; LOAD_SEEDS=5,6,7 appends extra
   comma-separated seeds, LOAD_CLIENTS=N and LOAD_OPS=N resize each
   run, and `--quick` (wired into the default `dune runtest`) trims to
   a fast subset.  Outside --trace, every run also asserts same-seed
   determinism of the schedule and the outcome.  `--trace SEED` replays
   one seed with the per-op log on stderr. *)

module Loadtest = Benchlib.Loadtest

let () =
  (* The sweep's job is breadth (many seeds), not depth: both modes use
     the small config and long mode buys coverage with 50 seeds.
     LOAD_CLIENTS/LOAD_OPS scale a run up when depth is wanted. *)
  let base = Loadtest.quick_config in
  let config =
    {
      base with
      Loadtest.clients = Sweep.env_int "LOAD_CLIENTS" base.Loadtest.clients;
      ops_per_level = Sweep.env_int "LOAD_OPS" base.Loadtest.ops_per_level;
      trace = Sweep.trace_seed <> None;
    }
  in
  let seeds =
    Sweep.seeds ~name:"load"
      ~full:(List.init 50 (fun i -> Int64.of_int (i + 1)))
      ~quick:[ 1L; 2L; 3L ]
  in
  Sweep.run ~name:"load" seeds
    (fun seed ->
      let o = Loadtest.run ~config ~seed () in
      [ (Loadtest.outcome_to_string o, o.mismatches @ Loadtest.curve_failures o) ])
    ~finally:(fun () ->
      (* the op schedule is a pure function of the seed *)
      if Sweep.trace_seed = None then begin
        let seed = List.hd seeds in
        let digest () =
          Loadtest.schedule_digest ~config ~seed ~rate:100. ~ops:config.ops_per_level
        in
        let d1 = digest () and d2 = digest () in
        if d1 <> d2 then Sweep.fail "schedule digest not deterministic: %s vs %s" d1 d2
      end)
