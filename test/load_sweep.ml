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

let invariant_failures (o : Loadtest.outcome) =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> fails := msg :: !fails) fmt in
  if o.capacity_ops_s <= 0. then fail "capacity %.3f not positive" o.capacity_ops_s;
  List.iter
    (fun (l : Loadtest.level) ->
      if l.l_achieved_ops_s < 0. then
        fail "x%.2f: achieved %.3f negative" l.l_factor l.l_achieved_ops_s;
      if l.l_achieved_ops_s > l.l_offered_realized_ops_s +. 1e-6 then
        fail "x%.2f: achieved %.3f exceeds offered %.3f" l.l_factor
          l.l_achieved_ops_s l.l_offered_realized_ops_s;
      if not (l.l_p50_s <= l.l_p95_s && l.l_p95_s <= l.l_p99_s) then
        fail "x%.2f: percentiles unordered p50=%g p95=%g p99=%g" l.l_factor
          l.l_p50_s l.l_p95_s l.l_p99_s;
      if l.l_applied > l.l_ops then
        fail "x%.2f: applied %d > ops %d" l.l_factor l.l_applied l.l_ops)
    o.levels;
  let offered = List.map (fun l -> l.Loadtest.l_offered_realized_ops_s) o.levels in
  let lo = List.fold_left min infinity offered in
  let hi = List.fold_left max 0. offered in
  if o.knee_offered_ops_s < lo -. 1e-6 || o.knee_offered_ops_s > hi +. 1e-6 then
    fail "knee %.3f outside swept range [%.3f, %.3f]" o.knee_offered_ops_s lo hi;
  List.rev !fails

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
  Sweep.run ~name:"load" ~traceable:true seeds
    (fun seed ->
      let o = Loadtest.run ~config ~seed () in
      [ (Loadtest.outcome_to_string o, o.mismatches @ invariant_failures o) ])
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
