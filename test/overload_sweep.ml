(* Seeded overload sweep, run via `dune build @overload`.

   Each seed drives two open-loop Loadtest runs well past saturation
   (2x and 4x the calibrated capacity) with deadlines propagated and
   admission control engaged, and asserts the graceful-degradation
   contract on every overloaded level:

   - oracle equivalence: zero mismatches — shed and deadline-expired
     requests are clean, reported rejections, never lost or duplicated
     mutations;
   - goodput: applied-within-SLO throughput at 2x and 4x stays at or
     above 80% of the 1x reference level's (degradation is flat, not a
     collapse) and above 70% of the calibrated closed-loop capacity
     (the 1x level and the calibration bracket the true service rate:
     calibration runs a different, conflict-free closed-loop mix, so
     it can over- or under-shoot what the overload mix can sustain);
   - tail latency: p99 over admitted operations stays within the SLO
     (the shed traffic is the slack that buys this);
   - accounting: every operation is applied, skipped on a lock, or
     shed — nothing disappears.

   Covers 25 seeds by default; OVERLOAD_SEEDS=5,6,7 appends extra
   comma-separated seeds, OVERLOAD_CLIENTS=N / OVERLOAD_OPS=N resize
   each run, OVERLOAD_DEADLINE_MS=N moves the deadline.  `--quick`
   (wired into the default `dune runtest`) trims to 3 seeds.  Outside
   --trace, every run also asserts same-seed determinism: shed
   decisions, deadline rejections and parked retries are all on the
   simulated clock.  `--trace SEED` replays one seed with the per-op
   log on stderr. *)

module Loadtest = Benchlib.Loadtest

(* The protected-server contract under sustained overload. *)
let overload_failures ~seed (o : Loadtest.outcome) =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> fails := msg :: !fails) fmt in
  if o.capacity_ops_s <= 0. then
    fail "seed %Ld: capacity %.3f not positive" seed o.capacity_ops_s;
  (* the 1x level measures what this seed's open-loop mix sustains at
     exactly the calibrated rate: the reference the overloaded levels
     must not collapse below *)
  let reference =
    List.fold_left
      (fun acc (l : Loadtest.level) ->
        if l.l_factor < 2.0 then max acc l.l_slo_goodput_ops_s else acc)
      0. o.levels
  in
  let reference = if reference > 0. then reference else o.capacity_ops_s in
  List.iter
    (fun (l : Loadtest.level) ->
      if l.l_factor >= 2.0 then begin
        if l.l_slo_goodput_ops_s < 0.8 *. reference then
          fail "seed %Ld x%.1f: SLO goodput %.2f/s below 0.8x the 1x level's %.2f/s"
            seed l.l_factor l.l_slo_goodput_ops_s reference;
        if l.l_slo_goodput_ops_s < 0.7 *. o.capacity_ops_s then
          fail "seed %Ld x%.1f: SLO goodput %.2f/s below 0.7x capacity %.2f/s" seed
            l.l_factor l.l_slo_goodput_ops_s o.capacity_ops_s;
        if l.l_admitted_p99_s > o.slo_p99_s then
          fail "seed %Ld x%.1f: admitted p99 %.3fs blows the %.1fs SLO" seed
            l.l_factor l.l_admitted_p99_s o.slo_p99_s
      end;
      let shed = l.l_shed_deadline + l.l_shed_overload in
      if l.l_admitted <> l.l_ops - shed then
        fail "seed %Ld x%.1f: accounting leak: admitted %d <> ops %d - shed %d" seed
          l.l_factor l.l_admitted l.l_ops shed;
      if l.l_applied + l.l_lock_skips > l.l_admitted then
        fail "seed %Ld x%.1f: applied %d + skips %d exceed admitted %d" seed
          l.l_factor l.l_applied l.l_lock_skips l.l_admitted)
    o.levels;
  List.rev !fails

let () =
  let config =
    {
      Loadtest.quick_config with
      Loadtest.clients = Sweep.env_int "OVERLOAD_CLIENTS" 24;
      ops_per_level = Sweep.env_int "OVERLOAD_OPS" 140;
      calibration_ops = 40;
      load_factors = [ 1.0; 2.0; 4.0 ];
      deadline_s = Some (float_of_int (Sweep.env_int "OVERLOAD_DEADLINE_MS" 800) /. 1e3);
      trace = Sweep.trace_seed <> None;
    }
  in
  Sweep.run ~name:"overload"
    (Sweep.seeds ~name:"overload"
       ~full:(List.init 25 (fun i -> Int64.of_int (i + 1)))
       ~quick:[ 1L; 2L; 3L ])
    (fun seed ->
      let o = Loadtest.run ~config ~seed () in
      [ (Loadtest.outcome_to_string o, o.mismatches @ overload_failures ~seed o) ])
