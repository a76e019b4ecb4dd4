(* Create-gap sweep, run via `dune build @creategap` (full) or
   `creategap_sweep.exe --quick` (rides the default `dune runtest`).

   Commits always run in groups; the one remaining create-path knob,
   deferred batched index inserts, is a pure cost optimisation: staged
   inserts ride logical intents in the NVRAM-backed status area, so
   deferring them changes when the index pages are written, never what
   survives a crash.  This sweep holds the implementation to that claim
   from two sides:

   - Differential crash runs: every seed is run with the deferred index
     off and again with it on.  Both must be oracle-identical — same
     bytes, same time-travel answers, clean fsck — under boundary and
     injected crashes, which exercises the logical REDO replay of index
     intents staged but never applied.

   - The gap itself: the single-process and client/server create phases
     must be no slower with the deferred index on, do the same durable
     commits both ways, and form real batches (mean group size above
     1.5) on both sides.

   CREATEGAP_SEEDS=5,6,7 appends extra crash seeds; CREATEGAP_OPS=N
   lengthens each crash run. *)

module Ct = Benchlib.Crashtest
module S = Benchlib.Systems

let fixed_seeds = [ 1L; 2L; 3L; 7L; 13L; 42L; 1993L ]
let quick_seeds = [ 1L; 7L; 1993L ]

let env_seeds () =
  match Sys.getenv_opt "CREATEGAP_SEEDS" with
  | None | Some "" -> []
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun tok ->
           match Int64.of_string_opt (String.trim tok) with
           | Some n -> Some n
           | None ->
             Printf.eprintf "creategap_sweep: ignoring bad seed %S\n" tok;
             None)

let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      Printf.printf "  FAIL: %s\n%!" m)
    fmt

(* One seed, deferred index off vs on: each run must prove out against
   its own oracle.  The two runs are NOT compared to each other — the
   knob changes the device-write sequence, so the fault plan's "crash at the
   Nth write" schedule lands on different ops, and the workloads
   legitimately diverge after the first injected crash.  What must hold
   is that each divergent history is byte-identical to what its own
   oracle says committed. *)
let crash_differential ~ops seed =
  let base = { Ct.default_config with ops } in
  let on_cfg = { base with deferred_index = true } in
  let off = Ct.run ~config:base ~seed () in
  let on = Ct.run ~config:on_cfg ~seed () in
  List.iter (fun m -> fail "seed %Ld deferred-index-off: %s" seed m) off.Ct.mismatches;
  List.iter (fun m -> fail "seed %Ld deferred-index-on: %s" seed m) on.Ct.mismatches;
  Printf.printf
    "creategap seed=%Ld: off ok (%d ops, %d crashes)  on ok (%d ops, %d crashes)\n%!"
    seed off.Ct.ops_applied off.Ct.crashes on.Ct.ops_applied on.Ct.crashes

let degraded_differential seed =
  let off = Ct.run_degraded ~seed () in
  let on = Ct.run_degraded ~deferred_index:true ~seed () in
  List.iter (fun m -> fail "degraded seed %Ld deferred-index-off: %s" seed m) off;
  List.iter (fun m -> fail "degraded seed %Ld deferred-index-on: %s" seed m) on

(* The create phase alone (auto-commit chunk writes, the paper's Figure 3
   path), timed on a fresh system.  Returns (seconds, durable commits,
   flushes, mean group size) from the global registry deltas. *)
let h_group () = Obs.Metrics.histogram "txn.commit.group_size"

let timed_create ~mb sys =
  (* Drain any batch left pending by system setup (mkfs/mount commits),
     so the counter deltas below cover exactly the create phase. *)
  sys.S.flush_caches ();
  let d0 = match Obs.Metrics.read "log.commit.durable" with Some v -> v | None -> 0 in
  let f0 = Obs.Metrics.hist_count (h_group ()) in
  let mbytes = mb * 1024 * 1024 in
  let t0 = Simclock.Clock.now sys.S.clock in
  let f = sys.S.create "/gap.dat" in
  let off = ref 0 in
  while !off < mbytes do
    let len = min sys.S.io_unit (mbytes - !off) in
    sys.S.write f ~off:(Int64.of_int !off) (Bytes.create len);
    off := !off + len
  done;
  sys.S.flush_caches ();
  let dt = Simclock.Clock.now sys.S.clock -. t0 in
  let d1 = match Obs.Metrics.read "log.commit.durable" with Some v -> v | None -> 0 in
  let f1 = Obs.Metrics.hist_count (h_group ()) in
  let commits = d1 - d0 and flushes = f1 - f0 in
  (dt, commits, flushes, float_of_int commits /. float_of_int (max 1 flushes))

let create_gap ~mb ~label build =
  let off_s, off_commits, off_flushes, off_mean = timed_create ~mb (build false) in
  let on_s, on_commits, on_flushes, on_mean = timed_create ~mb (build true) in
  Printf.printf
    "creategap %s: off %.2fs (%d commits, %d flushes, mean group %.1f)  on %.2fs \
     (%d commits, %d flushes, mean group %.1f)\n%!"
    label off_s off_commits off_flushes off_mean on_s on_commits on_flushes on_mean;
  if not (on_s <= off_s) then
    fail "%s create: %.3fs with the deferred index on, %.3fs off — it must not lose"
      label on_s off_s;
  if off_commits <> on_commits then
    fail "%s create: %d durable commits off vs %d on — the knob changed the work"
      label off_commits on_commits;
  List.iter
    (fun (side, mean) ->
      if not (mean > 1.5) then
        fail "%s create (%s): mean group size %.2f — the batches never formed" label
          side mean)
    [ ("off", off_mean); ("on", on_mean) ]

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let ops =
    match Sys.getenv_opt "CREATEGAP_OPS" with
    | None | Some "" -> if quick then 120 else Ct.default_config.Ct.ops
    | Some s -> int_of_string s
  in
  let seeds = (if quick then quick_seeds else fixed_seeds) @ env_seeds () in
  List.iter (crash_differential ~ops) seeds;
  List.iter degraded_differential (if quick then [ 1L ] else [ 1L; 2L; 3L ]);
  let mb = if quick then 2 else 4 in
  create_gap ~mb ~label:"single-process" (fun deferred_index ->
      S.inversion_single_process ~deferred_index ());
  create_gap ~mb ~label:"client/server" (fun deferred_index ->
      S.inversion_client_server ~deferred_index ());
  if !failed > 0 then begin
    Printf.eprintf "creategap_sweep: %d failures\n" !failed;
    exit 1
  end;
  print_endline "creategap_sweep: all checks passed"
