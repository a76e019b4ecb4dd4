(* Long-mode crash-recovery sweep, run via `dune build @crash`.

   Always covers the fixed seed set below; CRASH_SEEDS=5,6,7 appends
   extra comma-separated seeds, CRASH_OPS=N lengthens each run, and
   `--quick` (used by the @sweeps meta-alias) trims to a fast subset. *)

module CT = Benchlib.Crashtest

let () =
  let ops = Sweep.env_int "CRASH_OPS" CT.default_config.ops in
  let config = { CT.default_config with ops } in
  Sweep.run ~name:"crash"
    (Sweep.seeds ~name:"crash"
       ~full:[ 1L; 2L; 3L; 5L; 7L; 11L; 13L; 17L; 42L; 1993L ]
       ~quick:[ 1L; 2L; 3L; 42L ])
    (fun seed ->
      let o = CT.run ~config ~seed () in
      [ (CT.outcome_to_string o, o.mismatches) ])
