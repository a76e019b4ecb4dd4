(* Media-resilience sweep, run via `dune build @scrub` (and, with
   --quick, as part of the default test run).

   Three scenarios per seed:
   - media:      mirrored pair under continuous bitrot + stuck blocks,
                 background scrubber running (Crashtest.media_config);
   - media-kill: mirrored pair whose secondary dies mid-run after a full
                 scrub (Crashtest.media_kill_config);
   - degraded:   directed unmirrored two-device scenario where one device
                 dies (Crashtest.run_degraded).

   Always covers the fixed seed set below; SCRUB_SEEDS=5,6,7 appends
   extra comma-separated seeds and SCRUB_OPS=N lengthens each run.
   `--quick` runs two seeds at 120 ops and ignores both variables. *)

module CT = Benchlib.Crashtest

let () =
  let differential label (base : CT.config) seed =
    let ops =
      if Sweep.quick then min base.ops 120 else Sweep.env_int "SCRUB_OPS" base.ops
    in
    let o = CT.run ~config:{ base with ops } ~seed () in
    (label ^ " " ^ CT.outcome_to_string o, o.mismatches)
  in
  Sweep.run ~name:"scrub"
    (if Sweep.quick then [ 1L; 2L ]
     else [ 1L; 2L; 3L; 5L; 7L; 11L; 13L; 17L; 42L; 1993L ] @ Sweep.env_seeds "scrub")
    (fun seed ->
      let media = differential "media" CT.media_config seed in
      let kill = differential "kill " CT.media_kill_config seed in
      let degraded = CT.run_degraded ~seed () in
      [
        media;
        kill;
        ( Printf.sprintf "degrd seed=%Ld mismatches=%d" seed (List.length degraded),
          degraded );
      ])
