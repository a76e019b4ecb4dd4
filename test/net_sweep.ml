(* Long-mode network-fault sweep, run via `dune build @net`.

   Covers 200 seeded fault schedules by default; NET_SEEDS=5,6,7 appends
   extra comma-separated seeds, NET_OPS=N lengthens each run, and
   `--quick` (wired into the default `dune runtest`) trims to a fast
   subset.  `--trace SEED` replays one seed with the per-op repro log on
   stderr. *)

module NT = Benchlib.Nettest

let () =
  let config =
    {
      NT.ops = Sweep.env_int "NET_OPS" NT.default_config.ops;
      trace = Sweep.trace_seed <> None;
    }
  in
  Sweep.run ~name:"net"
    (Sweep.seeds ~name:"net"
       ~full:(List.init 200 (fun i -> Int64.of_int (i + 1)))
       ~quick:[ 1L; 2L; 3L; 4L; 5L; 6L ])
    (fun seed ->
      let o = NT.run ~config ~seed () in
      [ (NT.outcome_to_string o, o.mismatches) ])
