(* Long-mode sharded-fleet sweep, run via `dune build @shard`.

   Covers 40 seeded schedules by default — each one a fleet of clients
   against a coordinator plus three shards, with message faults on every
   link, mid-request crashes of any member, boundary crashes rotating
   over the fleet, and heartbeat partitions long enough to force real
   failovers.  SHARD_SEEDS=5,6,7 appends extra comma-separated seeds,
   SHARD_OPS=N lengthens each run, and `--quick` (wired into the default
   `dune runtest`) trims to a fast subset.  `--trace SEED` replays one
   seed with the per-op repro log on stderr. *)

module ST = Benchlib.Shardtest

let () =
  let config =
    {
      ST.default_config with
      ops = Sweep.env_int "SHARD_OPS" ST.default_config.ops;
      trace = Sweep.trace_seed <> None;
    }
  in
  Sweep.run ~name:"shard"
    (Sweep.seeds ~name:"shard"
       ~full:(List.init 40 (fun i -> Int64.of_int (i + 1)))
       ~quick:[ 1L; 2L; 3L; 4L; 5L ])
    (fun seed ->
      let o = ST.run ~config ~seed () in
      [ (ST.outcome_to_string o, o.mismatches) ])
