module Fs = Invfs.Fs
module V = Postquel.Value

type phase = { phase_name : string; elapsed_s : float; detail : string }

type report = {
  phases : phase list;
  images : int;
  bytes_ingested : int;
  accounts : (string * float) list;
}

(* A synthetic satellite image: a one-byte band count then band-major
   pixels; band 0 values >= 180 count as snow. *)
let make_image rng ~bytes ~snow_fraction =
  let b = Bytes.create bytes in
  Bytes.set b 0 '\005';
  for i = 1 to bytes - 1 do
    let snowy = Simclock.Rng.float rng 1.0 < snow_fraction in
    let v = if snowy then 180 + Simclock.Rng.int rng 76 else Simclock.Rng.int rng 120 in
    Bytes.unsafe_set b i (Char.unsafe_chr v)
  done;
  b

let register_functions fs =
  Fs.define_type fs "tm";
  Fs.register_function fs ~name:"snow" ~file_type:"tm" ~arity:1 (fun ctx args ->
      match args with
      | [ V.Int oid ] ->
        let data = Fs.read_file_at ctx.Fs.qfs ctx.Fs.snapshot ~oid in
        let count = ref 0 in
        for i = 1 to Bytes.length data - 1 do
          if Char.code (Bytes.unsafe_get data i) >= 180 then incr count
        done;
        V.Int (Int64.of_int !count)
      | _ -> V.Null)

let run ?(images = 60) ?(image_kb = 128) () =
  let rng = Simclock.Rng.create 42L in
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let add name kind =
    ignore (Pagestore.Switch.add_device switch ~name ~kind () : Pagestore.Device.t)
  in
  add "disk0" Pagestore.Device.Magnetic_disk;
  add "jukebox" Pagestore.Device.Worm_jukebox;
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let s = Fs.new_session fs in
  register_functions fs;
  let phases = ref [] in
  (* [f] does the work and returns the detail line.  Simulated waits
     between batches go to the "workload.idle" account and are excluded
     from the phase's working time. *)
  let phase name f =
    let t0 = Simclock.Clock.now clock in
    let idle0 = Simclock.Clock.charged clock "workload.idle" in
    let detail = f () in
    let idle = Simclock.Clock.charged clock "workload.idle" -. idle0 in
    phases :=
      {
        phase_name = name;
        elapsed_s = Simclock.Clock.now clock -. t0 -. idle;
        detail;
      }
      :: !phases
  in
  let image_bytes = image_kb * 1024 in
  let path i = Printf.sprintf "/images/tm_%04d.tm" i in

  (* 1. ingest: one transaction per daily batch of images *)
  phase "ingest" (fun () ->
      Fs.mkdir s "/images";
      let i = ref 0 in
      while !i < images do
        Fs.with_transaction s (fun () ->
            for _ = 1 to min 4 (images - !i) do
              let snow = Simclock.Rng.float rng 1.0 in
              let fd = Fs.p_creat s ~ftype:"tm" ~owner:"sequoia" (path !i) in
              let data = make_image rng ~bytes:image_bytes ~snow_fraction:snow in
              ignore (Fs.p_write s fd data image_bytes : int);
              Fs.p_close s fd;
              incr i
            done);
        Simclock.Clock.advance clock ~account:"workload.idle" 3600.
        (* next batch, next day-ish *)
      done;
      Printf.sprintf "%d images x %d KB, daily batches of 4" images image_kb);
  let t_season_end = Relstore.Db.now db in

  (* 2. content queries: the snow function runs inside the data manager *)
  phase "content queries" (fun () ->
      let matches = ref 0 in
      for _ = 1 to 3 do
        let rows =
          Fs.query s
            {|retrieve (filename, snow(file)) where filetype(file) = "tm" and snow(file) > 0|}
        in
        matches := List.length rows
      done;
      Printf.sprintf "3 x retrieve over snow(file); %d matches" !matches);

  (* 3. reprocessing: rewrite a third of the images (new calibration) *)
  phase "reprocess" (fun () ->
      Fs.with_transaction s (fun () ->
          for i = 0 to (images / 3) - 1 do
            let data = make_image rng ~bytes:image_bytes ~snow_fraction:0.5 in
            Fs.write_file s (path (i * 3)) data
          done);
      Printf.sprintf "rewrite %d images in one transaction" (images / 3));

  (* 4. historical reads: compare current vs end-of-season state *)
  phase "time travel" (fun () ->
      for i = 0 to 9 do
        ignore
          (Fs.read_whole_file s ~timestamp:t_season_end (path (i * 3 mod images)) : bytes)
      done;
      "re-read 10 images as of season end");

  (* 5. migration: season-old images sink to the jukebox by rule *)
  phase "migration" (fun () ->
      let rules =
        [
          Invfs.Migrate.rule ~name:"cold-images"
            ~predicate:{|filetype(file) = "tm" and size(file) > 65536|}
            ~target_device:"jukebox";
        ]
      in
      let rep = Invfs.Migrate.run fs rules in
      Printf.sprintf "rule: tm > 64 KB -> jukebox; moved %d files"
        (List.length rep.Invfs.Migrate.moved));

  (* 6. reads from tertiary storage *)
  phase "tertiary reads" (fun () ->
      let cache = Relstore.Db.cache db in
      Pagestore.Bufcache.flush cache;
      Pagestore.Bufcache.crash cache;
      for i = 0 to 4 do
        ignore (Fs.read_whole_file s (path (i * 7 mod images)) : bytes)
      done;
      "5 images back from the jukebox");

  (* 7. housekeeping: vacuum + audit *)
  phase "vacuum + audit" (fun () ->
      let stats = Fs.vacuum_all fs ~mode:`Archive () in
      let audit = Invfs.Fsck.audit fs in
      Printf.sprintf "archived %d versions; audit %s" stats.Relstore.Vacuum.archived
        (if Invfs.Fsck.is_clean audit then "clean" else "PROBLEMS"));

  {
    phases = List.rev !phases;
    images;
    bytes_ingested = images * image_bytes;
    accounts =
      List.filter
        (fun (k, v) -> v > 0.01 && k <> "workload.idle")
        (Simclock.Clock.accounts clock);
  }

let report_to_string r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Sequoia 2000 workload: %d images, %.1f MB ingested\n" r.images
       (float_of_int r.bytes_ingested /. 1048576.));
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "  %-18s %8.2fs   %s\n" p.phase_name p.elapsed_s p.detail))
    r.phases;
  Buffer.add_string buf "  where the time went:\n";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "    %-22s %8.2fs\n" k v))
    r.accounts;
  Buffer.contents buf
