(* The [namespace] workload: single-process Fs, one session, closed loop.

   About 2,000 files of 300-900 bytes (600 on average) in 32 directories.
   Every file is its own relation, so the set is several times the 300-page
   DBMS pool but inside the OS cache.  Op mix: 50% stat, 15% whole-file read, 5% readdir, 10%
   stat As_of a snapshot taken after populate, 10% unlink (the slot is
   re-created later) and 10% rename.  Every mutation auto-commits.  It puts
   path resolution, Naming, Fileatt, Btree and the commit path under load
   with no wire and no contention. *)

open Bench
module Rng = Simclock.Rng

type cfg = { dirs : int; files : int; ops : int }

let full = { dirs = 32; files = 2000; ops = 2000 }
let tiny = { dirs = 4; files = 40; ops = 150 }

(* File sizes vary around 600 bytes, so the simulated cost of reads and
   creates (which charge per byte) varies with the seed's inputs. *)
let file_size rng = 300 + Rng.int rng 601
let populate_batch = 50

(* The expected state: live path -> contents, per-directory basenames, and
   an O(1) random pick over the live paths. *)
type st = {
  sys : system;
  s : Fs.session;
  ck : checker;
  rng : Rng.t;
  files : (string, bytes) Hashtbl.t;
  dir_names : (string, unit) Hashtbl.t array;
  mutable live : string array;
  mutable nlive : int;
  pos : (string, int) Hashtbl.t;
  dead : string Queue.t;  (** unlinked slots awaiting re-creation *)
  mutable renames : int;
  mutable snap_ts : int64;
  mutable snap_files : (string, bytes) Hashtbl.t;
  mutable snap_paths : string array;
}

let dir_path d = Printf.sprintf "/d%02d" d
let dir_of path = int_of_string (String.sub path 2 2)
let base_of path = String.sub path 5 (String.length path - 5)

let add st path data =
  Hashtbl.replace st.files path data;
  Hashtbl.replace st.dir_names.(dir_of path) (base_of path) ();
  if st.nlive = Array.length st.live then begin
    let bigger = Array.make (2 * st.nlive) "" in
    Array.blit st.live 0 bigger 0 st.nlive;
    st.live <- bigger
  end;
  st.live.(st.nlive) <- path;
  Hashtbl.replace st.pos path st.nlive;
  st.nlive <- st.nlive + 1

let remove st path =
  Hashtbl.remove st.files path;
  Hashtbl.remove st.dir_names.(dir_of path) (base_of path);
  let i = Hashtbl.find st.pos path in
  let last = st.live.(st.nlive - 1) in
  st.live.(i) <- last;
  Hashtbl.replace st.pos last i;
  Hashtbl.remove st.pos path;
  st.nlive <- st.nlive - 1

let pick st = st.live.(Rng.int st.rng st.nlive)

let setup (cfg : cfg) ~seed =
  let clock, db, fs = build_db () in
  let sys = { clock; db; fs; net = None; server = None } in
  let s = Fs.new_session fs in
  let st =
    {
      sys;
      s;
      ck = checker ();
      rng = Rng.create seed;
      files = Hashtbl.create (2 * cfg.files);
      dir_names = Array.init cfg.dirs (fun _ -> Hashtbl.create 64);
      live = Array.make (max 16 cfg.files) "";
      nlive = 0;
      pos = Hashtbl.create (2 * cfg.files);
      dead = Queue.create ();
      renames = 0;
      snap_ts = 0L;
      snap_files = Hashtbl.create 1;
      snap_paths = [||];
    }
  in
  for d = 0 to cfg.dirs - 1 do
    Fs.mkdir s (dir_path d)
  done;
  let i = ref 0 in
  while !i < cfg.files do
    let hi = min cfg.files (!i + populate_batch) in
    Fs.with_transaction s (fun () ->
        for k = !i to hi - 1 do
          let path = Printf.sprintf "%s/f%05d" (dir_path (k mod cfg.dirs)) k in
          let data = Rng.bytes st.rng (file_size st.rng) in
          Fs.write_file s path data;
          add st path data
        done);
    i := hi
  done;
  st.snap_ts <- Fs.snapshot fs;
  st.snap_files <- Hashtbl.copy st.files;
  st.snap_paths <- Array.sub st.live 0 st.nlive;
  st

let sorted_names h = List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) h [])

(* One op of the mix: draw it, run it (timed, and traced when on), check
   its result against the expected state. *)
let step st tr ~op ~user ~written =
  let timed kind cls f = time_op tr st.sys ~op ~kind ~cls f in
  let r = Rng.int st.rng 100 in
  if r < 50 then begin
    let p = pick st in
    let sample, att = timed "stat" Read (fun () -> Fs.stat st.s p) in
    let want = Bytes.length (Hashtbl.find st.files p) in
    if Int64.to_int att.Invfs.Fileatt.size <> want then
      fail st.ck "stat %s: size %Ld, expected %d" p att.Invfs.Fileatt.size want;
    sample
  end
  else if r < 65 then begin
    let p = pick st in
    let sample, data = timed "read" Read (fun () -> Fs.read_whole_file st.s p) in
    check_bytes st.ck ("read " ^ p) ~expect:(Hashtbl.find st.files p) data;
    user := !user + Bytes.length data;
    sample
  end
  else if r < 70 then begin
    let d = Rng.int st.rng (Array.length st.dir_names) in
    let sample, names = timed "readdir" Read (fun () -> Fs.readdir st.s (dir_path d)) in
    if names <> sorted_names st.dir_names.(d) then
      fail st.ck "readdir %s: %d names, expected %d" (dir_path d) (List.length names)
        (Hashtbl.length st.dir_names.(d));
    sample
  end
  else if r < 80 then begin
    let p = st.snap_paths.(Rng.int st.rng (Array.length st.snap_paths)) in
    let sample, att =
      timed "stat_asof" Read (fun () -> Fs.stat st.s ~timestamp:st.snap_ts p)
    in
    let want = Bytes.length (Hashtbl.find st.snap_files p) in
    if Int64.to_int att.Invfs.Fileatt.size <> want then
      fail st.ck "stat %s as of snapshot: size %Ld, expected %d" p att.Invfs.Fileatt.size want;
    sample
  end
  else if r < 90 then begin
    if (not (Queue.is_empty st.dead)) && Rng.bool st.rng then begin
      let p = Queue.pop st.dead in
      let data = Rng.bytes st.rng (file_size st.rng) in
      let sample, () = timed "create" Write (fun () -> Fs.write_file st.s p data) in
      add st p data;
      user := !user + Bytes.length data;
      written := !written + Bytes.length data;
      sample
    end
    else begin
      let p = pick st in
      let sample, () = timed "unlink" Write (fun () -> Fs.unlink st.s p) in
      remove st p;
      Queue.push p st.dead;
      sample
    end
  end
  else begin
    let p = pick st in
    st.renames <- st.renames + 1;
    let q =
      Printf.sprintf "%s/r%05d" (dir_path (Rng.int st.rng (Array.length st.dir_names))) st.renames
    in
    let sample, () = timed "rename" Write (fun () -> Fs.rename st.s p q) in
    let data = Hashtbl.find st.files p in
    remove st p;
    add st q data;
    sample
  end

let run (cfg : cfg) ~seed ~tracer:tr =
  let w0 = wall () in
  let st = setup cfg ~seed in
  let setup_s = wall () -. w0 in
  let user = ref 0 and written = ref 0 in
  let a = snapshot st.sys in
  let samples = List.init cfg.ops (fun op -> step st tr ~op ~user ~written) in
  let phase = diff a (snapshot st.sys) in
  let space_amp = space_amp st.sys ~expect:st.files in
  let recovery_s, recovery_sim_s = crash_and_verify st.ck st.sys ~expect:st.files in
  let sim_s = Int64.to_float phase.d_sim_us /. 1e6 in
  ( {
      setup_s;
      samples;
      lat = samples;
      phase;
      sim_ops_s = float_of_int cfg.ops /. sim_s;
      slo_goodput_ops_s = slo_goodput samples ~span_s:sim_s;
      user_bytes = !user;
      user_written = !written;
      space_amp;
      recovery_s;
      recovery_sim_s;
      failed = 0;
      target =
        { t_sys = st.sys; t_paths = Array.sub st.live 0 (min 64 st.nlive); t_chunk_path = st.live.(0) };
    },
    st.ck )
