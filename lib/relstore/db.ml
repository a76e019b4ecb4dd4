type t = {
  clock : Simclock.Clock.t;
  switch : Pagestore.Switch.t;
  cache : Pagestore.Bufcache.t;
  log : Status_log.t;
  locks : Lock_mgr.t;
  mgr : Txn.manager;
  relations : (string, Heap.t) Hashtbl.t;
  mutable next_relid : int64;
  mutable next_oid : int64;
  (* Time-travel leases: horizons registered by [As_of] readers (history
     fds, clone bases) that the vacuum safe horizon must not pass.  Leases
     are volatile — a crash kills the sessions that held them, and clone
     bases re-register theirs when reloaded. *)
  leases : (int, int64) Hashtbl.t;
  mutable next_lease : int;
  (* Incremental-vacuum page cursors, per relation.  Volatile: a step is
     idempotent, so restarting from block 0 after a crash is merely
     redundant work. *)
  vacuum_cursors : (string, int) Hashtbl.t;
}

let create ?(cache_capacity = 300) ?os_cache_blocks ?readahead_window ?switch
    ?clock () =
  let clock = match clock with Some c -> c | None -> Simclock.Clock.create () in
  let switch =
    match switch with
    | Some s -> s
    | None ->
      let s = Pagestore.Switch.create ~clock in
      let (_ : Pagestore.Device.t) =
        Pagestore.Switch.add_device s ~name:"disk0" ~kind:Pagestore.Device.Magnetic_disk ()
      in
      s
  in
  let cache =
    Pagestore.Bufcache.create ~capacity:cache_capacity ?os_cache_blocks
      ?readahead_window ()
  in
  let log = Status_log.create ~clock in
  let locks = Lock_mgr.create () in
  let mgr = Txn.create_manager ~clock ~log ~locks ~cache in
  (* Any system built the normal way gets trace timestamps for free. *)
  Obs.set_clock clock;
  {
    clock;
    switch;
    cache;
    log;
    locks;
    mgr;
    relations = Hashtbl.create 64;
    next_relid = 1000L;
    next_oid = 10000L;
    leases = Hashtbl.create 16;
    next_lease = 1;
    vacuum_cursors = Hashtbl.create 16;
  }

let clock t = t.clock
let switch t = t.switch
let cache t = t.cache
let status_log t = t.log
let lock_mgr t = t.locks
let txn_manager t = t.mgr
let begin_txn t = Txn.begin_txn t.mgr
let with_txn t f = Txn.with_txn t.mgr f
let now t = Simclock.Clock.timestamp t.clock

let allocate_oid t =
  let oid = t.next_oid in
  t.next_oid <- Int64.add oid 1L;
  oid

let make_relation t ~name ?device ~append_only () =
  if Hashtbl.mem t.relations name then
    invalid_arg (Printf.sprintf "Db.create_relation: relation %s exists" name);
  let dev =
    match device with
    | Some d -> Pagestore.Switch.find t.switch d
    | None -> Pagestore.Switch.default_device t.switch
  in
  let relid = t.next_relid in
  t.next_relid <- Int64.add relid 1L;
  let heap = Heap.create ~cache:t.cache ~device:dev ~log:t.log ~name ~relid ~append_only in
  Hashtbl.replace t.relations name heap;
  heap

let create_relation t ~name ?device () = make_relation t ~name ?device ~append_only:false ()

let find_relation t name =
  match Hashtbl.find_opt t.relations name with
  | Some h -> h
  | None -> raise Not_found

let relation_exists t name = Hashtbl.mem t.relations name

let drop_relation t name =
  let heap = find_relation t name in
  Pagestore.Bufcache.invalidate_segment t.cache (Heap.device heap) ~segid:(Heap.segid heap);
  Pagestore.Device.drop_segment (Heap.device heap) (Heap.segid heap);
  Hashtbl.remove t.relations name

let rename_relation t ~old_name ~new_name =
  let heap = find_relation t old_name in
  if Hashtbl.mem t.relations new_name then
    invalid_arg (Printf.sprintf "Db.rename_relation: %s exists" new_name);
  Hashtbl.remove t.relations old_name;
  Heap.rename heap new_name;
  Hashtbl.replace t.relations new_name heap

let relations t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.relations [] |> List.sort String.compare

let force_group t = Txn.force_group t.mgr

let acquire_lease t ~horizon =
  let id = t.next_lease in
  t.next_lease <- id + 1;
  Hashtbl.replace t.leases id horizon;
  id

let release_lease t id = Hashtbl.remove t.leases id

let oldest_lease t =
  Hashtbl.fold
    (fun _ h acc -> match acc with Some best when best <= h -> acc | _ -> Some h)
    t.leases None

(* The highest horizon the incremental vacuum may use right now:
   min(now, oldest active transaction's begin time, oldest lease).
   Nothing visible to any live snapshot or registered historical reader
   is at or below it. *)
let safe_horizon t =
  let h = now t in
  let h =
    match Status_log.oldest_active_start t.log with
    | Some ts -> min h ts
    | None -> h
  in
  match oldest_lease t with Some l -> min h l | None -> h

let crash t =
  Pagestore.Bufcache.crash t.cache;
  Status_log.crash_recover t.log;
  Lock_mgr.reset t.locks;
  Pagestore.Switch.crash t.switch;
  (* Leases died with the sessions that held them; surviving holders
     (clone bases) re-register as they are reloaded.  Vacuum cursors are
     scratch.  The cache lost its cold-tier pins with its pages — re-arm
     every archive heap's policy. *)
  Hashtbl.reset t.leases;
  Hashtbl.reset t.vacuum_cursors;
  Hashtbl.iter (fun _ heap -> Heap.arm_cache_policy heap) t.relations

(* A relation is degraded when no device holding a copy of it answers:
   its placement device is dead and there is no live mirror.  Everything
   else on the switch keeps serving. *)
let relation_degraded heap =
  let dev = Heap.device heap in
  Pagestore.Device.is_dead dev
  &&
  match Pagestore.Device.segment_mirror dev ~segid:(Heap.segid heap) with
  | Some (m, _) -> Pagestore.Device.is_dead m
  | None -> true

let degraded_relations t = List.filter (fun name -> relation_degraded (find_relation t name)) (relations t)

let verify_relations ?(check = fun heap -> Heap.verify heap) t =
  List.filter_map
    (fun name ->
      let heap = find_relation t name in
      if relation_degraded heap then None (* unreachable, reported via degraded_relations *)
      else
        match check heap with
        | Ok () -> None
        | Error msg -> Some (name, msg)
        | exception Pagestore.Device.Media_failure m ->
          Some (name, Printf.sprintf "media failure: %s (%s/%d/%d)" m.reason m.device m.segid m.blkno))
    (relations t)

let find_jukebox t =
  List.find_opt
    (fun d -> Pagestore.Device.kind d = Pagestore.Device.Worm_jukebox)
    (Pagestore.Switch.devices t.switch)

(* Made on first force, which the vacuum does after closing the pending
   commit batch: the first archive-mode pass over [heap]. *)
let archive t heap =
  lazy
    (let device = Option.map Pagestore.Device.name (find_jukebox t) in
     make_relation t ~name:(Heap.name heap ^ "_arch") ?device ~append_only:true ())

(* Shared by the full pass and the incremental step: close the pending
   commit batch, clamp the horizon to {!safe_horizon} (an explicit one may
   only lower it, so snapshot/clone leases hold every pass back), and
   make the archive heap for [`Archive] if this is its first pass. *)
let vacuum_prologue t ~relation ?horizon ~mode () =
  Txn.force_group t.mgr;
  let heap = find_relation t relation in
  let horizon =
    match horizon with
    | Some h -> min h (safe_horizon t)
    | None -> safe_horizon t
  in
  let mode = match mode with `Discard -> `Discard | `Archive a -> `Archive (Lazy.force a) in
  (heap, horizon, mode)

let vacuum t ~relation ?horizon ~mode ?on_remove () =
  let heap, horizon, mode = vacuum_prologue t ~relation ?horizon ~mode () in
  let st =
    Vacuum.step heap ~mgr:t.mgr ~horizon ~mode ?on_remove ~start_block:0
      ~pages:(max 1 (Heap.nblocks heap)) ()
  in
  {
    Vacuum.scanned = st.Vacuum.s_scanned;
    archived = st.s_archived;
    discarded = st.s_discarded;
    pages_compacted = st.s_compacted;
  }

let vacuum_step t ~relation ?horizon ~mode ?(pages = 4) ?on_remove () =
  let heap, horizon, mode = vacuum_prologue t ~relation ?horizon ~mode () in
  let start_block =
    Option.value (Hashtbl.find_opt t.vacuum_cursors relation) ~default:0
  in
  let st = Vacuum.step heap ~mgr:t.mgr ~horizon ~mode ?on_remove ~start_block ~pages () in
  Hashtbl.replace t.vacuum_cursors relation st.Vacuum.s_next_block;
  st
