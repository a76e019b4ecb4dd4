module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Link = Netsim.Link
module Clock = Simclock.Clock
module Rng = Simclock.Rng
module Device = Pagestore.Device

(* A fleet: one coordinator (namespace + placement map) plus N shard
   servers (chunk data), every machine a full Inversion stack — its own
   disk, buffer cache, database and Fs — sharing one simulated clock and
   one network cost model.

   Placement never travels on its own: shards learn the map (and renew
   their serving lease) exclusively from heartbeat replies, so a shard
   that cannot reach the coordinator soon cannot serve at all — the
   self-fence half of the no-split-brain argument.  The coordinator's
   half is patience: it declares a shard dead only [dead_after] seconds
   after its last heartbeat, and [dead_after] exceeds the serving lease
   by a full lease, so by the time a new epoch exists the old owner has
   provably stopped answering. *)

type member = { mid : int; server : Server.t }

type t = {
  clock : Clock.t;
  net : Netsim.t;
  nshards : int;
  nbuckets : int;
  hb_interval : float;
  serve_lease_s : float;
  dead_after : float;
  coord : member;
  shards : member array; (* index i-1 = shard i *)
  hb_links : Link.t array; (* shard i's heartbeat connection to the coordinator *)
  hb_asm : Wire.Assembly.t array;
  admin : Client.t array; (* coordinator's storage-network connection to shard i *)
  next_hb : float array;
  partitioned : bool array; (* heartbeat path cut (client links unaffected) *)
  mutable hb_rid : int64;
  mutable coord_sess : Fs.session option;
  mutable pumping : bool; (* re-entrancy guard: admin clients pump too *)
  mutable before_recovery : int -> unit;
  mutable after_recovery : int -> unit;
  mutable on_migrate : (oid:int64 -> bucket:int -> unit) option;
  mutable hb_sent : int;
  mutable migrations : int;
  mutable handoffs_completed : int;
  mutable drops_done : int;
}

let nshards t = t.nshards
let nbuckets t = t.nbuckets
let hb_interval t = t.hb_interval

let member_server t i =
  if i = 0 then t.coord.server
  else if i >= 1 && i <= t.nshards then t.shards.(i - 1).server
  else invalid_arg (Printf.sprintf "Cluster.member_server: no member %d" i)

let coord_role t =
  match Server.role t.coord.server with
  | Server.Coordinator c -> c
  | Server.Standalone | Server.Shard _ -> assert false

let shard_role t i =
  match Server.role t.shards.(i - 1).server with
  | Server.Shard r -> r
  | Server.Standalone | Server.Coordinator _ -> assert false

(* The same flat per-shard chunk namespace the server dispatch uses. *)
let shard_path oid = Printf.sprintf "/o%Ld" oid

(* {2 Durable placement}

   The map lives as a dotfile in the coordinator's own namespace, written
   through the recovery-tested Fs commit path: a coordinator crash
   between fence and handoff reloads epoch, ownership, the in-flight
   handoff list and the pending drop list, and simply resumes.  The
   writes run outside any client transaction; a transient lock conflict
   with concurrent metadata traffic just retries. *)

let placement_file = "/.placement"

let serialize (c : Server.coord_role) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "epoch %d\n" c.Server.c_epoch);
  Buffer.add_string b "owner";
  Array.iter (fun o -> Buffer.add_string b (Printf.sprintf " %d" o)) c.Server.c_owner;
  Buffer.add_char b '\n';
  List.iter
    (fun (bk, src, dst) -> Buffer.add_string b (Printf.sprintf "handoff %d %d %d\n" bk src dst))
    c.Server.c_handoff;
  List.iter
    (fun (bk, sh) -> Buffer.add_string b (Printf.sprintf "drop %d %d\n" bk sh))
    c.Server.c_drops;
  Buffer.contents b

let deserialize s (c : Server.coord_role) =
  c.Server.c_handoff <- [];
  c.Server.c_drops <- [];
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "epoch"; e ] -> c.Server.c_epoch <- int_of_string e
      | "owner" :: rest ->
        List.iteri
          (fun i o -> if i < Array.length c.Server.c_owner then c.Server.c_owner.(i) <- int_of_string o)
          rest
      | [ "handoff"; bk; src; dst ] ->
        c.Server.c_handoff <-
          c.Server.c_handoff @ [ (int_of_string bk, int_of_string src, int_of_string dst) ]
      | [ "drop"; bk; sh ] -> c.Server.c_drops <- c.Server.c_drops @ [ (int_of_string bk, int_of_string sh) ]
      | _ -> ())
    (String.split_on_char '\n' s)

let coord_session t =
  match t.coord_sess with
  | Some s -> s
  | None ->
    let s = Fs.new_session (Server.fs t.coord.server) in
    t.coord_sess <- Some s;
    s

let persist t =
  let c = coord_role t in
  let img = Bytes.of_string (serialize c) in
  let rec go k =
    match Fs.write_file (coord_session t) placement_file img with
    | () -> ()
    | exception Errors.Fs_error ((Errors.EAGAIN | Errors.EDEADLK | Errors.ETIMEDOUT), _) when k < 50 ->
      Clock.advance t.clock ~account:"cluster.placement" 0.002;
      go (k + 1)
  in
  go 0

let load_placement t =
  let c = coord_role t in
  (match Fs.read_whole_file (coord_session t) placement_file with
  | img -> deserialize (Bytes.to_string img) c
  | exception Errors.Fs_error (Errors.ENOENT, _) -> ());
  (* Fresh grace period: a rebooted coordinator gives every shard
     [dead_after] from now before declaring it dead — live ones
     heartbeat within [hb_interval] anyway. *)
  Hashtbl.reset c.Server.c_last_hb;
  let now = Clock.now t.clock in
  for i = 1 to t.nshards do
    Hashtbl.replace c.Server.c_last_hb i now
  done

(* {2 Heartbeats} *)

let send_heartbeats t =
  let now = Clock.now t.clock in
  Array.iteri
    (fun ix _ ->
      if now >= t.next_hb.(ix) then begin
        t.next_hb.(ix) <- now +. t.hb_interval;
        if not t.partitioned.(ix) then begin
          let epoch = (shard_role t (ix + 1)).Server.sh_epoch in
          t.hb_rid <- Int64.add t.hb_rid 1L;
          t.hb_sent <- t.hb_sent + 1;
          List.iter
            (fun f -> Link.send t.hb_links.(ix) Link.To_server f)
            (Wire.encode_request ~sid:0L ~rid:t.hb_rid (Wire.Heartbeat { shard = ix + 1; epoch }))
        end
      end)
    t.shards

let apply_placement t i (p : Wire.placement) =
  let r = shard_role t i in
  (* Never regress the epoch: a duplicated (late) heartbeat reply must
     not re-arm ownership a newer reply already revoked. *)
  if p.Wire.p_epoch >= r.Server.sh_epoch then begin
    r.Server.sh_epoch <- p.Wire.p_epoch;
    r.Server.sh_owner <- Array.copy p.Wire.p_owner;
    r.Server.sh_handoff <- p.Wire.p_handoff;
    r.Server.sh_lease_until <- Clock.now t.clock +. t.serve_lease_s
  end

let drain_hb t =
  Array.iteri
    (fun ix _ ->
      let link = t.hb_links.(ix) in
      let rec go () =
        match Link.recv link Link.To_client with
        | None -> ()
        | Some (frame, _poison) ->
          (if not t.partitioned.(ix) then
             match Wire.decode_header frame with
             | Some h -> (
               match Wire.Assembly.add t.hb_asm.(ix) h with
               | `Pending -> ()
               | `Complete payload -> (
                 match Wire.decode_reply payload with
                 | Some (Wire.Ok_reply { result = Wire.R_placement p; _ }) ->
                   apply_placement t (ix + 1) p
                 | Some _ | None -> ()))
             | None -> () (* corrupt frame: wire noise *));
          go ()
      in
      go ())
    t.shards

(* {2 Failure detection and fencing} *)

let live_shards t c ~except =
  let now = Clock.now t.clock in
  let live = ref [] in
  for j = t.nshards downto 1 do
    if j <> except then
      match Hashtbl.find_opt c.Server.c_last_hb j with
      | Some l when now -. l <= t.dead_after -> live := j :: !live
      | Some _ | None -> ()
  done;
  !live

let detect_failures t =
  let c = coord_role t in
  let now = Clock.now t.clock in
  for dead = 1 to t.nshards do
    match Hashtbl.find_opt c.Server.c_last_hb dead with
    | Some last
      when now -. last > t.dead_after && Array.exists (fun o -> o = dead) c.Server.c_owner -> (
      match live_shards t c ~except:dead with
      | [] -> () (* nowhere to fail over to; keep waiting *)
      | live ->
        (* Snapshot first: a new epoch becomes publishable (through
           heartbeat replies) the moment it exists in memory, so if the
           durable write below fails the whole fence must roll back —
           otherwise a coordinator crash could reload the old epoch and
           mint the same number for a different ownership map, defeating
           the exact-epoch fence. *)
        let epoch0 = c.Server.c_epoch in
        let owner0 = Array.copy c.Server.c_owner in
        let handoff0 = c.Server.c_handoff in
        let drops0 = c.Server.c_drops in
        let fences0 = c.Server.c_fence_events in
        c.Server.c_epoch <- c.Server.c_epoch + 1;
        c.Server.c_fence_events <- c.Server.c_fence_events + 1;
        let k = ref 0 in
        Array.iteri
          (fun b o ->
            if o = dead then begin
              let dst = List.nth live (!k mod List.length live) in
              incr k;
              c.Server.c_owner.(b) <- dst;
              (* If the bucket was already mid-handoff the data never
                 left the original source: keep that source, retarget
                 the destination (chained failovers) — and queue a drop
                 for the abandoned destination, whose partial copies
                 nothing else would ever garbage-collect. *)
              (match List.find_opt (fun (b', _, _) -> b' = b) c.Server.c_handoff with
              | Some (_, _, old_dst)
                when old_dst <> dst && not (List.mem (b, old_dst) c.Server.c_drops) ->
                c.Server.c_drops <- (b, old_dst) :: c.Server.c_drops
              | Some _ | None -> ());
              let src =
                match List.find_opt (fun (b', _, _) -> b' = b) c.Server.c_handoff with
                | Some (_, s0, _) -> s0
                | None -> dead
              in
              (* Failing back to that original source needs no handoff: it
                 still holds the one complete copy, and completing a
                 handoff would queue a drop of it. *)
              c.Server.c_handoff <-
                (if src = dst then [] else [ (b, src, dst) ])
                @ List.filter (fun (b', _, _) -> b' <> b) c.Server.c_handoff;
              (* A pending drop aimed at the shard that just became the
                 owner would discard the soon-to-be-authoritative copy
                 once the handoff commits: cancel it. *)
              c.Server.c_drops <-
                List.filter (fun (b', sh') -> not (b' = b && sh' = dst)) c.Server.c_drops
            end)
          c.Server.c_owner;
        (match persist t with
        | () -> ()
        | exception e ->
          c.Server.c_epoch <- epoch0;
          c.Server.c_owner <- owner0;
          c.Server.c_handoff <- handoff0;
          c.Server.c_drops <- drops0;
          c.Server.c_fence_events <- fences0;
          (* An Fs-level refusal (lock conflict past the retry budget,
             disk full, ...) just means no failover this pump — the next
             one retries from unchanged state.  Anything else (injected
             crash) propagates to the crash machinery. *)
          (match e with Errors.Fs_error _ -> () | _ -> raise e)))
    | Some _ | None -> ()
  done

(* {2 Handoff: fence -> copy -> commit -> drop}

   Every step is idempotent and the progress marker (the handoff entry,
   then the drop entry) is durable, so a crash of the coordinator — or
   of either shard — anywhere in the middle restarts cleanly: the copy
   phase re-sends whole files ([Migrate_in] overwrites), the commit is a
   single durable placement write, and the garbage drop retries until
   the stale copy is gone. *)

let oids_in_bucket t b =
  let sess = coord_session t in
  let ts = Relstore.Db.now (Fs.db (Server.fs t.coord.server)) in
  let acc = ref [] in
  let rec walk dir =
    let names = try Fs.readdir sess ~timestamp:ts dir with Errors.Fs_error _ -> [] in
    List.iter
      (fun name ->
        if String.length name > 0 && name.[0] <> '.' then begin
          let path = if dir = "/" then "/" ^ name else dir ^ "/" ^ name in
          match Fs.stat sess ~timestamp:ts path with
          | att ->
            if att.Invfs.Fileatt.ftype = "directory" then walk path
            else if Wire.bucket_of ~nbuckets:t.nbuckets att.Invfs.Fileatt.file = b then
              acc := att.Invfs.Fileatt.file :: !acc
          | exception Errors.Fs_error _ -> ()
        end)
      names
  in
  walk "/";
  !acc

let drive_handoff t =
  let c = coord_role t in
  match c.Server.c_handoff with
  | [] -> ()
  | entries ->
    List.iter
      (fun (b, src, dst) ->
        let epoch0 = c.Server.c_epoch in
        try
          let oids = oids_in_bucket t b in
          List.iter
            (fun oid ->
              (* A crash injected by the migrate hook (or a fence racing
                 a second failover) changes the epoch under us: abandon
                 this pass, the reloaded handoff list drives the redo. *)
              if c.Server.c_epoch <> epoch0 then raise Exit;
              let data = Client.c_fetch_chunks t.admin.(src - 1) ~oid in
              (match t.on_migrate with Some f -> f ~oid ~bucket:b | None -> ());
              if c.Server.c_epoch <> epoch0 then raise Exit;
              if data <> "" then begin
                Client.c_migrate_in t.admin.(dst - 1) ~oid ~epoch:epoch0 ~data;
                t.migrations <- t.migrations + 1
              end)
            oids;
          if c.Server.c_epoch = epoch0 then begin
            c.Server.c_handoff <- List.filter (fun (b', _, _) -> b' <> b) c.Server.c_handoff;
            if not (List.mem (b, src) c.Server.c_drops) then
              c.Server.c_drops <- (b, src) :: c.Server.c_drops;
            t.handoffs_completed <- t.handoffs_completed + 1;
            persist t
          end
        with
        | Exit -> ()
        | Errors.Fs_error _ -> () (* a side unreachable: retry next pump *))
      entries

let drive_drops t =
  let c = coord_role t in
  if c.Server.c_drops <> [] then begin
    let remaining =
      List.filter
        (fun (b, sh) ->
          match Client.c_drop_bucket t.admin.(sh - 1) ~bucket:b ~epoch:c.Server.c_epoch with
          | () ->
            t.drops_done <- t.drops_done + 1;
            false
          | exception Errors.Fs_error _ -> true)
        c.Server.c_drops
    in
    if List.length remaining <> List.length c.Server.c_drops then begin
      c.Server.c_drops <- remaining;
      persist t
    end
  end

(* {2 The cluster pump} *)

let pump t =
  if not t.pumping then begin
    t.pumping <- true;
    Fun.protect
      ~finally:(fun () -> t.pumping <- false)
      (fun () ->
        send_heartbeats t;
        Server.pump t.coord.server;
        drain_hb t;
        Array.iter (fun m -> Server.pump m.server) t.shards;
        detect_failures t;
        drive_handoff t;
        drive_drops t)
  end

let set_partitioned t ~shard on =
  if shard < 1 || shard > t.nshards then
    invalid_arg (Printf.sprintf "Cluster.set_partitioned: no shard %d" shard);
  t.partitioned.(shard - 1) <- on;
  if on then Link.clear t.hb_links.(shard - 1)

let crash_member t i = Server.crash_now (member_server t i)

let set_before_recovery t f = t.before_recovery <- f
let set_after_recovery t f = t.after_recovery <- f
let set_on_migrate t f = t.on_migrate <- f

(* {2 Construction} *)

let make_member ~clock ~mid =
  let switch = Pagestore.Switch.create ~clock in
  let _dev = Pagestore.Switch.add_device switch ~name:(Printf.sprintf "disk%d" mid) ~kind:Device.Magnetic_disk () in
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let server = Server.create ~fs () in
  { mid; server }

let create ~clock ~net ~rng ?(nshards = 2) ?(nbuckets = 16) ?(hb_interval = 0.5) ?serve_lease_s
    ?dead_after () =
  if nshards < 1 then invalid_arg "Cluster.create: nshards must be >= 1";
  if nbuckets < nshards then invalid_arg "Cluster.create: nbuckets must be >= nshards";
  let serve_lease_s =
    match serve_lease_s with Some x -> x | None -> 2. *. hb_interval
  in
  let dead_after = match dead_after with Some x -> x | None -> 2. *. serve_lease_s in
  if dead_after <= serve_lease_s then
    invalid_arg "Cluster.create: dead_after must exceed serve_lease_s (the fence ordering argument)";
  let coord = make_member ~clock ~mid:0 in
  let shards = Array.init nshards (fun ix -> make_member ~clock ~mid:(ix + 1)) in
  Server.set_role coord.server
    (Server.Coordinator
       {
         Server.c_nbuckets = nbuckets;
         c_lease_s = serve_lease_s;
         c_epoch = 1;
         c_owner = Array.init nbuckets (fun b -> 1 + (b mod nshards));
         c_handoff = [];
         c_drops = [];
         c_last_hb = Hashtbl.create 8;
         c_heartbeats = 0;
         c_fence_events = 0;
       });
  Array.iteri
    (fun ix m ->
      Server.set_role m.server
        (Server.Shard
           {
             Server.shard_id = ix + 1;
             nbuckets;
             sh_epoch = 0;
             sh_owner = [||];
             sh_handoff = [];
             sh_lease_until = 0.;
             sh_stale_rejects = 0;
           }))
    shards;
  let hb_links =
    Array.map
      (fun _ ->
        let l = Link.create net in
        Server.attach coord.server l;
        l)
      shards
  in
  let admin =
    Array.map
      (fun m ->
        let link = Link.create net in
        Client.connect ~server:m.server ~link ~rng:(Rng.split rng) ())
      shards
  in
  let t =
    {
      clock;
      net;
      nshards;
      nbuckets;
      hb_interval;
      serve_lease_s;
      dead_after;
      coord;
      shards;
      hb_links;
      hb_asm = Array.map (fun _ -> Wire.Assembly.create ()) hb_links;
      admin;
      next_hb = Array.make nshards 0.;
      partitioned = Array.make nshards false;
      hb_rid = 0L;
      coord_sess = None;
      pumping = false;
      before_recovery = (fun _ -> ());
      after_recovery = (fun _ -> ());
      on_migrate = None;
      hb_sent = 0;
      migrations = 0;
      handoffs_completed = 0;
      drops_done = 0;
    }
  in
  Server.set_on_crash coord.server (fun srv ->
      t.before_recovery 0;
      ignore (Fs.crash_and_recover (Server.fs srv) : Fs.recovery);
      t.coord_sess <- None;
      load_placement t;
      t.after_recovery 0);
  Array.iteri
    (fun ix m ->
      Server.set_on_crash m.server (fun srv ->
          t.before_recovery (ix + 1);
          ignore (Fs.crash_and_recover (Server.fs srv) : Fs.recovery);
          (* The reboot wiped the serving lease (the shard knows
             nothing); heartbeat immediately so the next pump re-arms
             it instead of waiting out the interval. *)
          t.next_hb.(ix) <- 0.;
          t.after_recovery (ix + 1)))
    shards;
  persist t;
  (* Bootstrap: one round of heartbeats arms every shard with epoch 1
     before any client traffic exists. *)
  pump t;
  pump t;
  t

let internal_links t =
  List.concat
    [
      Array.to_list (Array.map (fun l -> (0, l)) t.hb_links);
      List.mapi (fun ix c -> (ix + 1, Client.link c)) (Array.to_list t.admin);
    ]

(* {2 Composite connections}

   One client-side handle speaking to the whole fleet: metadata through
   the coordinator, data through the owning shard, routed by the cached
   placement map.  A [Wrong_shard] (ESTALE) or busy-handoff (EBUSY)
   refusal is definitively-not-executed: stand back half a heartbeat,
   pump the cluster (so detection, failover and handoff make progress),
   refresh the cache and retry — the client-visible blackout of a
   failover is this loop riding it out. *)

type conn = {
  cl : t;
  coord_c : Client.t;
  shard_c : Client.t array;
  mutable pl_epoch : int;
  mutable pl_owner : int array;
  mutable redirects : int;
}

let connect t ?config ?(on_link = fun _tag _link -> ()) ~rng () =
  let mk ~tag server =
    let link = Link.create t.net in
    on_link tag link;
    Client.connect ?config ~server ~link ~rng:(Rng.split rng) ()
  in
  let coord_c = mk ~tag:0 t.coord.server in
  let shard_c = Array.init t.nshards (fun ix -> mk ~tag:(ix + 1) t.shards.(ix).server) in
  { cl = t; coord_c; shard_c; pl_epoch = 0; pl_owner = [||]; redirects = 0 }

let coord conn = conn.coord_c
let conn_clients conn = conn.coord_c :: Array.to_list conn.shard_c
let redirects conn = conn.redirects

let refresh_placement conn =
  let p = Client.c_get_placement conn.coord_c in
  conn.pl_epoch <- p.Wire.p_epoch;
  conn.pl_owner <- p.Wire.p_owner

let max_redirects = 16

let rec with_shard conn ~oid ~attempt f =
  pump conn.cl;
  if conn.pl_epoch = 0 || Array.length conn.pl_owner = 0 then refresh_placement conn;
  let b = Wire.bucket_of ~nbuckets:conn.cl.nbuckets oid in
  let sh = conn.pl_owner.(b) in
  match f conn.shard_c.(sh - 1) conn.pl_epoch with
  | v -> v
  | exception Errors.Fs_error ((Errors.ESTALE | Errors.EBUSY), _) when attempt < max_redirects ->
    conn.redirects <- conn.redirects + 1;
    (* long enough for a heartbeat round (or one handoff step) to land *)
    Clock.advance conn.cl.clock ~account:"cluster.redirect" (0.5 *. conn.cl.hb_interval);
    pump conn.cl;
    (try refresh_placement conn with Errors.Fs_error _ -> ());
    with_shard conn ~oid ~attempt:(attempt + 1) f

let shard_write conn ~oid ~off ~data =
  with_shard conn ~oid ~attempt:0 (fun c epoch -> Client.c_shard_write c ~oid ~off ~data ~epoch)

let shard_read conn ~oid ~off ~len =
  with_shard conn ~oid ~attempt:0 (fun c epoch -> Client.c_shard_read c ~oid ~off ~len ~epoch)

let shard_truncate conn ~oid ~size =
  with_shard conn ~oid ~attempt:0 (fun c epoch -> Client.c_shard_truncate c ~oid ~size ~epoch)

(* {2 Authoritative durable reads (harness verification)} *)

let peek_data t ~oid =
  let c = coord_role t in
  let b = Wire.bucket_of ~nbuckets:t.nbuckets oid in
  (* Mid-handoff the source still holds the one complete, fenced copy;
     otherwise the owner does. *)
  let sh =
    match List.find_opt (fun (b', _, _) -> b' = b) c.Server.c_handoff with
    | Some (_, src, _) -> src
    | None -> c.Server.c_owner.(b)
  in
  let fs = Server.fs t.shards.(sh - 1).server in
  let sess = Fs.new_session fs in
  let ts = Relstore.Db.now (Fs.db fs) in
  let path = shard_path oid in
  if Fs.exists sess ~timestamp:ts path then
    Bytes.to_string (Fs.read_whole_file sess ~timestamp:ts path)
  else ""

(* {2 Counters} *)

type stats = {
  epoch : int;
  fence_events : int;
  heartbeats_sent : int;
  heartbeats_seen : int;
  stale_rejects : int;
  migrations : int;
  handoffs_completed : int;
  handoffs_pending : int;
  drops_pending : int;
  drops_done : int;
}

let stats t =
  let c = coord_role t in
  let stale = ref 0 in
  for i = 1 to t.nshards do
    stale := !stale + (shard_role t i).Server.sh_stale_rejects
  done;
  {
    epoch = c.Server.c_epoch;
    fence_events = c.Server.c_fence_events;
    heartbeats_sent = t.hb_sent;
    heartbeats_seen = c.Server.c_heartbeats;
    stale_rejects = !stale;
    migrations = t.migrations;
    handoffs_completed = t.handoffs_completed;
    handoffs_pending = List.length c.Server.c_handoff;
    drops_pending = List.length c.Server.c_drops;
    drops_done = t.drops_done;
  }

(* {2 Cross-shard audit}

   Gather the inputs {!Invfs.Fsck.cross_shard_audit} wants — the durable
   placement map, every oid the coordinator namespace references, and
   each shard's locally-resident chunk copies (a lock-free timestamped
   readdir of its flat [/o<oid>] store) — and run the placement walk. *)

let named_oids t =
  let sess = Fs.new_session (Server.fs t.coord.server) in
  let ts = Relstore.Db.now (Fs.db (Server.fs t.coord.server)) in
  let acc = ref [] in
  let rec walk dir =
    let names = try Fs.readdir sess ~timestamp:ts dir with Errors.Fs_error _ -> [] in
    List.iter
      (fun name ->
        if String.length name > 0 && name.[0] <> '.' then begin
          let path = if dir = "/" then "/" ^ name else dir ^ "/" ^ name in
          match Fs.stat sess ~timestamp:ts path with
          | att ->
            if att.Invfs.Fileatt.ftype = "directory" then walk path
            else acc := att.Invfs.Fileatt.file :: !acc
          | exception Errors.Fs_error _ -> ()
        end)
      names
  in
  walk "/";
  !acc

let resident_oids t k =
  let fs = Server.fs t.shards.(k - 1).server in
  let sess = Fs.new_session fs in
  let ts = Relstore.Db.now (Fs.db fs) in
  let names = try Fs.readdir sess ~timestamp:ts "/" with Errors.Fs_error _ -> [] in
  List.filter_map
    (fun name ->
      if String.length name > 1 && name.[0] = 'o' then
        Int64.of_string_opt (String.sub name 1 (String.length name - 1))
      else None)
    names

let cross_shard_audit t =
  let c = coord_role t in
  Invfs.Fsck.cross_shard_audit ~nshards:t.nshards
    ~owner:(Array.copy c.Server.c_owner)
    ~handoff:c.Server.c_handoff ~drops:c.Server.c_drops
    ~bucket_of:(fun oid -> Wire.bucket_of ~nbuckets:t.nbuckets oid)
    ~named:(named_oids t)
    ~resident:(List.init t.nshards (fun i -> (i + 1, Some (resident_oids t (i + 1)))))
