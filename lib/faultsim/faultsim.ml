module Device = Pagestore.Device
module Bufcache = Pagestore.Bufcache
module Switch = Pagestore.Switch

type io = Read | Write | Writeback

let io_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Writeback -> "writeback"

type action = Torn of int | Io_error | Crash | Bitrot | Stuck | Device_dead

let action_to_string = function
  | Torn n -> Printf.sprintf "torn:%d" n
  | Io_error -> "io_error"
  | Crash -> "crash"
  | Bitrot -> "bitrot"
  | Stuck -> "stuck"
  | Device_dead -> "device_dead"

type event = {
  seq : int;
  io : io;
  device : string;
  segid : int;
  blkno : int;
  action : action;
}

let event_to_string e =
  Printf.sprintf "#%d %s %s/%d/%d -> %s" e.seq (io_to_string e.io) e.device
    e.segid e.blkno (action_to_string e.action)

type net_action =
  | Net_drop
  | Net_duplicate
  | Net_reorder
  | Net_corrupt
  | Net_partition of int
  | Net_server_crash
  | Net_crash_of of int

let net_action_to_string = function
  | Net_drop -> "net_drop"
  | Net_duplicate -> "net_duplicate"
  | Net_reorder -> "net_reorder"
  | Net_corrupt -> "net_corrupt"
  | Net_partition n -> Printf.sprintf "net_partition:%d" n
  | Net_server_crash -> "net_server_crash"
  | Net_crash_of n -> Printf.sprintf "net_crash_of:%d" n

type net_event = {
  nseq : int;
  ndir : Netsim.Link.dir;
  nbytes : int;
  naction : net_action;
}

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable writebacks : int;
  (* (absolute transfer count, action) sorted ascending; an entry fires
     when its io counter reaches that count *)
  mutable sched_read : (int * action) list;
  mutable sched_write : (int * action) list;
  mutable sched_writeback : (int * action) list;
  mutable log : event list; (* newest first *)
  mutable devices : Device.t list;
  mutable caches : Bufcache.t list;
  (* the network message stream: one counter across every armed link,
     so a plan's schedule is a single global order, like the io streams *)
  mutable net_msgs : int;
  mutable sched_net : (int * net_action) list;
  mutable net_log : net_event list; (* newest first *)
  mutable links : (Netsim.Link.t * int option) list; (* link, instance tag *)
}

let create () =
  {
    reads = 0;
    writes = 0;
    writebacks = 0;
    sched_read = [];
    sched_write = [];
    sched_writeback = [];
    log = [];
    devices = [];
    caches = [];
    net_msgs = 0;
    sched_net = [];
    net_log = [];
    links = [];
  }

let seen t = function
  | Read -> t.reads
  | Write -> t.writes
  | Writeback -> t.writebacks

let writebacks_seen t = t.writebacks

let sched t = function
  | Read -> t.sched_read
  | Write -> t.sched_write
  | Writeback -> t.sched_writeback

let set_sched t io s =
  match io with
  | Read -> t.sched_read <- s
  | Write -> t.sched_write <- s
  | Writeback -> t.sched_writeback <- s

let schedule t ~io ~after action =
  if after < 1 then
    invalid_arg
      (Printf.sprintf "Faultsim.schedule: after must be >= 1 (got %d) for %s on the %s stream"
         after (action_to_string action) (io_to_string io));
  (match (io, action) with
  | Writeback, (Torn _ | Bitrot | Stuck | Device_dead) ->
    invalid_arg
      (Printf.sprintf
         "Faultsim.schedule: %s acts on the medium, so it belongs on a device transfer stream (read/write), not the writeback stream"
         (action_to_string action))
  | _ -> ());
  let at = seen t io + after in
  set_sched t io (List.sort compare ((at, action) :: sched t io))

let schedule_random t rng ~io ~within action =
  if within < 1 then
    invalid_arg
      (Printf.sprintf "Faultsim.schedule_random: within must be >= 1 (got %d) for %s on the %s stream"
         within (action_to_string action) (io_to_string io));
  schedule t ~io ~after:(1 + Simclock.Rng.int rng within) action

let schedule_random_crash t rng ~within =
  if within < 1 then
    invalid_arg
      (Printf.sprintf "Faultsim.schedule_random_crash: within must be >= 1 (got %d)" within);
  schedule_random t rng ~io:Write ~within Crash

let schedule_net t ~after action =
  if after < 1 then
    invalid_arg
      (Printf.sprintf
         "Faultsim.schedule_net: after must be >= 1 (got %d) for %s" after
         (net_action_to_string action));
  (match action with
  | Net_partition n when n < 1 ->
    invalid_arg
      (Printf.sprintf "Faultsim.schedule_net: partition length must be >= 1 (got %d)" n)
  | _ -> ());
  let at = t.net_msgs + after in
  t.sched_net <- List.sort compare ((at, action) :: t.sched_net)

let schedule_net_random t rng ~within action =
  if within < 1 then
    invalid_arg
      (Printf.sprintf "Faultsim.schedule_net_random: within must be >= 1 (got %d) for %s"
         within (net_action_to_string action));
  schedule_net t ~after:(1 + Simclock.Rng.int rng within) action

let pending t =
  List.length t.sched_read + List.length t.sched_write + List.length t.sched_writeback

let net_pending t = List.length t.sched_net
let net_events t = List.rev t.net_log

let pending_media t =
  let media (_, a) =
    match a with
    | Torn _ | Bitrot | Stuck | Device_dead -> true
    | Io_error | Crash -> false
  in
  List.length (List.filter media t.sched_read)
  + List.length (List.filter media t.sched_write)
  + List.length (List.filter media t.sched_writeback)

let clear_schedule t =
  t.sched_read <- [];
  t.sched_write <- [];
  t.sched_writeback <- [];
  t.sched_net <- []

let events t = List.rev t.log

(* Count one transfer on [io]'s stream and pop the scheduled action due at
   this count, if any.  Multiple actions scheduled for the same count fire
   one per transfer, earliest-scheduled first (they stay queued and their
   trigger count is already in the past, so the next transfer fires the
   next one). *)
let fire t io ~device ~segid ~blkno =
  let n = seen t io + 1 in
  (match io with
  | Read -> t.reads <- n
  | Write -> t.writes <- n
  | Writeback -> t.writebacks <- n);
  match sched t io with
  | (at, action) :: rest when at <= n ->
    set_sched t io rest;
    t.log <- { seq = n; io; device; segid; blkno; action } :: t.log;
    Some action
  | _ -> None

let device_hook t dev kind ~segid ~blkno =
  let io = match kind with Device.Io_read -> Read | Device.Io_write -> Write in
  match fire t io ~device:(Device.name dev) ~segid ~blkno with
  | None -> None
  | Some (Torn n) -> Some (Device.Fault_torn n)
  | Some Io_error -> Some Device.Fault_io_error
  | Some Crash -> Some Device.Fault_crash
  | Some Bitrot -> Some Device.Fault_bitrot
  | Some Stuck -> Some Device.Fault_stuck
  | Some Device_dead -> Some Device.Fault_dead

let arm_device t dev =
  if not (List.memq dev t.devices) then begin
    Device.set_fault_hook dev (Some (device_hook t dev));
    t.devices <- dev :: t.devices
  end

let arm_cache t cache =
  if not (List.memq cache t.caches) then begin
    Bufcache.set_writeback_hook cache
      (Some
         (fun ~device ~segid ~blkno ->
           match fire t Writeback ~device ~segid ~blkno with
           (* media-level actions are rejected at schedule time for this
              stream, so only the unreachable-defensive arm lists them *)
           | None | Some (Torn _ | Bitrot | Stuck | Device_dead) -> ()
           | Some Io_error -> raise (Device.Io_fault { device; segid; blkno })
           | Some Crash -> raise (Device.Crash_injected { device; segid; blkno })));
    t.caches <- cache :: t.caches
  end

let arm_switch t sw = List.iter (arm_device t) (Switch.devices sw)

(* Count one message on the (global) net stream and pop the first due
   scheduled action this link may fire, mirroring [fire] for the io
   streams.  An instance-targeted crash ([Net_crash_of]) only fires on a
   server-bound message of a link armed with that instance's tag — a due
   entry seen from any other link stays scheduled and fires on the
   target's next inbound message, so "crash server n mid-request" lands
   on server n no matter whose traffic advanced the counter. *)
let link_hook t tag dir ~bytes =
  let n = t.net_msgs + 1 in
  t.net_msgs <- n;
  let fireable = function
    | Net_crash_of m -> tag = Some m && dir = Netsim.Link.To_server
    | Net_drop | Net_duplicate | Net_reorder | Net_corrupt | Net_partition _
    | Net_server_crash ->
      true
  in
  let rec pick skipped = function
    | (at, a) :: rest when at <= n ->
      if fireable a then begin
        t.sched_net <- List.rev_append skipped rest;
        t.net_log <- { nseq = n; ndir = dir; nbytes = bytes; naction = a } :: t.net_log;
        Some a
      end
      else pick ((at, a) :: skipped) rest
    | l ->
      t.sched_net <- List.rev_append skipped l;
      None
  in
  match pick [] t.sched_net with
  | None -> None
  | Some a ->
    Some
      (match a with
      | Net_drop -> Netsim.Link.Drop
      | Net_duplicate -> Netsim.Link.Duplicate
      | Net_reorder -> Netsim.Link.Reorder
      | Net_corrupt -> Netsim.Link.Corrupt
      | Net_partition n -> Netsim.Link.Partition n
      | Net_server_crash | Net_crash_of _ -> Netsim.Link.Server_crash)

let arm_link t ?tag link =
  if not (List.exists (fun (l, _) -> l == link) t.links) then begin
    Netsim.Link.set_fault_hook link (Some (link_hook t tag));
    t.links <- (link, tag) :: t.links
  end

let disarm t =
  List.iter (fun dev -> Device.set_fault_hook dev None) t.devices;
  List.iter (fun cache -> Bufcache.set_writeback_hook cache None) t.caches;
  List.iter (fun (link, _) -> Netsim.Link.set_fault_hook link None) t.links;
  t.devices <- [];
  t.caches <- [];
  t.links <- []
