type mode = Shared | Exclusive

let mode_to_string = function Shared -> "shared" | Exclusive -> "exclusive"

exception Would_block of { xid : Xid.t; resource : string; holders : Xid.t list }
exception Deadlock of Xid.t

type t = {
  locks : (string, (Xid.t, mode) Hashtbl.t) Hashtbl.t; (* resource -> holders *)
  wait_for : (Xid.t, Xid.t list) Hashtbl.t; (* waiter -> holders it waits on *)
  waiters : (string, (Xid.t, mode) Hashtbl.t) Hashtbl.t;
      (* resource -> blocked requests; a pending Exclusive entry bars
         new Shared grants so a stream of readers cannot starve a
         writer (no barging) *)
  mutable release_gen : int;
      (* bumped on every release_all: parked requests re-try their
         acquisition only when this has advanced, because nothing else
         can have unblocked them *)
}

let wait_queue_length t = Hashtbl.length t.wait_for

let create () =
  let t =
    {
      locks = Hashtbl.create 64;
      wait_for = Hashtbl.create 16;
      waiters = Hashtbl.create 16;
      release_gen = 0;
    }
  in
  (* Live view for dashboards and the load harness; replace-on-register
     means the registry tracks the most recently built manager, which is
     the per-Db singleton in practice. *)
  Obs.Metrics.probe "lock.wait_queue" (fun () -> wait_queue_length t);
  t

(* Registry counters are process-global: the lock manager is a per-Db
   singleton in practice, and lock traffic is interesting in aggregate. *)
let m_acquires = Obs.Metrics.counter "lock.acquires"
let m_waits = Obs.Metrics.counter "lock.waits"
let m_deadlocks = Obs.Metrics.counter "lock.deadlocks"
let m_releases = Obs.Metrics.counter "lock.releases"

let holders_table t resource =
  match Hashtbl.find_opt t.locks resource with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 4 in
    Hashtbl.replace t.locks resource h;
    h

let holders t ~resource =
  match Hashtbl.find_opt t.locks resource with
  | None -> []
  | Some h ->
    Hashtbl.fold (fun xid mode acc -> (xid, mode) :: acc) h []
    |> List.sort (fun (a, _) (b, _) -> Xid.compare a b)

let held_by t xid =
  Hashtbl.fold
    (fun resource h acc ->
      match Hashtbl.find_opt h xid with
      | Some mode -> (resource, mode) :: acc
      | None -> acc)
    t.locks []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let waiting t xid = Option.value ~default:[] (Hashtbl.find_opt t.wait_for xid)

(* Depth-first reachability in the wait-for graph: does [target] appear on
   a wait chain starting from [start]? *)
let reaches t start target =
  let visited = Hashtbl.create 8 in
  let rec go xid =
    if xid = target then true
    else if Hashtbl.mem visited xid then false
    else begin
      Hashtbl.replace visited xid ();
      List.exists go (waiting t xid)
    end
  in
  go start

let conflicting_holders h xid mode =
  Hashtbl.fold
    (fun holder hmode acc ->
      if holder = xid then acc
      else
        match (mode, hmode) with
        | Shared, Shared -> acc
        | Shared, Exclusive | Exclusive, Shared | Exclusive, Exclusive -> holder :: acc)
    h []
  |> List.sort Xid.compare

(* Pending Exclusive requests on [resource] from other transactions.
   A new Shared request must queue behind them: without this, a steady
   stream of readers keeps the resource share-locked forever and the
   writer starves. *)
let exclusive_waiters t xid resource =
  match Hashtbl.find_opt t.waiters resource with
  | None -> []
  | Some w ->
    Hashtbl.fold
      (fun wxid wmode acc ->
        if wxid <> xid && wmode = Exclusive then wxid :: acc else acc)
      w []
    |> List.sort Xid.compare

let drop_waiter t xid resource =
  match Hashtbl.find_opt t.waiters resource with
  | None -> ()
  | Some w ->
    Hashtbl.remove w xid;
    if Hashtbl.length w = 0 then Hashtbl.remove t.waiters resource

let record_waiter t xid resource mode =
  let w =
    match Hashtbl.find_opt t.waiters resource with
    | Some w -> w
    | None ->
      let w = Hashtbl.create 4 in
      Hashtbl.replace t.waiters resource w;
      w
  in
  Hashtbl.replace w xid mode

let acquire t xid ~resource mode =
  let h = holders_table t resource in
  let already =
    match Hashtbl.find_opt h xid with
    | Some Exclusive -> true (* exclusive covers both requests *)
    | Some Shared -> mode = Shared
    | None -> false
  in
  if not already then begin
    let barred =
      (* Holders re-acquiring never queue behind waiters (that would
         deadlock the holder on its own lock); only fresh Shared
         requests defer to a pending writer. *)
      if mode = Shared && not (Hashtbl.mem h xid) then
        exclusive_waiters t xid resource
      else []
    in
    match (conflicting_holders h xid mode, barred) with
    | [], [] ->
      Hashtbl.replace h xid mode;
      drop_waiter t xid resource;
      Hashtbl.remove t.wait_for xid;
      Obs.Metrics.incr m_acquires;
      if Obs.on Obs.Lock then
        Obs.event Obs.Lock "lock.acquire"
          ~args:
            [ ("xid", Obs.I xid); ("resource", Obs.S resource);
              ("mode", Obs.S (mode_to_string mode));
            ]
          ()
    | conflicts, barred ->
      let blockers = List.sort_uniq Xid.compare (conflicts @ barred) in
      (* Would waiting on [blockers] complete a cycle back to us? *)
      if List.exists (fun holder -> reaches t holder xid) blockers then begin
        Hashtbl.remove t.wait_for xid;
        drop_waiter t xid resource;
        Obs.Metrics.incr m_deadlocks;
        if Obs.on Obs.Lock then
          Obs.event Obs.Lock "lock.deadlock"
            ~args:[ ("xid", Obs.I xid); ("resource", Obs.S resource) ]
            ();
        raise (Deadlock xid)
      end;
      record_waiter t xid resource mode;
      Hashtbl.replace t.wait_for xid blockers;
      Obs.Metrics.incr m_waits;
      if Obs.on Obs.Lock then
        Obs.event Obs.Lock "lock.wait"
          ~args:
            [ ("xid", Obs.I xid); ("resource", Obs.S resource);
              ("holders", Obs.I (List.length blockers));
            ]
          ();
      raise (Would_block { xid; resource; holders = blockers })
  end

let try_acquire t xid ~resource mode =
  match acquire t xid ~resource mode with
  | () -> true
  | exception Would_block _ -> false

let reset t =
  Hashtbl.reset t.locks;
  Hashtbl.reset t.wait_for;
  Hashtbl.reset t.waiters

(* No trace event here, only the counter: commit emits its "txn.commit"
   point *after* releasing, and the trace-checked invariant "a committed
   transaction's span contains nothing after txn.commit" depends on the
   release being silent. *)
let release_generation t = t.release_gen

let release_all t xid =
  t.release_gen <- t.release_gen + 1;
  Obs.Metrics.incr m_releases;
  Hashtbl.iter (fun _ h -> Hashtbl.remove h xid) t.locks;
  Hashtbl.remove t.wait_for xid;
  (* A transaction that ends while blocked abandons its queue spot, so
     a dead writer cannot bar readers forever. *)
  let abandoned =
    Hashtbl.fold
      (fun resource w acc -> if Hashtbl.mem w xid then resource :: acc else acc)
      t.waiters []
  in
  List.iter (fun resource -> drop_waiter t xid resource) abandoned;
  (* Anyone recorded as waiting for [xid] no longer is. *)
  let updates =
    Hashtbl.fold
      (fun waiter deps acc ->
        if List.mem xid deps then (waiter, List.filter (fun d -> d <> xid) deps) :: acc
        else acc)
      t.wait_for []
  in
  let update (waiter, deps) =
    if deps = [] then Hashtbl.remove t.wait_for waiter
    else Hashtbl.replace t.wait_for waiter deps
  in
  List.iter update updates
