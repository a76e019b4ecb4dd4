type policy = {
  max_attempts : int;
  base_backoff_s : float;
  backoff_multiplier : float;
}

let default_policy = { max_attempts = 3; base_backoff_s = 0.001; backoff_multiplier = 4.0 }

(* Registry twins of the clock-tick counters ("resilient.retry" etc.):
   the unified registry sums across devices/clocks, the ticks stay the
   per-clock legacy view.  Bare int increments — no allocation. *)
let m_retries = Obs.Metrics.counter "resilient.retries"
let m_failovers = Obs.Metrics.counter "resilient.failovers"
let m_repairs = Obs.Metrics.counter "resilient.repairs"

let backoff policy clock attempt =
  Simclock.Clock.tick clock "resilient.retry";
  Obs.Metrics.incr m_retries;
  if Obs.on Obs.Device then
    Obs.event Obs.Device "resilient.retry" ~args:[ ("attempt", Obs.I attempt) ] ();
  Simclock.Clock.advance clock ~account:"resilient.backoff"
    (policy.base_backoff_s *. (policy.backoff_multiplier ** float_of_int (attempt - 1)))

(* One device, no failover: transfer + checksum verification, retrying
   transient faults and transient-looking corruption with exponential
   backoff.  Retries that do not heal are promoted to Media_failure — by
   then the fault is permanent as far as this copy is concerned. *)
let read_with_retry policy ~charged ~cont dev ~segid ~blkno frame =
  let clock = Device.clock dev in
  let transfer () =
    if not charged then Device.peek_block dev ~segid ~blkno frame
    else if cont then Device.read_block_cont dev ~segid ~blkno frame
    else Device.read_block dev ~segid ~blkno frame
  in
  let rec go attempt =
    match
      transfer ();
      if Page.checksum frame = Device.recorded_checksum dev ~segid ~blkno then Ok ()
      else
        Error
          (Printf.sprintf "checksum mismatch on %s segment %d block %d" (Device.name dev)
             segid blkno)
    with
    | Ok () -> ()
    | Error reason ->
      if attempt >= policy.max_attempts then
        raise (Device.Media_failure { device = Device.name dev; segid; blkno; reason })
      else begin
        backoff policy clock attempt;
        go (attempt + 1)
      end
    | exception Device.Io_fault _ when attempt < policy.max_attempts ->
      backoff policy clock attempt;
      go (attempt + 1)
    | exception Device.Io_fault _ ->
      raise
        (Device.Media_failure
           {
             device = Device.name dev;
             segid;
             blkno;
             reason = "i/o errors persisted through retries";
           })
  in
  go 1

let read_block ?(policy = default_policy) ?(charged = true) ?(cont = false) dev ~segid
    ~blkno frame =
  try read_with_retry policy ~charged ~cont dev ~segid ~blkno frame
  with Device.Media_failure _ as primary_failure -> (
    match Device.segment_mirror dev ~segid with
    | None -> raise primary_failure
    | Some (mdev, msegid) -> (
      Simclock.Clock.tick (Device.clock dev) "resilient.failover";
      Obs.Metrics.incr m_failovers;
      if Obs.on Obs.Device then
        Obs.event Obs.Device "resilient.failover"
          ~args:[ ("dev", Obs.S (Device.name dev)); ("segid", Obs.I segid); ("blkno", Obs.I blkno) ]
          ();
      (* A failover read is never a continuation: the mirror's arm is
         positioned independently of the burst on the primary. *)
      match read_with_retry policy ~charged:true ~cont:false mdev ~segid:msegid ~blkno frame with
      | () ->
        (* Repair the bad primary copy in place, best effort: a stuck block
           or dead primary just stays degraded and the mirror keeps
           serving. *)
        (try
           Device.poke_block dev ~segid ~blkno frame;
           Simclock.Clock.tick (Device.clock dev) "resilient.repair";
           Obs.Metrics.incr m_repairs;
           if Obs.on Obs.Device then
             Obs.event Obs.Device "resilient.repair"
               ~args:
                 [
                   ("dev", Obs.S (Device.name dev)); ("segid", Obs.I segid);
                   ("blkno", Obs.I blkno);
                 ]
               ()
         with Device.Media_failure _ | Device.Io_fault _ -> ())
      (* Crash_injected is deliberately not caught: it propagates. *)
      | exception (Device.Media_failure _ | Device.Io_fault _ | Invalid_argument _) ->
        raise primary_failure))

let write_with_retry policy ~charged dev ~segid ~blkno page =
  let clock = Device.clock dev in
  let transfer () =
    if charged then Device.write_block dev ~segid ~blkno page
    else Device.poke_block dev ~segid ~blkno page
  in
  let rec go attempt =
    match transfer () with
    | () -> ()
    | exception Device.Io_fault _ when attempt < policy.max_attempts ->
      backoff policy clock attempt;
      go (attempt + 1)
  in
  go 1

let write_block ?(policy = default_policy) ?(charged = true) dev ~segid ~blkno page =
  write_with_retry policy ~charged dev ~segid ~blkno page

let verify_or_repair ?(policy = default_policy) dev ~segid ~blkno =
  match Device.verify_block dev ~segid ~blkno with
  | Ok () -> `Clean
  | Error reason -> (
    (* The verified read path does the heavy lifting: retry, mirror
       failover, in-place repair of the primary. *)
    match read_block ~policy dev ~segid ~blkno (Page.create ()) with
    | () -> (
      match Device.verify_block dev ~segid ~blkno with
      | Ok () -> `Repaired
      | Error reason -> `Unrepairable reason)
    | exception Device.Media_failure m -> `Unrepairable m.reason
    | exception Device.Io_fault _ -> `Unrepairable reason)
