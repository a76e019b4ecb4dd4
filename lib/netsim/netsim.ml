type params = {
  bandwidth_bps : float;
  latency_s : float;
  mss : int;
  per_segment_cpu_s : float;
  per_call_cpu_s : float;
}

let tcp_1993 =
  {
    bandwidth_bps = 10e6;
    latency_s = 0.0008;
    mss = 1460;
    per_segment_cpu_s = 0.0028;
    per_call_cpu_s = 0.004;
  }

let udp_rpc_1993 =
  {
    bandwidth_bps = 10e6;
    latency_s = 0.0008;
    mss = 1460;
    per_segment_cpu_s = 0.00045;
    per_call_cpu_s = 0.0012;
  }

type t = {
  clock : Simclock.Clock.t;
  p : params;
  mutable messages : int;
  mutable bytes_sent : int;
  mutable retries : int;
  mutable timeouts : int;
}

type net = t

let create ~clock p =
  { clock; p; messages = 0; bytes_sent = 0; retries = 0; timeouts = 0 }

let clock t = t.clock
let params t = t.p
let messages t = t.messages
let bytes_sent t = t.bytes_sent
let retries t = t.retries
let timeouts t = t.timeouts
let note_retry t = t.retries <- t.retries + 1
let note_timeout t = t.timeouts <- t.timeouts + 1

let cost_of_send t ~bytes =
  if bytes < 0 then invalid_arg "Netsim: negative size";
  let segments = max 1 ((bytes + t.p.mss - 1) / t.p.mss) in
  t.p.per_call_cpu_s
  +. (float_of_int segments *. t.p.per_segment_cpu_s)
  +. (float_of_int (bytes * 8) /. t.p.bandwidth_bps)
  +. t.p.latency_s

let send t ~bytes =
  Simclock.Clock.advance t.clock ~account:"net" (cost_of_send t ~bytes);
  t.messages <- t.messages + 1;
  t.bytes_sent <- t.bytes_sent + bytes

let call t ~request ~reply =
  send t ~bytes:request;
  send t ~bytes:reply

(* ---------------- Link: an actual (simulated) connection ---------------- *)

module Link = struct
  type dir = To_server | To_client

  type fault =
    | Drop
    | Duplicate
    | Reorder
    | Corrupt
    | Partition of int
    | Server_crash

  type entry = { frame : string; poison : bool }

  type endpoint = {
    q : entry Queue.t;
    mutable limbo : entry list; (* held back; released after the next send *)
    mutable partition_left : int; (* messages still to swallow in this dir *)
  }

  let endpoint_create () = { q = Queue.create (); limbo = []; partition_left = 0 }

  type t = {
    net : net;
    to_server : endpoint;
    to_client : endpoint;
    mutable hook : (dir -> bytes:int -> fault option) option;
    mutable faults : int; (* sends a fault or partition acted on *)
    mutable dropped : int;
    mutable duplicated : int;
    mutable corrupted : int;
    mutable partitioned : int;
    mutable peak_depth : int; (* high-water mark of either direction's queue *)
  }

  let create net =
    {
      net;
      to_server = endpoint_create ();
      to_client = endpoint_create ();
      hook = None;
      faults = 0;
      dropped = 0;
      duplicated = 0;
      corrupted = 0;
      partitioned = 0;
      peak_depth = 0;
    }

  let net t = t.net
  let set_fault_hook t h = t.hook <- h
  let endpoint t = function To_server -> t.to_server | To_client -> t.to_client

  (* Flip a few payload bytes so the frame survives parsing attempts but
     fails its CRC at the receiver. *)
  let mangle frame =
    let b = Bytes.of_string frame in
    let n = Bytes.length b in
    let flip i =
      if i < n then Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5f))
    in
    flip (n / 2);
    flip (n - 1);
    Bytes.to_string b

  let send ?(charge = true) t dir frame =
    let bytes = String.length frame in
    if charge then
      Simclock.Clock.advance t.net.clock ~account:"net" (cost_of_send t.net ~bytes);
    t.net.messages <- t.net.messages + 1;
    t.net.bytes_sent <- t.net.bytes_sent + bytes;
    let ep = endpoint t dir in
    (* Anything held back by an earlier Duplicate/Reorder is released behind
       this message: the hold-back is what makes the copy arrive late. *)
    let release = ep.limbo in
    ep.limbo <- [];
    let fault = match t.hook with Some h -> h dir ~bytes | None -> None in
    if fault <> None || ep.partition_left > 0 then t.faults <- t.faults + 1;
    (match fault with
    | Some (Partition n) ->
      t.partitioned <- t.partitioned + 1;
      ep.partition_left <- max 0 (n - 1)
    | _ when ep.partition_left > 0 ->
      ep.partition_left <- ep.partition_left - 1;
      t.partitioned <- t.partitioned + 1
    | Some Drop -> t.dropped <- t.dropped + 1
    | Some Duplicate ->
      Queue.add { frame; poison = false } ep.q;
      ep.limbo <- [ { frame; poison = false } ];
      t.duplicated <- t.duplicated + 1
    | Some Reorder -> ep.limbo <- [ { frame; poison = false } ]
    | Some Corrupt ->
      Queue.add { frame = mangle frame; poison = false } ep.q;
      t.corrupted <- t.corrupted + 1
    | Some Server_crash -> Queue.add { frame; poison = true } ep.q
    | None -> Queue.add { frame; poison = false } ep.q);
    List.iter (fun e -> Queue.add e ep.q) release;
    t.peak_depth <- max t.peak_depth (Queue.length ep.q)

  let recv t dir =
    let ep = endpoint t dir in
    if Queue.is_empty ep.q then None
    else
      let e = Queue.pop ep.q in
      Some (e.frame, e.poison)

  let pending t dir = Queue.length (endpoint t dir).q

  let clear t =
    let wipe ep =
      Queue.clear ep.q;
      ep.limbo <- [];
      ep.partition_left <- 0
    in
    wipe t.to_server;
    wipe t.to_client

  let peak_depth t = t.peak_depth
  let reset_peak_depth t = t.peak_depth <- 0
  let dropped t = t.dropped
  let duplicated t = t.duplicated
  let corrupted t = t.corrupted
  let partitioned t = t.partitioned
  let faults_injected t = t.faults
end
