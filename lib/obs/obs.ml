module Json = Json

type subsys = Device | Cache | Heap | Lock | Txn | Vacuum | Recovery | Net

let all_subsystems = [ Device; Cache; Heap; Lock; Txn; Vacuum; Recovery; Net ]

let subsys_bit = function
  | Device -> 1
  | Cache -> 2
  | Heap -> 4
  | Lock -> 8
  | Txn -> 16
  | Vacuum -> 32
  | Recovery -> 64
  | Net -> 128

let subsys_name = function
  | Device -> "device"
  | Cache -> "cache"
  | Heap -> "heap"
  | Lock -> "lock"
  | Txn -> "txn"
  | Vacuum -> "vacuum"
  | Recovery -> "recovery"
  | Net -> "net"

let subsys_of_name s =
  List.find_opt (fun sub -> subsys_name sub = s) all_subsystems

let all_mask = List.fold_left (fun m s -> m lor subsys_bit s) 0 all_subsystems

(* The whole cost of disabled tracing is this one load-and-test. *)
let mask = ref 0

let on s = !mask land subsys_bit s <> 0
let enable s = mask := !mask lor subsys_bit s
let enable_all () = mask := all_mask
let disable_all () = mask := 0
let enabled_subsystems () = List.filter on all_subsystems

let clock : Simclock.Clock.t option ref = ref None
let set_clock c = clock := Some c
let clear_clock () = clock := None

let now_us () =
  match !clock with Some c -> Simclock.Clock.timestamp c | None -> 0L

type arg = I of int | S of string | F of float

type kind = Point | Span_begin | Span_end

type event = {
  seq : int;
  t_us : int64;
  subsys : subsys;
  name : string;
  kind : kind;
  depth : int;
  args : (string * arg) list;
}

(* ------------------------------------------------------------------ *)
(* Trace ring                                                          *)
(* ------------------------------------------------------------------ *)

let default_capacity = 16384

let ring : event option array ref = ref (Array.make default_capacity None)
let seq = ref 0 (* total emitted since clear; next slot = seq mod cap *)
let depth = ref 0

let push e =
  let cap = Array.length !ring in
  !ring.(!seq mod cap) <- Some e;
  incr seq

let emit subsys name kind args =
  if !mask land subsys_bit subsys <> 0 then begin
    (match kind with Span_end -> if !depth > 0 then decr depth | _ -> ());
    push { seq = !seq; t_us = now_us (); subsys; name; kind; depth = !depth; args };
    match kind with Span_begin -> incr depth | _ -> ()
  end

let event subsys name ?(args = []) () = emit subsys name Point args
let span_begin subsys name ?(args = []) () = emit subsys name Span_begin args
let span_end subsys name ?(args = []) () = emit subsys name Span_end args

let span subsys name ?(args = []) f =
  if !mask land subsys_bit subsys = 0 then f ()
  else begin
    emit subsys name Span_begin args;
    match f () with
    | v ->
      emit subsys name Span_end [];
      v
    | exception e ->
      emit subsys name Span_end [ ("exn", S (Printexc.to_string e)) ];
      raise e
  end

module Trace = struct
  let capacity () = Array.length !ring

  let clear () =
    Array.fill !ring 0 (Array.length !ring) None;
    seq := 0;
    depth := 0

  let set_capacity n =
    if n < 1 then invalid_arg "Obs.Trace.set_capacity: capacity must be >= 1";
    ring := Array.make n None;
    seq := 0;
    depth := 0

  let emitted () = !seq
  let dropped () = max 0 (!seq - Array.length !ring)

  let events () =
    let cap = Array.length !ring in
    let first = max 0 (!seq - cap) in
    let out = ref [] in
    for i = !seq - 1 downto first do
      match !ring.(i mod cap) with Some e -> out := e :: !out | None -> ()
    done;
    !out

  let arg_to_string = function
    | I i -> string_of_int i
    | S s -> s
    | F f -> Printf.sprintf "%g" f

  let event_to_line e =
    let pad = String.make (2 * e.depth) ' ' in
    let marker =
      match e.kind with Point -> "" | Span_begin -> ">> " | Span_end -> "<< "
    in
    let args =
      if e.args = [] then ""
      else
        " "
        ^ String.concat " "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (arg_to_string v)) e.args)
    in
    Printf.sprintf "[%12.6f] %s%s%s%s"
      (Int64.to_float e.t_us /. 1e6)
      pad marker e.name args

  let to_text ?limit () =
    let evs = events () in
    let evs =
      match limit with
      | None -> evs
      | Some n ->
        let len = List.length evs in
        if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs
    in
    String.concat "" (List.map (fun e -> event_to_line e ^ "\n") evs)

  (* Chrome trace_event JSON.  Spans are reconstructed into complete
     ("X") events with a stack over emission order, so even a trace
     whose begin/end pairs interleave oddly (concurrent transactions in
     a single-threaded simulation) stays loadable. *)
  let args_json args =
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "\"%s\":%s" (Json.escape k)
               (match v with
               | I i -> string_of_int i
               | F f -> Printf.sprintf "%g" f
               | S s -> Printf.sprintf "\"%s\"" (Json.escape s)))
           args)
    ^ "}"

  let to_chrome_json () =
    let evs = events () in
    let last_t = List.fold_left (fun _ e -> e.t_us) 0L evs in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[\n";
    let first = ref true in
    let emit_json line =
      if !first then first := false else Buffer.add_string buf ",\n";
      Buffer.add_string buf line
    in
    let complete ~name ~subsys ~args ~t0 ~t1 =
      emit_json
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%Ld,\"dur\":%Ld,\"pid\":1,\"tid\":1,\"args\":%s}"
           (Json.escape name) (subsys_name subsys) t0
           (Int64.max 1L (Int64.sub t1 t0))
           (args_json args))
    in
    let stack = ref [] in
    List.iter
      (fun e ->
        match e.kind with
        | Span_begin -> stack := e :: !stack
        | Span_end -> (
          match !stack with
          | b :: rest ->
            stack := rest;
            complete ~name:b.name ~subsys:b.subsys ~args:(b.args @ e.args)
              ~t0:b.t_us ~t1:e.t_us
          | [] -> () (* unmatched end: its begin fell off the ring *))
        | Point ->
          emit_json
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%Ld,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":%s}"
               (Json.escape e.name) (subsys_name e.subsys) e.t_us
               (args_json e.args)))
      evs;
    (* spans still open when the trace was taken run to the last event *)
    List.iter
      (fun b -> complete ~name:b.name ~subsys:b.subsys ~args:b.args ~t0:b.t_us ~t1:last_t)
      !stack;
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type counter = { mutable v : int }

  (* Log-2 buckets over microseconds: bucket i holds values whose
     integer µs magnitude has i significant bits, i.e. [2^(i-1), 2^i).
     64 buckets cover sub-µs to ~584 ky — decades of latency at ~2x
     resolution, fixed memory, no allocation per observation. *)
  type histogram = {
    buckets : int array; (* length 64 *)
    mutable count : int;
    mutable sum : float; (* seconds *)
  }

  let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
  let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
  let probes : (string, unit -> int) Hashtbl.t = Hashtbl.create 64

  let counter name =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { v = 0 } in
      Hashtbl.replace counters name c;
      c

  let incr ?(by = 1) c = c.v <- c.v + by
  let counter_value c = c.v

  let histogram name =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
      let h = { buckets = Array.make 64 0; count = 0; sum = 0. } in
      Hashtbl.replace histograms name h;
      h

  let bucket_of_us us =
    if us <= 0 then 0
    else begin
      let n = ref us and b = ref 0 in
      while !n <> 0 do
        n := !n lsr 1;
        Stdlib.incr b
      done;
      min 63 !b
    end

  let observe h seconds =
    let us = int_of_float (seconds *. 1e6) in
    let b = bucket_of_us us in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum +. seconds

  let hist_count h = h.count
  let hist_sum h = h.sum

  (* Per-phase reset: a sweep that reuses one histogram across load
     levels zeroes it between levels so each level's percentiles are
     computed from that level's observations alone. *)
  let hist_reset h =
    Array.fill h.buckets 0 (Array.length h.buckets) 0;
    h.count <- 0;
    h.sum <- 0.

  (* Geometric midpoint of the bucket the q-quantile lands in. *)
  let percentile h q =
    if h.count = 0 then 0.
    else begin
      let target = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
      let rec go i seen =
        if i >= 64 then 63
        else
          let seen = seen + h.buckets.(i) in
          if seen >= target then i else go (i + 1) seen
      in
      let b = go 0 0 in
      let lo = if b = 0 then 0.5 else 2. ** float_of_int (b - 1) in
      let hi = 2. ** float_of_int b in
      sqrt (lo *. hi) /. 1e6
    end

  let probe name f = Hashtbl.replace probes name f

  let read name =
    match Hashtbl.find_opt counters name with
    | Some c -> Some c.v
    | None -> (
      match Hashtbl.find_opt probes name with
      | Some f -> Some (f ())
      | None -> None)

  type entry =
    | Counter of int
    | Probe of int
    | Histogram of { count : int; sum : float; p50 : float; p95 : float; p99 : float }

  let snapshot () =
    let out = ref [] in
    Hashtbl.iter (fun name c -> out := (name, Counter c.v) :: !out) counters;
    Hashtbl.iter
      (fun name f ->
        let v = try f () with _ -> -1 in
        out := (name, Probe v) :: !out)
      probes;
    Hashtbl.iter
      (fun name h ->
        out :=
          ( name,
            Histogram
              {
                count = h.count;
                sum = h.sum;
                p50 = percentile h 0.50;
                p95 = percentile h 0.95;
                p99 = percentile h 0.99;
              } )
          :: !out)
      histograms;
    List.sort (fun (a, _) (b, _) -> String.compare a b) !out

  let reset () =
    Hashtbl.reset counters;
    Hashtbl.reset histograms;
    Hashtbl.reset probes
end

let reset () =
  Trace.clear ();
  Metrics.reset ();
  disable_all ();
  clear_clock ()
