(** Open-loop load harness: Zipf traffic, saturation curves, p99 SLOs —
    with a differential oracle riding along.

    Closed-loop benchmarks issue the next request only after the
    previous reply, so offered load can never exceed capacity and
    overload behaviour is invisible by construction.  This harness is
    {e open-loop}: Poisson arrivals on the simulated clock decide when
    each request arrives, whether or not the server has kept up, so
    queueing delay is measured (completion − arrival), not hidden.
    A closed-loop calibration prefix estimates service capacity; each
    sweep level then offers [factor × capacity], which keeps the
    throughput knee inside the swept range.

    Traffic: client sessions grouped into tenants (a directory and a
    latency histogram each), Zipf-distributed file popularity over the
    growing population, a read/write/create/time-travel mix, and a
    slice of multi-op transactions that hold two-phase locks across
    other sessions' arrivals — lock conflicts under load surface as
    EAGAIN/EDEADLK/ETIMEDOUT and are counted, aborted cleanly, and
    excluded from the oracle.

    Correctness: the sessions are {!Fsops} remote ones, as in {!Nettest}
    without fault injection, so the shared {!Oracle} shadows every
    mutation with per-session overlays for open transactions; reads are
    checked mid-flight, per-level snapshots feed time-travel checks, and
    full-tree walks verify convergence.  Everything — schedule,
    payloads, outcome — is a pure function of the seed. *)

type config = {
  clients : int;  (** sessions, grouped into... *)
  tenants : int;  (** ...this many tenants (dirs + latency accounting) *)
  initial_files : int;
  file_bytes : int;
      (** initial size of each pre-created file; a write keeps a file
          under 16 KB *)
  ops_per_level : int;
  calibration_ops : int;  (** closed-loop prefix that estimates capacity *)
  load_factors : float list;  (** offered = factor × calibrated capacity *)
  zipf_theta : float;
  write_pct : int;
  create_pct : int;
  time_travel_pct : int;  (** remainder of 100 is reads *)
  txn_every : int;  (** ~1 in N ops opens a transaction; 0 disables *)
  txn_len : int;  (** mutations inside each transaction *)
  write_bytes : int;  (** max bytes per write *)
  slo_p99_s : float;  (** the per-level p99 SLO a knee can trip on *)
  trace : bool;
  deadline_s : float option;
      (** per-op deadline, relative to the op's arrival, propagated to
          the server.  [None] (the seed behaviour) sends no deadlines
          and the system degrades by queueing alone. *)
}
(** The server runs with {!Remote.Server.create}'s defaults (it refuses
    only work whose deadline passed), and a full-tree walk follows every
    level. *)

val default_config : config

val quick_config : config
(** Small enough for the seeded sweep that rides [dune runtest]. *)

(** {1 The operation schedule} *)

type kind = Read | Write | Create | Time_travel | Begin | Commit

val kind_to_string : kind -> string

type op = {
  o_idx : int;
  o_client : int;
  o_arrival : float;  (** seconds from level start *)
  o_kind : kind;
  o_u : float;  (** popularity draw, inverted against Zipf weights later *)
  o_seed : int64;  (** per-op payload rng seed *)
}

val schedule : config:config -> seed:int64 -> rate:float -> ops:int -> op list
(** Pure: arrivals (exponential inter-arrivals at [rate]), sessions,
    kinds (with per-session transaction grouping), popularity draws and
    payload seeds, all drawn up front from [seed]. *)

val schedule_render : op list -> string
(** Byte-exact serialization (one line per op). *)

val schedule_digest : config:config -> seed:int64 -> rate:float -> ops:int -> string
(** Hex digest of {!schedule_render}; the deterministic-replay test
    asserts it is a function of the arguments alone. *)

(** {1 Results} *)

type level = {
  l_factor : float;
  l_offered_ops_s : float;  (** target arrival rate λ *)
  l_offered_realized_ops_s : float;  (** ops / realized arrival span *)
  l_achieved_ops_s : float;
      (** completed ops / simulated time: the queue-drain rate.  Equals
          realized offered while the server keeps up; falls below past
          saturation.  Always ≤ [l_offered_realized_ops_s]. *)
  l_ops : int;
  l_applied : int;  (** ops whose effects committed (goodput) *)
  l_lock_skips : int;
  l_p50_s : float;
  l_p95_s : float;
  l_p99_s : float;
  l_mean_s : float;
  l_max_wait_queue : int;  (** [lock.wait_queue] probe high-water mark *)
  l_peak_link_depth : int;  (** deepest per-link message backlog *)
  l_tenant_p99_s : float array;
  l_shed_deadline : int;
      (** ops refused, client- or server-side, because their deadline
          passed (clean, definitive rejections) *)
  l_admitted : int;
      (** ops that came back applied or skipped on a lock, counted one by
          one as the run saw them, so a level that loses no op has
          [l_admitted = l_ops - l_shed_deadline] *)
  l_admitted_p99_s : float;  (** p99 latency over admitted ops only *)
  l_slo_goodput_ops_s : float;
      (** applied ops that also met the SLO, per second — the number an
          overloaded-but-protected server holds near capacity *)
}

type outcome = {
  seed : int64;
  capacity_ops_s : float;  (** closed-loop calibration estimate *)
  levels : level list;
  knee_offered_ops_s : float;
      (** realized offered rate of the first level that saturated
          (achieved < 90% of offered) or blew the p99 SLO; the last
          level's if the curve never bent. *)
  knee_reason : string;
  slo_p99_s : float;
  ops_total : int;
  applied_total : int;
  lock_skips : int;
  commits : int;
  aborts : int;
  time_travel_checks : int;
  full_verifies : int;
  mismatches : string list;  (** empty = oracle-equivalent *)
  shed_deadline : int;
}

val outcome_to_string : outcome -> string

val curve_failures : outcome -> string list
(** What the saturation curve breaks, if anything: at least four levels,
    a positive capacity, achieved throughput within [0, realized
    offered], ordered percentiles, no more applied ops than ops, and the
    knee inside the swept range.  Empty on a good curve; the oracle's
    verdict is [mismatches]. *)

val run : ?config:config -> seed:int64 -> unit -> outcome
(** Build a fresh system (server, netsim links, client sessions, tenant
    dirs, seed population), calibrate, sweep every load factor, verify.
    Deterministic: the same seed and config produce the same outcome. *)
