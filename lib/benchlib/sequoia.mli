(** The Sequoia 2000 workload: what the paper's users actually do.

    "The system described here currently supports a group of physical
    scientists researching global climatic change ... The Inversion
    installation at Berkeley currently manages approximately seven
    hundred megabytes of user file data, spread across magnetic,
    magneto-optical, and write-once optical disks.  A number of
    special-purpose functions that operate on satellite image files have
    been written and are in regular use."

    This scenario drives a whole simulated installation end to end:
    ingest a season of satellite images (transactional, typed), register
    and run image functions from the query language, answer
    content-based queries, re-read historical states, migrate cold data
    to the jukebox by rule, vacuum, and audit.  It reports simulated
    elapsed time per phase plus where the time went (disk, jukebox,
    CPU, log forces). *)

type phase = {
  phase_name : string;
  elapsed_s : float;  (** simulated *)
  detail : string;
}

type report = {
  phases : phase list;
  images : int;
  bytes_ingested : int;
  accounts : (string * float) list;  (** simulated-time breakdown *)
}

val run : ?images:int -> ?image_kb:int -> unit -> report
(** Default 60 images of 128 KB — a scaled-down season that runs in
    seconds of real time.  Deterministic: its draws come from one fixed
    seed. *)

val report_to_string : report -> string
