(** Deterministic simulated clock.

    Every device and protocol model in this repository charges elapsed time
    to a [Clock.t] instead of sleeping.  Benchmarks then read the simulated
    elapsed time, which makes runs deterministic and lets a laptop reproduce
    the latency hierarchy of 1993-era hardware (NVRAM, a DEC RZ58 magnetic
    disk, a Sony WORM jukebox, 10 Mbit Ethernet).

    Time is kept in microseconds as an [int64] internally so that repeated
    accumulation is exact; the public interface speaks in float seconds. *)

type t

val create : unit -> t
(** A fresh clock at time 0, with empty charge accounts. *)

val now : t -> float
(** Current simulated time, in seconds since [create] (or last [reset]). *)

val advance : t -> ?account:string -> float -> unit
(** [advance clock ~account dt] moves simulated time forward by [dt]
    seconds (negative [dt] is an error) and charges [dt] to [account]
    (default ["unattributed"]).  Accounts are free-form labels such as
    ["disk.seek"] or ["net.transfer"]; they let benchmarks attribute where
    simulated time went. *)

val cpu_scale : t -> float
val set_cpu_scale : t -> float -> unit
(** The factor on every data-manager CPU charge made to this clock
    ([Relstore.Cpu_model]): 1.0 (the default) is the 1993 machine, 0.0
    an infinitely fast CPU.  A property of the simulated machine, which
    {!reset} keeps. *)

val reset : t -> unit
(** Rewind to time 0 and clear all charge accounts and counters. *)

val charged : t -> string -> float
(** Total seconds charged to an account so far (0. if never charged). *)

val accounts : t -> (string * float) list
(** All accounts with their charges, sorted by label. *)

val tick : t -> string -> unit
(** Increment a named event counter (e.g. ["disk.io"]): counts events
    rather than time. *)

val ticks : t -> string -> int
(** Read a named event counter (0 if never ticked). *)

val counters : t -> (string * int) list
(** All event counters, sorted by label. *)

val timestamp : t -> int64
(** Current simulated time in integer microseconds.  Used as the commit
    timestamp source for the transaction system, so "time travel to time T"
    is exact. *)
