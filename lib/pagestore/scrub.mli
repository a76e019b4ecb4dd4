(** Background media scrubber.

    Walks every block of every live device on a switch during idle
    simulated time, verifies the stored image against its recorded CRC-32
    ({!Device.verify_block}), and repairs bad copies from the mirror before
    a foreground read ever sees them.  Mirrored pairs are scrubbed
    together: a rotten primary block is rebuilt from the secondary (via the
    {!Resilient} failover path) and a rotten secondary copy is refreshed
    from the verified primary.  Unmirrored rot is reported as unrepairable
    — there is no second copy to heal from — and will surface as a media
    failure on the next foreground read.

    Verification charges a flat ["scrub.verify"] cost per page (background
    sequential streaming, not the foreground seek model); repairs charge
    normal I/O through the resilient read path. *)

type stats = {
  scanned : int;
  clean : int;
  repaired : int;
  unrepairable : (string * int * int * string) list;
      (** (device, segid, blkno, reason), in discovery order *)
}

type t
(** An incremental scrub cursor over one switch.  The block walk is
    re-planned at each {!step}, so segments created or dropped between
    steps are picked up; the cursor position wraps, giving continuous
    round-robin coverage. *)

val create : Switch.t -> t

val step : t -> pages:int -> stats
(** Scrub up to [pages] blocks starting at the cursor, advancing it.
    Returns this step's stats.  {!Device.Crash_injected} raised by a
    repair write propagates — the scrubber is ordinary I/O as far as
    crash injection is concerned. *)

val run : Switch.t -> stats
(** One full pass over every block of every live device. *)
