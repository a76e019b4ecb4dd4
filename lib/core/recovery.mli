(** Whole-system crash + recovery + audit, as one call.

    The paper's claim is that Inversion recovers from a crash without an
    fsck pass: uncommitted work simply never becomes visible, because the
    no-overwrite storage manager leaves committed pages untouched.  This
    module is the claim made executable: {!crash_and_recover} crashes the
    machine ({!Fs.crash_and_recover}: cache dropped, in-progress
    transactions aborted, locks cleared, volatile index state forgotten,
    the relations a dirty mark names audited and their damaged B-tree
    indexes rebuilt from their heaps) and then runs the full
    {!Fsck.audit}, which reads every page.  A torn relation restart
    wrongly skipped therefore shows up in [audit].  The report carries
    everything a test needs to assert that recovery was clean — or to
    print why it was not. *)

type report = {
  restart : Fs.recovery;
      (** what restart did ({!Fs.crash_and_recover}): the transactions
          rolled back, the relations it audited, the indexes it rebuilt,
          and the relations left degraded (unreachable on every copy —
          the file system keeps serving everything else) *)
  audit : Fsck.report;  (** the full audit, which covers every relation *)
}

val crash_and_recover : Fs.t -> report

val is_clean : report -> bool
(** No page problems and a clean audit.  Rolled-back transactions and
    rebuilt indexes are {e expected} recovery work, not failures. *)

val indexes_rebuilt : report -> int
(** Total indexes (catalog + per-file) recovery had to rebuild. *)

val report_to_string : report -> string
