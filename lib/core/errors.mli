(** File-system error codes, UNIX-flavoured like the paper's client
    library. *)

type code =
  | ENOENT  (** no such file or directory *)
  | EEXIST  (** file exists *)
  | EISDIR  (** is a directory *)
  | ENOTDIR  (** a path component is not a directory *)
  | ENOTEMPTY  (** directory not empty *)
  | EBADF  (** bad file descriptor *)
  | EINVAL  (** invalid argument *)
  | EROFS  (** write to a historical (time-travel) open *)
  | ETXN  (** transaction misuse, e.g. nested p_begin *)
  | EDEADLK  (** deadlock detected; transaction aborted *)
  | EAGAIN  (** lock conflict; retry after the holder commits *)
  | EIO
      (** permanent media failure: dead device, stuck block, or
          unrepairable corruption with no mirror copy *)
  | ETIMEDOUT
      (** lock-wait timeout: bounded retry-with-backoff exhausted while
          the named holders kept the lock *)
  | ECONNRESET
      (** (remote client) the session to the server was lost and could
          not be recovered; an in-flight transaction is cleanly aborted *)
  | EBUSY
      (** (remote client) the server refused the request as overloaded
          (a shard's bucket mid-handoff) until the client's re-offers ran
          out; the request definitively did not execute *)
  | ENOTSUP
      (** the server does not implement the requested operation (wire
          version skew: a newer client spoke to an older server) *)
  | ESTALE
      (** (remote client) the contacted shard refused the request because
          the client's cached placement epoch is stale or the shard no
          longer owns the chunk range; refresh the placement map from the
          coordinator and retry *)

exception Fs_error of code * string

val code_to_string : code -> string
val fail : code -> ('a, unit, string, 'b) format4 -> 'a
(** [fail code fmt ...] raises {!Fs_error}. *)
