(** The device manager switch.

    Modelled on the POSTGRES [smgr]/bdevsw-style switch the paper describes:
    administrators register devices, relations are placed on a device at
    creation, and from then on all access is location-transparent — callers
    name a device and the switch routes the I/O ("Accesses to data are
    location-transparent").  The Inversion namespace is uniform across
    devices, so a single file system spans magnetic disk, NVRAM and the
    jukebox. *)

type t

val create : clock:Simclock.Clock.t -> t
(** An empty switch sharing one simulated clock for all devices. *)

val clock : t -> Simclock.Clock.t

val register : t -> Device.t -> unit
(** Add a device.  Raises [Invalid_argument] if the name is taken. *)

val add_device : t -> name:string -> kind:Device.kind -> unit -> Device.t
(** Create a device on this switch's clock and register it. *)

val find : t -> string -> Device.t
(** Raises [Not_found] if no such device. *)

val find_opt : t -> string -> Device.t option

val default_device : t -> Device.t
(** The first registered device; relations that do not ask for a
    particular placement land here.  Raises [Failure] if the switch is
    empty. *)

val devices : t -> Device.t list
(** All devices, in registration order. *)

val mirror : t -> primary:string -> secondary:string -> unit
(** Pair two registered devices: relations placed on [primary] are
    transparently mirrored onto [secondary] ({!Device.attach_mirror} —
    lockstep allocation, dual writes, failover reads).  Raises
    [Invalid_argument] if either name is unregistered, the names are
    equal, or a device is already part of a pair. *)

val mirror_of : t -> string -> Device.t option
(** The secondary paired with a named device, if any. *)

val mirror_pairs : t -> (string * string) list
(** All (primary, secondary) pairs, in pairing order. *)

val crash : t -> unit
(** Propagate a simulated crash to every device. *)
