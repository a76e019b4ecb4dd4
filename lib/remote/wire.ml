let magic = "INVW"
let version = 1
let header_bytes = 96
let max_fragment = Invfs.Chunk.capacity + 64
let max_read_len = 1 lsl 22
let max_carried_closes = 256

(* ---------------- field types ---------------- *)

exception Decode
exception Unknown_opcode of int

(* A field's wire type, as data.  [put] and [get] interpret it, and so
   does [layout], which finds every field in an encoded payload. *)
type _ ty =
  | Unit : unit ty
  | Byte : int ty
  | Bool : bool ty (* one byte, 0 or 1 *)
  | I32 : int ty (* signed, big-endian, like every integer here *)
  | I64 : int64 ty
  | Str : string ty (* i32 length, then the bytes *)
  | Opt : 'a ty -> 'a option ty (* tag byte 0 or 1, then the value *)
  | List : int * 'a ty -> 'a list ty (* i32 count, at most the bound, then the elements *)
  | Pair : 'a ty * 'b ty -> ('a * 'b) ty
  | Map : ('b -> 'a) * ('a -> 'b) * 'a ty -> 'b ty
      (* a view of another type; its decoding half raises [Decode] on a
         value it refuses *)
  | Sum : 'v case option array -> 'v ty (* tag byte, then that case's fields; indexed by tag *)

(* One alternative of a sum: its tag byte, its fields in wire order, and
   how to build the value from the fields and take them out again. *)
and 'v case = Case : { tag : int; ty : 'a ty; make : 'a -> 'v; view : 'v -> 'a option } -> 'v case

let ( ** ) a b = Pair (a, b)
let t3 a b c = Map ((fun (x, y, z) -> (x, (y, z))), (fun (x, (y, z)) -> (x, y, z)), a ** b ** c)

let t4 a b c d =
  Map ((fun (w, x, y, z) -> (w, (x, (y, z)))), (fun (w, (x, (y, z))) -> (w, x, y, z)), a ** b ** c ** d)

let list ty = List (max_int, ty)
let case tag ty make view = Case { tag; ty; make; view }
let const tag v = case tag Unit (fun () -> v) (fun x -> if x = v then Some () else None)

let by_tag cases =
  let a = Array.make (1 + List.fold_left (fun m (Case c) -> max m c.tag) 0 cases) None in
  List.iter (fun (Case c as k) -> a.(c.tag) <- Some k) cases;
  a

let sum cases = Sum (by_tag cases)

let case_at cases tag = if tag < Array.length cases then cases.(tag) else None

(* The case a value belongs to, with its fields. *)
type 'v found = Found : 'a ty * int * 'a -> 'v found

let find cases v =
  let rec go i =
    if i = Array.length cases then invalid_arg "Wire: value of no declared case"
    else
      match cases.(i) with
      | Some (Case c) -> ( match c.view v with Some x -> Found (c.ty, c.tag, x) | None -> go (i + 1))
      | None -> go (i + 1)
  in
  go 0

let rec put : type a. a ty -> Buffer.t -> a -> unit =
 fun ty b v ->
  match ty with
  | Unit -> ()
  | Byte ->
    if v < 0 || v > 0xff then invalid_arg "Wire: byte field out of range";
    Buffer.add_uint8 b v
  | Bool -> Buffer.add_uint8 b (Bool.to_int v)
  | I32 ->
    if v < -0x8000_0000 || v > 0x7fff_ffff then invalid_arg "Wire: i32 field out of range";
    Buffer.add_int32_be b (Int32.of_int v)
  | I64 -> Buffer.add_int64_be b v
  | Str ->
    put I32 b (String.length v);
    Buffer.add_string b v
  | Opt ty -> (
    match v with
    | None -> Buffer.add_uint8 b 0
    | Some x ->
      Buffer.add_uint8 b 1;
      put ty b x)
  | List (bound, ty) ->
    let n = List.length v in
    if n > bound then invalid_arg "Wire: list longer than its bound";
    put I32 b n;
    List.iter (put ty b) v
  | Pair (ta, tb) ->
    put ta b (fst v);
    put tb b (snd v)
  | Map (to_wire, _, ty) -> put ty b (to_wire v)
  | Sum cases ->
    let (Found (ty, tag, x)) = find cases v in
    Buffer.add_uint8 b tag;
    put ty b x

type cursor = { data : string; mutable pos : int }

(* The offset of the next [n] bytes, which must all be there. *)
let take c n =
  let p = c.pos in
  if n < 0 || p + n > String.length c.data then raise Decode;
  c.pos <- p + n;
  p

let rec get : type a. a ty -> cursor -> a =
 fun ty c ->
  match ty with
  | Unit -> ()
  | Byte -> String.get_uint8 c.data (take c 1)
  | Bool -> ( match get Byte c with 0 -> false | 1 -> true | _ -> raise Decode)
  | I32 -> Int32.to_int (String.get_int32_be c.data (take c 4))
  | I64 -> String.get_int64_be c.data (take c 8)
  | Str ->
    let n = get I32 c in
    String.sub c.data (take c n) n
  | Opt ty -> ( match get Byte c with 0 -> None | 1 -> Some (get ty c) | _ -> raise Decode)
  | List (bound, ty) ->
    let n = get I32 c in
    (* every element takes a byte at least, so a count past the end of
       the payload is damage and sizes nothing *)
    if n < 0 || n > bound || n > String.length c.data - c.pos then raise Decode;
    List.init n (fun _ -> get ty c)
  | Pair (ta, tb) ->
    let x = get ta c in
    (x, get tb c)
  | Map (_, of_wire, ty) -> of_wire (get ty c)
  | Sum cases -> (
    match case_at cases (get Byte c) with
    | Some (Case k) -> k.make (get k.ty c)
    | None -> raise Decode)

type field = [ `Byte | `Bool | `I32 | `I64 | `Str | `Opt | `Count ]

(* Each field of [v] as [put] writes it from offset [off], newest first
   onto [acc]; returns the offset after it.  A sum's tag is no field. *)
let rec layout : type a. a ty -> a -> int -> (field * int) list ref -> int =
 fun ty v off acc ->
  let leaf kind width =
    acc := (kind, off) :: !acc;
    off + width
  in
  match ty with
  | Unit -> off
  | Byte -> leaf `Byte 1
  | Bool -> leaf `Bool 1
  | I32 -> leaf `I32 4
  | I64 -> leaf `I64 8
  | Str -> leaf `Str (4 + String.length v)
  | Opt ty -> ( match v with None -> leaf `Opt 1 | Some x -> layout ty x (leaf `Opt 1) acc)
  | List (_, ty) -> List.fold_left (fun off x -> layout ty x off acc) (leaf `Count 4) v
  | Pair (ta, tb) -> layout tb (snd v) (layout ta (fst v) off acc) acc
  | Map (to_wire, _, ty) -> layout ty (to_wire v) off acc
  | Sum cases ->
    let (Found (ty, _, x)) = find cases v in
    layout ty x (off + 1) acc

(* ---------------- requests ---------------- *)

type req =
  | Hello
  | Bye
  | Ping
  | Begin
  | Commit
  | Abort
  | Creat of { path : string; device : string option; ftype : string option; compressed : bool }
  | Open of { path : string; mode : int; timestamp : int64 option }
  | Close of { fd : int }
  | Read of { fd : int; off : int64; len : int }
  | Write of { fd : int; off : int64; data : string }
  | Ftruncate of { fd : int; size : int64 }
  | Filesize of { fd : int }
  | Mkdir of { path : string }
  | Readdir of { path : string; timestamp : int64 option }
  | Unlink of { path : string }
  | Rmdir of { path : string }
  | Rename of { src : string; dst : string }
  | Stat of { path : string; timestamp : int64 option }
  | Exists of { path : string; timestamp : int64 option }
  | Query of { text : string; timestamp : int64 option }
  | Set_owner of { path : string; owner : string }
  | Set_type of { path : string; ftype : string }
  | Define_type of { name : string }
  | Crash_server
  | Heartbeat of { shard : int; epoch : int }
  | Get_placement
  | Shard_read of { oid : int64; off : int64; len : int; epoch : int }
  | Shard_write of { oid : int64; off : int64; data : string; epoch : int }
  | Shard_truncate of { oid : int64; size : int64; epoch : int }
  | Fetch_chunks of { oid : int64 }
  | Migrate_in of { oid : int64; epoch : int; data : string }
  | Drop_bucket of { bucket : int; epoch : int }
  | Snapshot
  | Clone of { src : string; dst : string }
  | Vacuum_step of { pages : int }
  | Read_file of { path : string; timestamp : int64 option; off : int64; len : int }
  | Carry of { closes : int list; begin_txn : bool; req : req }

let carried = function Carry { req; _ } -> req | req -> req

(* Chunk-range addressing: a file's data lives in the placement bucket
   its oid hashes to.  Mixed rather than [oid mod n] so renumbering one
   relation cannot pile every hot file onto one shard. *)
let bucket_of ~nbuckets oid =
  let h = Int64.logxor oid (Int64.shift_right_logical oid 7) in
  let h = Int64.mul h 0x9E3779B97F4A7C15L in
  let h = Int64.logxor h (Int64.shift_right_logical h 32) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int nbuckets))

(* What a request does, as far as retries and admission care. *)
type cls =
  | Read_only  (* changes nothing and names no fd: a blocked one parks,
                  and a lost session's replacement re-issues it *)
  | Fd_read  (* changes nothing but reads through an fd of the session:
                parks, and dies with the session *)
  | Restart  (* leaves nothing a fresh session must undo, but is no read:
                re-issued after a lost session, never parked as a read *)
  | Mutating  (* changes stored state: a reply lost with the session
                 leaves the outcome indeterminate *)
  | Relief  (* releases what the session holds: never shed, never
               refused for a passed deadline *)
  | Admin  (* the test-only server crash: sent even past a deadline *)
  | Other

(* One line per request: its tag, name, class and fields in wire order.
   A [Vacuum_step] is [Other], not [Mutating]: it only moves committed
   versions to the archive, which no read can tell apart, so a lost
   reply leaves nothing indeterminate.  [Clone] creates a file. *)
type decl = { name : string; cls : cls; case : req case }

let msg tag name cls ty make view = { name; cls; case = case tag ty make view }
let op tag name cls v = { name; cls; case = const tag v }

let requests =
  [
    op 1 "hello" Other Hello;
    op 2 "bye" Relief Bye;
    op 3 "ping" Restart Ping;
    op 4 "p_begin" Restart Begin;
    op 5 "p_commit" Other Commit;
    op 6 "p_abort" Relief Abort;
    msg 7 "p_creat" Mutating (t4 Str (Opt Str) (Opt Str) Bool)
      (fun (path, device, ftype, compressed) -> Creat { path; device; ftype; compressed })
      (function Creat r -> Some (r.path, r.device, r.ftype, r.compressed) | _ -> None);
    (* the mode is 0 (read-only) or 1 (read-write) *)
    msg 8 "p_open" Read_only
      (t3 Str (Map (Fun.id, (fun m -> if m > 1 then raise Decode else m), Byte)) (Opt I64))
      (fun (path, mode, timestamp) -> Open { path; mode; timestamp })
      (function Open r -> Some (r.path, r.mode, r.timestamp) | _ -> None);
    msg 9 "p_close" Other I32 (fun fd -> Close { fd }) (function Close r -> Some r.fd | _ -> None);
    msg 10 "p_read" Fd_read (t3 I32 I64 I32)
      (fun (fd, off, len) -> Read { fd; off; len })
      (function Read r -> Some (r.fd, r.off, r.len) | _ -> None);
    msg 11 "p_write" Mutating (t3 I32 I64 Str)
      (fun (fd, off, data) -> Write { fd; off; data })
      (function Write r -> Some (r.fd, r.off, r.data) | _ -> None);
    msg 12 "ftruncate" Mutating (I32 ** I64)
      (fun (fd, size) -> Ftruncate { fd; size })
      (function Ftruncate r -> Some (r.fd, r.size) | _ -> None);
    msg 13 "filesize" Fd_read I32 (fun fd -> Filesize { fd }) (function Filesize r -> Some r.fd | _ -> None);
    msg 14 "mkdir" Mutating Str (fun path -> Mkdir { path }) (function Mkdir r -> Some r.path | _ -> None);
    msg 15 "readdir" Read_only (Str ** Opt I64)
      (fun (path, timestamp) -> Readdir { path; timestamp })
      (function Readdir r -> Some (r.path, r.timestamp) | _ -> None);
    msg 16 "unlink" Mutating Str (fun path -> Unlink { path }) (function Unlink r -> Some r.path | _ -> None);
    msg 17 "rmdir" Mutating Str (fun path -> Rmdir { path }) (function Rmdir r -> Some r.path | _ -> None);
    msg 18 "rename" Mutating (Str ** Str)
      (fun (src, dst) -> Rename { src; dst })
      (function Rename r -> Some (r.src, r.dst) | _ -> None);
    msg 19 "stat" Read_only (Str ** Opt I64)
      (fun (path, timestamp) -> Stat { path; timestamp })
      (function Stat r -> Some (r.path, r.timestamp) | _ -> None);
    msg 20 "exists" Read_only (Str ** Opt I64)
      (fun (path, timestamp) -> Exists { path; timestamp })
      (function Exists r -> Some (r.path, r.timestamp) | _ -> None);
    msg 21 "query" Read_only (Str ** Opt I64)
      (fun (text, timestamp) -> Query { text; timestamp })
      (function Query r -> Some (r.text, r.timestamp) | _ -> None);
    msg 22 "set_owner" Mutating (Str ** Str)
      (fun (path, owner) -> Set_owner { path; owner })
      (function Set_owner r -> Some (r.path, r.owner) | _ -> None);
    msg 23 "set_type" Mutating (Str ** Str)
      (fun (path, ftype) -> Set_type { path; ftype })
      (function Set_type r -> Some (r.path, r.ftype) | _ -> None);
    msg 24 "define_type" Mutating Str
      (fun name -> Define_type { name })
      (function Define_type r -> Some r.name | _ -> None);
    op 25 "crash_server" Admin Crash_server;
    msg 26 "heartbeat" Other (I32 ** I32)
      (fun (shard, epoch) -> Heartbeat { shard; epoch })
      (function Heartbeat r -> Some (r.shard, r.epoch) | _ -> None);
    op 27 "get_placement" Read_only Get_placement;
    msg 28 "shard_read" Read_only (t4 I64 I64 I32 I32)
      (fun (oid, off, len, epoch) -> Shard_read { oid; off; len; epoch })
      (function Shard_read r -> Some (r.oid, r.off, r.len, r.epoch) | _ -> None);
    (* the epoch travels ahead of the data *)
    msg 29 "shard_write" Mutating (t4 I64 I64 I32 Str)
      (fun (oid, off, epoch, data) -> Shard_write { oid; off; data; epoch })
      (function Shard_write r -> Some (r.oid, r.off, r.epoch, r.data) | _ -> None);
    msg 30 "shard_truncate" Mutating (t3 I64 I64 I32)
      (fun (oid, size, epoch) -> Shard_truncate { oid; size; epoch })
      (function Shard_truncate r -> Some (r.oid, r.size, r.epoch) | _ -> None);
    msg 31 "fetch_chunks" Read_only I64
      (fun oid -> Fetch_chunks { oid })
      (function Fetch_chunks r -> Some r.oid | _ -> None);
    msg 32 "migrate_in" Mutating (t3 I64 I32 Str)
      (fun (oid, epoch, data) -> Migrate_in { oid; epoch; data })
      (function Migrate_in r -> Some (r.oid, r.epoch, r.data) | _ -> None);
    msg 33 "drop_bucket" Mutating (I32 ** I32)
      (fun (bucket, epoch) -> Drop_bucket { bucket; epoch })
      (function Drop_bucket r -> Some (r.bucket, r.epoch) | _ -> None);
    op 34 "snapshot" Other Snapshot;
    msg 35 "clone" Mutating (Str ** Str)
      (fun (src, dst) -> Clone { src; dst })
      (function Clone r -> Some (r.src, r.dst) | _ -> None);
    msg 36 "vacuum_step" Other I32
      (fun pages -> Vacuum_step { pages })
      (function Vacuum_step r -> Some r.pages | _ -> None);
    msg 37 "read_file" Read_only (t4 Str (Opt I64) I64 I32)
      (fun (path, timestamp, off, len) -> Read_file { path; timestamp; off; len })
      (function Read_file r -> Some (r.path, r.timestamp, r.off, r.len) | _ -> None);
  ]

(* The carrier is the one request declared by hand: its last field is
   itself a request, at most one level deep, with a bounded close list. *)
let carry_tag = 38
let carry_prefix = List (max_carried_closes, I32) ** Bool
let request_cases = by_tag (List.map (fun d -> d.case) requests)
let request_ty = Sum request_cases
let declared = List.map (fun { name; case = Case c; _ } -> (c.tag, name)) requests
let decl_of req = List.find (fun { case = Case c; _ } -> Option.is_some (c.view req)) requests
let req_name req = (decl_of (carried req)).name
let class_of req = (decl_of (carried req)).cls
let read_only req = match class_of req with Read_only | Fd_read -> true | _ -> false
let reissuable req = match class_of req with Read_only | Restart -> true | _ -> false
let mutating req = class_of req = Mutating
let relief req = class_of req = Relief
let deadline_exempt req = match class_of req with Relief | Admin -> true | _ -> false

let rec put_req b = function
  | Carry { closes; begin_txn; req } ->
    Buffer.add_uint8 b carry_tag;
    put carry_prefix b (closes, begin_txn);
    put_req b req
  | req -> put request_ty b req

let encode_req_payload req =
  let b = Buffer.create 64 in
  put_req b req;
  Buffer.contents b

let fields req =
  let acc = ref [] in
  let rec go off = function
    | Carry { closes; begin_txn; req } -> go (layout carry_prefix (closes, begin_txn) (off + 1) acc) req
    | req -> ignore (layout request_ty req off acc : int)
  in
  go 0 req;
  List.rev !acc

(* Distinguishes an opcode from the future ([`Unknown]) from a payload
   that is damaged or truncated ([`Malformed]): the server answers the
   former with a structured [Unsupported] reply — version skew must not
   look like packet loss — and drops only the latter. *)
let rec get_req c ~nested =
  let tag = get Byte c in
  if tag = carry_tag then begin
    (* one level only: a carrier inside a carrier is malformed, so
       hostile input cannot drive the recursion deeper *)
    if nested then raise Decode;
    let closes, begin_txn = get carry_prefix c in
    Carry { closes; begin_txn; req = get_req c ~nested:true }
  end
  else
    match case_at request_cases tag with
    | Some (Case k) -> k.make (get k.ty c)
    | None -> raise (Unknown_opcode tag)

let decode_request_any payload =
  let c = { data = payload; pos = 0 } in
  try
    let req = get_req c ~nested:false in
    if c.pos <> String.length payload then raise Decode;
    `Req req
  with
  | Decode -> `Malformed
  | Unknown_opcode op -> `Unknown op

let decode_request payload =
  match decode_request_any payload with `Req r -> Some r | `Unknown _ | `Malformed -> None

(* ---------------- replies ---------------- *)

(* The placement map: [owner.(b)] is the shard id serving bucket [b] at
   [epoch]; [handoff] lists buckets mid-migration (no shard serves them
   until the coordinator commits the transfer). *)
type placement = { p_epoch : int; p_owner : int array; p_handoff : int list }

type result =
  | R_unit
  | R_sid of int64
  | R_fd of int
  | R_int of int64
  | R_bool of bool
  | R_data of string
  | R_names of string list
  | R_rows of string list list
  | R_att of Invfs.Fileatt.att
  | R_placement of placement

type reply =
  | Ok_reply of { txn_open : bool; result : result }
  | Err_reply of { txn_open : bool; code : Invfs.Errors.code; msg : string }
  | Io_fault_reply of { txn_open : bool }
  | Unknown_session
  | Overloaded of { retry_after_s : float }
  | Unsupported of { opcode : int }
  | Wrong_shard of { epoch : int }

(* An errno travels as its 1-based position here. *)
let errnos =
  Invfs.Errors.
    [ ENOENT; EEXIST; EISDIR; ENOTDIR; ENOTEMPTY; EBADF; EINVAL; EROFS; ETXN; EDEADLK; EAGAIN;
      EIO; ETIMEDOUT; ECONNRESET; EBUSY; ENOTSUP; ESTALE ]

let errno =
  let rec pos i code = function
    | c :: rest -> if c = code then i else pos (i + 1) code rest
    | [] -> invalid_arg "Wire: errno without a byte"
  in
  Map
    ( (fun code -> pos 1 code errnos),
      (fun b -> match List.nth_opt errnos (b - 1) with Some c when b > 0 -> c | _ -> raise Decode),
      Byte )

let att : Invfs.Fileatt.att ty =
  Map
    ( (fun (a : Invfs.Fileatt.att) ->
        ( a.file,
          (a.size, (a.owner, (a.ftype, (a.device, (a.index_segid, (a.compressed, (a.ctime, (a.mtime, a.atime))))))))
        )),
      (fun (file, (size, (owner, (ftype, (device, (index_segid, (compressed, (ctime, (mtime, atime))))))))) ->
        { Invfs.Fileatt.file; size; owner; ftype; device; index_segid; compressed; ctime; mtime; atime }),
      I64 ** I64 ** Str ** Str ** Str ** I32 ** Bool ** I64 ** I64 ** I64 )

let placement =
  Map
    ( (fun p -> (p.p_epoch, Array.to_list p.p_owner, p.p_handoff)),
      (fun (p_epoch, owner, p_handoff) -> { p_epoch; p_owner = Array.of_list owner; p_handoff }),
      t3 I32 (List (0xffff, I32)) (List (0xffff, I32)) )

let result_ty =
  sum
    [
      const 0 R_unit;
      case 1 I64 (fun v -> R_sid v) (function R_sid v -> Some v | _ -> None);
      case 2 I32 (fun v -> R_fd v) (function R_fd v -> Some v | _ -> None);
      case 3 I64 (fun v -> R_int v) (function R_int v -> Some v | _ -> None);
      case 4 Bool (fun v -> R_bool v) (function R_bool v -> Some v | _ -> None);
      case 5 Str (fun v -> R_data v) (function R_data v -> Some v | _ -> None);
      case 6 (list Str) (fun v -> R_names v) (function R_names v -> Some v | _ -> None);
      case 7 (list (list Str)) (fun v -> R_rows v) (function R_rows v -> Some v | _ -> None);
      case 8 att (fun v -> R_att v) (function R_att v -> Some v | _ -> None);
      case 9 placement (fun v -> R_placement v) (function R_placement v -> Some v | _ -> None);
    ]

let reply_ty =
  sum
    [
      case 0 (Bool ** result_ty)
        (fun (txn_open, result) -> Ok_reply { txn_open; result })
        (function Ok_reply r -> Some (r.txn_open, r.result) | _ -> None);
      case 1 (t3 Bool errno Str)
        (fun (txn_open, code, msg) -> Err_reply { txn_open; code; msg })
        (function Err_reply r -> Some (r.txn_open, r.code, r.msg) | _ -> None);
      case 2 Bool
        (fun txn_open -> Io_fault_reply { txn_open })
        (function Io_fault_reply r -> Some r.txn_open | _ -> None);
      const 3 Unknown_session;
      (* microseconds on the wire: floats don't serialize *)
      case 4
        (Map ((fun s -> Int64.of_float (s *. 1e6)), (fun us -> Int64.to_float us /. 1e6), I64))
        (fun retry_after_s -> Overloaded { retry_after_s })
        (function Overloaded r -> Some r.retry_after_s | _ -> None);
      case 5 Byte (fun opcode -> Unsupported { opcode }) (function Unsupported r -> Some r.opcode | _ -> None);
      case 6 I32 (fun epoch -> Wrong_shard { epoch }) (function Wrong_shard r -> Some r.epoch | _ -> None);
    ]

let encode_reply_payload reply =
  let b = Buffer.create 64 in
  put reply_ty b reply;
  Buffer.contents b

let decode_reply payload =
  let c = { data = payload; pos = 0 } in
  try
    let reply = get reply_ty c in
    if c.pos <> String.length payload then raise Decode;
    Some reply
  with Decode -> None

(* ---------------- framing ---------------- *)

type hdr = {
  kind : int; (* 0 = request, 1 = reply *)
  sid : int64;
  rid : int64;
  frame_ix : int;
  nframes : int;
  retry : bool; (* flags bit 0: this frame is a retransmission *)
  deadline_us : int64; (* absolute sim-clock µs; 0 = no deadline *)
  payload : string;
}

let u32_at s off = Int32.to_int (String.get_int32_be s off) land 0xffff_ffff

let make_frame ~kind ~sid ~rid ~frame_ix ~nframes ~retry ~deadline_us fragment =
  let n = String.length fragment in
  let b = Bytes.make (header_bytes + n) '\000' in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint16_be b 4 version;
  Bytes.set_uint8 b 6 kind;
  Bytes.set_uint8 b 7 (Bool.to_int retry);
  Bytes.set_int64_be b 8 sid;
  Bytes.set_int64_be b 16 rid;
  Bytes.set_uint16_be b 24 frame_ix;
  Bytes.set_uint16_be b 26 nframes;
  Bytes.set_int32_be b 28 (Int32.of_int n);
  Bytes.set_int64_be b 36 deadline_us;
  Bytes.blit_string fragment 0 b header_bytes n;
  (* CRC over the whole frame with the crc field zeroed *)
  Bytes.set_int32_be b 32 (Int32.of_int (Pagestore.Page.crc32 b ~off:0 ~len:(Bytes.length b)));
  Bytes.to_string b

(* Split a logical payload into CRC'd frames.  Streamed requests
   ([trailer]) append a zero-length end-of-stream frame, the explicit
   "that was all of it" marker a windowed upload needs. *)
let frame_payload ~kind ~sid ~rid ~trailer ~retry ~deadline_us payload =
  let len = String.length payload in
  let data_frames = max 1 ((len + max_fragment - 1) / max_fragment) in
  let nframes = data_frames + if trailer then 1 else 0 in
  if nframes > 0xffff then invalid_arg "Wire: payload too large to frame";
  let frames = ref [] in
  for ix = data_frames - 1 downto 0 do
    let off = ix * max_fragment in
    let n = min max_fragment (len - off) in
    let n = max n 0 in
    frames :=
      make_frame ~kind ~sid ~rid ~frame_ix:ix ~nframes ~retry ~deadline_us
        (String.sub payload off n)
      :: !frames
  done;
  if trailer then
    frames :=
      !frames
      @ [ make_frame ~kind ~sid ~rid ~frame_ix:(nframes - 1) ~nframes ~retry ~deadline_us "" ];
  !frames

let encode_request ?(retry = false) ?(deadline_us = 0L) ~sid ~rid req =
  let payload = encode_req_payload req in
  (* Only a windowed (multi-fragment) upload needs the end-of-stream
     trailer; a write that fits one frame is its own "that was all of
     it", and the spare frame would cost a full per-frame latency on the
     hottest path in the system (the 8 KB chunk writes of a file
     create). *)
  let trailer =
    match carried req with
    | Write _ | Shard_write _ | Migrate_in _ -> String.length payload > max_fragment
    | _ -> false
  in
  frame_payload ~kind:0 ~sid ~rid ~trailer ~retry ~deadline_us payload

let encode_reply ~sid ~rid reply =
  frame_payload ~kind:1 ~sid ~rid ~trailer:false ~retry:false ~deadline_us:0L
    (encode_reply_payload reply)

let decode_header frame =
  let n = String.length frame in
  if n < header_bytes then None
  else if String.sub frame 0 4 <> magic then None
  else if String.get_uint16_be frame 4 <> version then None
  else
    let kind = String.get_uint8 frame 6 in
    if kind > 1 then None
    else
      let plen = u32_at frame 28 in
      if plen <> n - header_bytes then None
      else
        let recorded = u32_at frame 32 in
        let b = Bytes.of_string frame in
        Bytes.set_int32_be b 32 0l;
        let computed = Pagestore.Page.crc32 b ~off:0 ~len:n in
        if computed <> recorded then None
        else
          let frame_ix = String.get_uint16_be frame 24 in
          let nframes = String.get_uint16_be frame 26 in
          if nframes < 1 || frame_ix >= nframes then None
          else
            Some
              {
                kind;
                sid = String.get_int64_be frame 8;
                rid = String.get_int64_be frame 16;
                frame_ix;
                nframes;
                retry = String.get_uint8 frame 7 land 1 <> 0;
                deadline_us = String.get_int64_be frame 36;
                payload = String.sub frame header_bytes plen;
              }

(* ---------------- reassembly ---------------- *)

module Assembly = struct
  type slot = { nframes : int; parts : string option array; mutable have : int }

  (* key: (kind, sid, rid) *)
  type t = (int * int64 * int64, slot) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let reset (t : t) = Hashtbl.reset t

  let add (t : t) (h : hdr) =
    let key = (h.kind, h.sid, h.rid) in
    let slot =
      match Hashtbl.find_opt t key with
      | Some s when s.nframes = h.nframes -> s
      | Some _ | None ->
        let s = { nframes = h.nframes; parts = Array.make h.nframes None; have = 0 } in
        Hashtbl.replace t key s;
        s
    in
    (match slot.parts.(h.frame_ix) with
    | Some _ -> () (* duplicate fragment of a retry; ignore *)
    | None ->
      slot.parts.(h.frame_ix) <- Some h.payload;
      slot.have <- slot.have + 1);
    if slot.have = slot.nframes then begin
      Hashtbl.remove t key;
      let b = Buffer.create 256 in
      Array.iter (function Some p -> Buffer.add_string b p | None -> assert false) slot.parts;
      `Complete (Buffer.contents b)
    end
    else `Pending
end
