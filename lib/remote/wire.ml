let magic = "INVW"
let version = 1
let header_bytes = 96
let max_fragment = Invfs.Chunk.capacity + 64
let max_read_len = 1 lsl 22
let max_carried_closes = 256

(* ---------------- CRC-32 (IEEE, reflected) ---------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 b ~off ~len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = off to off + len - 1 do
    let ix = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl) in
    c := Int32.logxor table.(ix) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

(* ---------------- primitive (de)serialization ---------------- *)

exception Decode
exception Unknown_opcode of int

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let put_bool b v = put_u8 b (if v then 1 else 0)

let put_i32 b v =
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_i64 b v =
  for i = 7 downto 0 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let put_str b s =
  put_i32 b (String.length s);
  Buffer.add_string b s

let put_opt_i64 b = function
  | None -> put_u8 b 0
  | Some v ->
    put_u8 b 1;
    put_i64 b v

let put_opt_str b = function
  | None -> put_u8 b 0
  | Some s ->
    put_u8 b 1;
    put_str b s

type cursor = { data : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.data then raise Decode

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_bool c = get_u8 c <> 0

let get_i32 c =
  let a = get_u8 c in
  let b = get_u8 c in
  let d = get_u8 c in
  let e = get_u8 c in
  (a lsl 24) lor (b lsl 16) lor (d lsl 8) lor e

let get_i64 c =
  let v = ref 0L in
  for _ = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 c))
  done;
  !v

let get_str c =
  let n = get_i32 c in
  if n < 0 then raise Decode;
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_opt_i64 c = if get_u8 c = 0 then None else Some (get_i64 c)
let get_opt_str c = if get_u8 c = 0 then None else Some (get_str c)

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

let rec req_name = function
  | Hello -> "hello"
  | Bye -> "bye"
  | Ping -> "ping"
  | Begin -> "p_begin"
  | Commit -> "p_commit"
  | Abort -> "p_abort"
  | Creat _ -> "p_creat"
  | Open _ -> "p_open"
  | Close _ -> "p_close"
  | Read _ -> "p_read"
  | Write _ -> "p_write"
  | Ftruncate _ -> "ftruncate"
  | Filesize _ -> "filesize"
  | Mkdir _ -> "mkdir"
  | Readdir _ -> "readdir"
  | Unlink _ -> "unlink"
  | Rmdir _ -> "rmdir"
  | Rename _ -> "rename"
  | Stat _ -> "stat"
  | Exists _ -> "exists"
  | Query _ -> "query"
  | Set_owner _ -> "set_owner"
  | Set_type _ -> "set_type"
  | Define_type _ -> "define_type"
  | Crash_server -> "crash_server"
  | Heartbeat _ -> "heartbeat"
  | Get_placement -> "get_placement"
  | Shard_read _ -> "shard_read"
  | Shard_write _ -> "shard_write"
  | Shard_truncate _ -> "shard_truncate"
  | Fetch_chunks _ -> "fetch_chunks"
  | Migrate_in _ -> "migrate_in"
  | Drop_bucket _ -> "drop_bucket"
  | Snapshot -> "snapshot"
  | Clone _ -> "clone"
  | Vacuum_step _ -> "vacuum_step"
  | Read_file _ -> "read_file"
  | Carry { req; _ } -> req_name req

let rec put_req b = function
  | Hello -> put_u8 b 1
  | Bye -> put_u8 b 2
  | Ping -> put_u8 b 3
  | Begin -> put_u8 b 4
  | Commit -> put_u8 b 5
  | Abort -> put_u8 b 6
  | Creat { path; device; ftype; compressed } ->
    put_u8 b 7;
    put_str b path;
    put_opt_str b device;
    put_opt_str b ftype;
    put_bool b compressed
  | Open { path; mode; timestamp } ->
    put_u8 b 8;
    put_str b path;
    put_u8 b mode;
    put_opt_i64 b timestamp
  | Close { fd } ->
    put_u8 b 9;
    put_i32 b fd
  | Read { fd; off; len } ->
    put_u8 b 10;
    put_i32 b fd;
    put_i64 b off;
    put_i32 b len
  | Write { fd; off; data } ->
    put_u8 b 11;
    put_i32 b fd;
    put_i64 b off;
    put_str b data
  | Ftruncate { fd; size } ->
    put_u8 b 12;
    put_i32 b fd;
    put_i64 b size
  | Filesize { fd } ->
    put_u8 b 13;
    put_i32 b fd
  | Mkdir { path } ->
    put_u8 b 14;
    put_str b path
  | Readdir { path; timestamp } ->
    put_u8 b 15;
    put_str b path;
    put_opt_i64 b timestamp
  | Unlink { path } ->
    put_u8 b 16;
    put_str b path
  | Rmdir { path } ->
    put_u8 b 17;
    put_str b path
  | Rename { src; dst } ->
    put_u8 b 18;
    put_str b src;
    put_str b dst
  | Stat { path; timestamp } ->
    put_u8 b 19;
    put_str b path;
    put_opt_i64 b timestamp
  | Exists { path; timestamp } ->
    put_u8 b 20;
    put_str b path;
    put_opt_i64 b timestamp
  | Query { text; timestamp } ->
    put_u8 b 21;
    put_str b text;
    put_opt_i64 b timestamp
  | Set_owner { path; owner } ->
    put_u8 b 22;
    put_str b path;
    put_str b owner
  | Set_type { path; ftype } ->
    put_u8 b 23;
    put_str b path;
    put_str b ftype
  | Define_type { name } ->
    put_u8 b 24;
    put_str b name
  | Crash_server -> put_u8 b 25
  | Heartbeat { shard; epoch } ->
    put_u8 b 26;
    put_i32 b shard;
    put_i32 b epoch
  | Get_placement -> put_u8 b 27
  | Shard_read { oid; off; len; epoch } ->
    put_u8 b 28;
    put_i64 b oid;
    put_i64 b off;
    put_i32 b len;
    put_i32 b epoch
  | Shard_write { oid; off; data; epoch } ->
    put_u8 b 29;
    put_i64 b oid;
    put_i64 b off;
    put_i32 b epoch;
    put_str b data
  | Shard_truncate { oid; size; epoch } ->
    put_u8 b 30;
    put_i64 b oid;
    put_i64 b size;
    put_i32 b epoch
  | Fetch_chunks { oid } ->
    put_u8 b 31;
    put_i64 b oid
  | Migrate_in { oid; epoch; data } ->
    put_u8 b 32;
    put_i64 b oid;
    put_i32 b epoch;
    put_str b data
  | Drop_bucket { bucket; epoch } ->
    put_u8 b 33;
    put_i32 b bucket;
    put_i32 b epoch
  | Snapshot -> put_u8 b 34
  | Clone { src; dst } ->
    put_u8 b 35;
    put_str b src;
    put_str b dst
  | Vacuum_step { pages } ->
    put_u8 b 36;
    put_i32 b pages
  | Read_file { path; timestamp; off; len } ->
    put_u8 b 37;
    put_str b path;
    put_opt_i64 b timestamp;
    put_i64 b off;
    put_i32 b len
  | Carry { closes; begin_txn; req } ->
    put_u8 b 38;
    put_i32 b (List.length closes);
    List.iter (put_i32 b) closes;
    put_bool b begin_txn;
    put_req b req

let encode_req_payload req =
  let b = Buffer.create 64 in
  put_req b req;
  Buffer.contents b

(* Distinguishes an opcode from the future ([`Unknown]) from a payload
   that is damaged or truncated ([`Malformed]): the server answers the
   former with a structured [Unsupported] reply — version skew must not
   look like packet loss — and drops only the latter. *)
let rec get_req c ~nested =
  match get_u8 c with
  | 1 -> Hello
  | 2 -> Bye
  | 3 -> Ping
  | 4 -> Begin
  | 5 -> Commit
  | 6 -> Abort
  | 7 ->
    let path = get_str c in
    let device = get_opt_str c in
    let ftype = get_opt_str c in
    let compressed = get_bool c in
    Creat { path; device; ftype; compressed }
  | 8 ->
    let path = get_str c in
    let mode = get_u8 c in
    let timestamp = get_opt_i64 c in
    Open { path; mode; timestamp }
  | 9 -> Close { fd = get_i32 c }
  | 10 ->
    let fd = get_i32 c in
    let off = get_i64 c in
    let len = get_i32 c in
    Read { fd; off; len }
  | 11 ->
    let fd = get_i32 c in
    let off = get_i64 c in
    let data = get_str c in
    Write { fd; off; data }
  | 12 ->
    let fd = get_i32 c in
    let size = get_i64 c in
    Ftruncate { fd; size }
  | 13 -> Filesize { fd = get_i32 c }
  | 14 -> Mkdir { path = get_str c }
  | 15 ->
    let path = get_str c in
    let timestamp = get_opt_i64 c in
    Readdir { path; timestamp }
  | 16 -> Unlink { path = get_str c }
  | 17 -> Rmdir { path = get_str c }
  | 18 ->
    let src = get_str c in
    let dst = get_str c in
    Rename { src; dst }
  | 19 ->
    let path = get_str c in
    let timestamp = get_opt_i64 c in
    Stat { path; timestamp }
  | 20 ->
    let path = get_str c in
    let timestamp = get_opt_i64 c in
    Exists { path; timestamp }
  | 21 ->
    let text = get_str c in
    let timestamp = get_opt_i64 c in
    Query { text; timestamp }
  | 22 ->
    let path = get_str c in
    let owner = get_str c in
    Set_owner { path; owner }
  | 23 ->
    let path = get_str c in
    let ftype = get_str c in
    Set_type { path; ftype }
  | 24 -> Define_type { name = get_str c }
  | 25 -> Crash_server
  | 26 ->
    let shard = get_i32 c in
    let epoch = get_i32 c in
    Heartbeat { shard; epoch }
  | 27 -> Get_placement
  | 28 ->
    let oid = get_i64 c in
    let off = get_i64 c in
    let len = get_i32 c in
    let epoch = get_i32 c in
    Shard_read { oid; off; len; epoch }
  | 29 ->
    let oid = get_i64 c in
    let off = get_i64 c in
    let epoch = get_i32 c in
    let data = get_str c in
    Shard_write { oid; off; data; epoch }
  | 30 ->
    let oid = get_i64 c in
    let size = get_i64 c in
    let epoch = get_i32 c in
    Shard_truncate { oid; size; epoch }
  | 31 -> Fetch_chunks { oid = get_i64 c }
  | 32 ->
    let oid = get_i64 c in
    let epoch = get_i32 c in
    let data = get_str c in
    Migrate_in { oid; epoch; data }
  | 33 ->
    let bucket = get_i32 c in
    let epoch = get_i32 c in
    Drop_bucket { bucket; epoch }
  | 34 -> Snapshot
  | 35 ->
    let src = get_str c in
    let dst = get_str c in
    Clone { src; dst }
  | 36 -> Vacuum_step { pages = get_i32 c }
  | 37 ->
    let path = get_str c in
    let timestamp = get_opt_i64 c in
    let off = get_i64 c in
    let len = get_i32 c in
    Read_file { path; timestamp; off; len }
  | 38 ->
    (* one level only: a carrier inside a carrier is malformed, so
       hostile input cannot drive the recursion deeper *)
    if nested then raise Decode;
    let n = get_i32 c in
    if n < 0 || n > max_carried_closes then raise Decode;
    let closes = List.init n (fun _ -> get_i32 c) in
    let begin_txn = get_bool c in
    Carry { closes; begin_txn; req = get_req c ~nested:true }
  | op -> raise (Unknown_opcode op)

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

let code_to_byte : Invfs.Errors.code -> int = function
  | ENOENT -> 1
  | EEXIST -> 2
  | EISDIR -> 3
  | ENOTDIR -> 4
  | ENOTEMPTY -> 5
  | EBADF -> 6
  | EINVAL -> 7
  | EROFS -> 8
  | ETXN -> 9
  | EDEADLK -> 10
  | EAGAIN -> 11
  | EIO -> 12
  | ETIMEDOUT -> 13
  | ECONNRESET -> 14
  | EBUSY -> 15
  | ENOTSUP -> 16
  | ESTALE -> 17

let code_of_byte : int -> Invfs.Errors.code = function
  | 1 -> ENOENT
  | 2 -> EEXIST
  | 3 -> EISDIR
  | 4 -> ENOTDIR
  | 5 -> ENOTEMPTY
  | 6 -> EBADF
  | 7 -> EINVAL
  | 8 -> EROFS
  | 9 -> ETXN
  | 10 -> EDEADLK
  | 11 -> EAGAIN
  | 12 -> EIO
  | 13 -> ETIMEDOUT
  | 14 -> ECONNRESET
  | 15 -> EBUSY
  | 16 -> ENOTSUP
  | 17 -> ESTALE
  | _ -> raise Decode

let encode_reply_payload reply =
  let b = Buffer.create 64 in
  (match reply with
  | Ok_reply { txn_open; result } ->
    put_u8 b 0;
    put_bool b txn_open;
    (match result with
    | R_unit -> put_u8 b 0
    | R_sid sid ->
      put_u8 b 1;
      put_i64 b sid
    | R_fd fd ->
      put_u8 b 2;
      put_i32 b fd
    | R_int v ->
      put_u8 b 3;
      put_i64 b v
    | R_bool v ->
      put_u8 b 4;
      put_bool b v
    | R_data s ->
      put_u8 b 5;
      put_str b s
    | R_names names ->
      put_u8 b 6;
      put_i32 b (List.length names);
      List.iter (put_str b) names
    | R_rows rows ->
      put_u8 b 7;
      put_i32 b (List.length rows);
      List.iter
        (fun row ->
          put_i32 b (List.length row);
          List.iter (put_str b) row)
        rows
    | R_att (a : Invfs.Fileatt.att) ->
      put_u8 b 8;
      put_i64 b a.file;
      put_i64 b a.size;
      put_str b a.owner;
      put_str b a.ftype;
      put_str b a.device;
      put_i32 b (a.index_segid land 0xffffffff);
      put_bool b a.compressed;
      put_i64 b a.ctime;
      put_i64 b a.mtime;
      put_i64 b a.atime
    | R_placement { p_epoch; p_owner; p_handoff } ->
      put_u8 b 9;
      put_i32 b p_epoch;
      put_i32 b (Array.length p_owner);
      Array.iter (put_i32 b) p_owner;
      put_i32 b (List.length p_handoff);
      List.iter (put_i32 b) p_handoff)
  | Err_reply { txn_open; code; msg } ->
    put_u8 b 1;
    put_bool b txn_open;
    put_u8 b (code_to_byte code);
    put_str b msg
  | Io_fault_reply { txn_open } ->
    put_u8 b 2;
    put_bool b txn_open
  | Unknown_session -> put_u8 b 3
  | Overloaded { retry_after_s } ->
    put_u8 b 4;
    (* microseconds on the wire: floats don't serialize *)
    put_i64 b (Int64.of_float (retry_after_s *. 1e6))
  | Unsupported { opcode } ->
    put_u8 b 5;
    put_u8 b opcode
  | Wrong_shard { epoch } ->
    put_u8 b 6;
    put_i32 b epoch);
  Buffer.contents b

let decode_reply payload =
  let c = { data = payload; pos = 0 } in
  try
    let reply =
      match get_u8 c with
      | 0 ->
        let txn_open = get_bool c in
        let result =
          match get_u8 c with
          | 0 -> R_unit
          | 1 -> R_sid (get_i64 c)
          | 2 -> R_fd (get_i32 c)
          | 3 -> R_int (get_i64 c)
          | 4 -> R_bool (get_bool c)
          | 5 -> R_data (get_str c)
          | 6 ->
            let n = get_i32 c in
            if n < 0 then raise Decode;
            R_names (List.init n (fun _ -> get_str c))
          | 7 ->
            let n = get_i32 c in
            if n < 0 then raise Decode;
            R_rows
              (List.init n (fun _ ->
                   let m = get_i32 c in
                   if m < 0 then raise Decode;
                   List.init m (fun _ -> get_str c)))
          | 8 ->
            let file = get_i64 c in
            let size = get_i64 c in
            let owner = get_str c in
            let ftype = get_str c in
            let device = get_str c in
            let index_segid =
              let v = get_i32 c in
              if v = 0xffffffff then -1 else v
            in
            let compressed = get_bool c in
            let ctime = get_i64 c in
            let mtime = get_i64 c in
            let atime = get_i64 c in
            R_att
              {
                file;
                size;
                owner;
                ftype;
                device;
                index_segid;
                compressed;
                ctime;
                mtime;
                atime;
              }
          | 9 ->
            let p_epoch = get_i32 c in
            let n = get_i32 c in
            if n < 0 || n > 0xffff then raise Decode;
            let p_owner = Array.init n (fun _ -> get_i32 c) in
            let m = get_i32 c in
            if m < 0 || m > 0xffff then raise Decode;
            let p_handoff = List.init m (fun _ -> get_i32 c) in
            R_placement { p_epoch; p_owner; p_handoff }
          | _ -> raise Decode
        in
        Ok_reply { txn_open; result }
      | 1 ->
        let txn_open = get_bool c in
        let code = code_of_byte (get_u8 c) in
        let msg = get_str c in
        Err_reply { txn_open; code; msg }
      | 2 -> Io_fault_reply { txn_open = get_bool c }
      | 3 -> Unknown_session
      | 4 -> Overloaded { retry_after_s = Int64.to_float (get_i64 c) /. 1e6 }
      | 5 -> Unsupported { opcode = get_u8 c }
      | 6 -> Wrong_shard { epoch = get_i32 c }
      | _ -> raise Decode
    in
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

let set_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let set_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let set_i64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff))
  done

let u16_at s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let u32_at s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let i64_at s off =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let make_frame ~kind ~sid ~rid ~frame_ix ~nframes ~retry ~deadline_us fragment =
  let n = String.length fragment in
  let b = Bytes.make (header_bytes + n) '\000' in
  Bytes.blit_string magic 0 b 0 4;
  set_u16 b 4 version;
  Bytes.set b 6 (Char.chr kind);
  Bytes.set b 7 (Char.chr (if retry then 1 else 0));
  set_i64 b 8 sid;
  set_i64 b 16 rid;
  set_u16 b 24 frame_ix;
  set_u16 b 26 nframes;
  set_u32 b 28 n;
  set_i64 b 36 deadline_us;
  Bytes.blit_string fragment 0 b header_bytes n;
  (* CRC over the whole frame with the crc field zeroed *)
  let crc = crc32 b ~off:0 ~len:(Bytes.length b) in
  set_u32 b 32 (Int32.to_int crc land 0xffffffff);
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
  else if u16_at frame 4 <> version then None
  else
    let kind = Char.code frame.[6] in
    if kind > 1 then None
    else
      let plen = u32_at frame 28 in
      if plen <> n - header_bytes then None
      else
        let recorded = u32_at frame 32 in
        let b = Bytes.of_string frame in
        set_u32 b 32 0;
        let computed = Int32.to_int (crc32 b ~off:0 ~len:n) land 0xffffffff in
        if computed <> recorded then None
        else
          let frame_ix = u16_at frame 24 in
          let nframes = u16_at frame 26 in
          if nframes < 1 || frame_ix >= nframes then None
          else
            Some
              {
                kind;
                sid = i64_at frame 8;
                rid = i64_at frame 16;
                frame_ix;
                nframes;
                retry = Char.code frame.[7] land 1 <> 0;
                deadline_us = i64_at frame 36;
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
