(* The client/server RPC layer: wire framing, exactly-once semantics
   under duplication and lost replies, session loss and clean aborts,
   lease expiry freeing a dead client's locks, server crash mid-request
   composing with recovery. *)

module Fs = Invfs.Fs
module E = Invfs.Errors
module Wire = Remote.Wire
module Server = Remote.Server
module Client = Remote.Client
module Link = Netsim.Link
module F = Faultsim

let mk ?lease_s ?run_cap ?park_cap ?lock_wait_s ?shed_watermark ?vacuum_every_s ?vacuum_pages () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  ignore
    (Pagestore.Switch.add_device switch ~name:"disk0"
       ~kind:Pagestore.Device.Magnetic_disk ()
      : Pagestore.Device.t);
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let server =
    Server.create ~fs ?lease_s ?run_cap ?park_cap ?lock_wait_s ?shed_watermark
      ?vacuum_every_s ?vacuum_pages ()
  in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  (clock, fs, server, net)

let mk_client ?config server net seed =
  let link = Link.create net in
  Client.connect ?config ~server ~link ~rng:(Simclock.Rng.create seed) ()

let expect_error code f =
  match f () with
  | _ -> Alcotest.fail ("expected " ^ E.code_to_string code)
  | exception E.Fs_error (got, msg) ->
    Alcotest.(check string) "error code" (E.code_to_string code) (E.code_to_string got);
    msg

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ---- raw sessions: hand-built frames, no client library ----

   The overload, deadline and version-skew tests need precise control
   over request ids, retry flags, deadlines and pump timing — things the
   client library deliberately hides — so they speak {!Wire} directly:
   build frames, put them on the link, pump the server, drain replies. *)

type raw = {
  r_link : Link.t;
  mutable r_sid : int64;
  mutable r_rid : int64;
  r_asm : Wire.Assembly.t;
}

let raw_send ?(charge = true) ?retry ?deadline_us ?rid r req =
  let rid =
    match rid with
    | Some rid -> rid
    | None ->
      r.r_rid <- Int64.add r.r_rid 1L;
      r.r_rid
  in
  List.iter
    (fun f -> Link.send ~charge r.r_link Link.To_server f)
    (Wire.encode_request ?retry ?deadline_us ~sid:r.r_sid ~rid req);
  rid

(* Drain and decode every reply currently queued toward this client. *)
let raw_replies r =
  let out = ref [] in
  let rec drain () =
    match Link.recv r.r_link Link.To_client with
    | None -> ()
    | Some (frame, _poisoned) ->
      (match Wire.decode_header frame with
      | None -> ()
      | Some h -> (
        match Wire.Assembly.add r.r_asm h with
        | `Complete payload -> (
          match Wire.decode_reply payload with
          | Some rep -> out := (h.Wire.rid, rep) :: !out
          | None -> ())
        | `Pending -> ()));
      drain ()
  in
  drain ();
  List.rev !out

let raw_reply r rid =
  match List.assoc_opt rid (raw_replies r) with
  | Some rep -> rep
  | None -> Alcotest.fail (Printf.sprintf "no reply for rid %Ld" rid)

(* Hello request ids are connection nonces, deduplicated in a window
   shared across connections — every raw session needs a fresh one or
   the server replays the previous session's handshake. *)
let raw_nonce = ref 0x5EED00L

let raw_connect server net =
  let link = Link.create net in
  Server.attach server link;
  let r = { r_link = link; r_sid = 0L; r_rid = 0L; r_asm = Wire.Assembly.create () } in
  raw_nonce := Int64.add !raw_nonce 1L;
  let rid = raw_send ~rid:!raw_nonce r Wire.Hello in
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Ok_reply { result = Wire.R_sid sid; _ } -> r.r_sid <- sid
  | _ -> Alcotest.fail "raw hello failed");
  r

(* Send one request, pump, and insist on an [Ok_reply]. *)
let raw_ok r server req =
  let rid = raw_send r req in
  Server.pump server;
  match raw_reply r rid with
  | Wire.Ok_reply { result; _ } -> result
  | Wire.Err_reply { code; msg; _ } ->
    Alcotest.fail
      (Printf.sprintf "%s failed: %s %s" (Wire.req_name req) (E.code_to_string code) msg)
  | _ -> Alcotest.fail (Wire.req_name req ^ ": unexpected reply kind")

let raw_fd r server req =
  match raw_ok r server req with
  | Wire.R_fd fd -> fd
  | _ -> Alcotest.fail (Wire.req_name req ^ ": expected a file descriptor")

(* ---- wire framing ---- *)

(* Reassemble a frame list the way the receiver does: parse + CRC-check
   every frame, feed it to Assembly, return the completed payload. *)
let assemble frames =
  let asm = Wire.Assembly.create () in
  let payload =
    List.fold_left
      (fun acc frame ->
        match Wire.decode_header frame with
        | None -> Alcotest.fail "frame failed parse/CRC"
        | Some h -> (
          match Wire.Assembly.add asm h with `Complete p -> Some p | `Pending -> acc))
      None frames
  in
  match payload with
  | Some p -> p
  | None -> Alcotest.fail "frames did not complete a message"

let test_wire_roundtrip () =
  let req =
    Wire.Creat { path = "/a/b"; device = Some "disk0"; ftype = None; compressed = true }
  in
  let frames = Wire.encode_request ~sid:7L ~rid:9L req in
  Alcotest.(check int) "one frame" 1 (List.length frames);
  let asm = Wire.Assembly.create () in
  let decoded =
    List.fold_left
      (fun acc frame ->
        match Wire.decode_header frame with
        | None -> Alcotest.fail "frame did not parse"
        | Some h ->
          Alcotest.(check int) "kind" 0 h.Wire.kind;
          Alcotest.(check int64) "sid" 7L h.Wire.sid;
          Alcotest.(check int64) "rid" 9L h.Wire.rid;
          (match Wire.Assembly.add asm h with
          | `Complete payload -> Wire.decode_request payload
          | `Pending -> acc))
      None frames
  in
  (match decoded with
  | Some (Wire.Creat { path; device; ftype; compressed }) ->
    Alcotest.(check string) "path" "/a/b" path;
    Alcotest.(check (option string)) "device" (Some "disk0") device;
    Alcotest.(check (option string)) "ftype" None ftype;
    Alcotest.(check bool) "compressed" true compressed
  | _ -> Alcotest.fail "decoded to the wrong request");
  (* a large write fragments, and ends with the end-of-stream trailer *)
  let big = String.make (3 * Wire.max_fragment) 'x' in
  let frames = Wire.encode_request ~sid:1L ~rid:2L (Wire.Write { fd = 3; off = 0L; data = big }) in
  Alcotest.(check bool) "fragmented" true (List.length frames >= 4);
  let last = List.nth frames (List.length frames - 1) in
  Alcotest.(check int) "trailer is bare header" Wire.header_bytes (String.length last);
  (* the path-addressed whole-file read, with and without a timestamp *)
  List.iter
    (fun timestamp ->
      let req = Wire.Read_file { path = "/f"; timestamp; off = 5L; len = 4096 } in
      let frames = Wire.encode_request ~sid:1L ~rid:3L req in
      Alcotest.(check int) "read_file is one frame" 1 (List.length frames);
      match Wire.decode_request (assemble frames) with
      | Some (Wire.Read_file r) ->
        Alcotest.(check string) "path" "/f" r.path;
        Alcotest.(check (option int64)) "timestamp" timestamp r.timestamp;
        Alcotest.(check int64) "off" 5L r.off;
        Alcotest.(check int) "len" 4096 r.len
      | _ -> Alcotest.fail "read_file decoded to the wrong request")
    [ None; Some 123_456L ]

let test_wire_crc_rejects_corruption () =
  let frames = Wire.encode_request ~sid:1L ~rid:1L (Wire.Mkdir { path = "/d" }) in
  let frame = List.hd frames in
  Alcotest.(check bool) "intact frame parses" true (Wire.decode_header frame <> None);
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string frame in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      let mangled = Bytes.to_string b in
      if mangled <> frame then
        Alcotest.(check bool)
          (Printf.sprintf "flip at byte %d rejected" i)
          true
          (Wire.decode_header mangled = None))
    frame

let roundtrip_write data =
  let frames =
    Wire.encode_request ~sid:5L ~rid:11L (Wire.Write { fd = 1; off = 0L; data })
  in
  (match Wire.decode_request (assemble frames) with
  | Some (Wire.Write w) ->
    Alcotest.(check int) "data length survives" (String.length data)
      (String.length w.data);
    Alcotest.(check bool) "data bytes survive" true (w.data = data)
  | _ -> Alcotest.fail "decoded to the wrong request");
  frames

let test_wire_empty_payload () =
  (* a zero-byte write still frames, assembles, and decodes to "";
     fitting one frame, it carries no end-of-stream trailer *)
  let frames = roundtrip_write "" in
  Alcotest.(check int) "a short write is a single frame" 1 (List.length frames);
  (* Ping carries no fields at all: the minimal message on the wire *)
  let frames = Wire.encode_request ~sid:1L ~rid:1L Wire.Ping in
  Alcotest.(check int) "ping is one frame" 1 (List.length frames);
  match Wire.decode_request (assemble frames) with
  | Some Wire.Ping -> ()
  | _ -> Alcotest.fail "ping did not roundtrip"

let test_wire_boundary_payload () =
  (* Measure the serialization overhead around the data, then pick data
     lengths that land the encoded payload exactly on the fragment
     boundary and one byte past it. *)
  let payload_len data =
    let frames =
      Wire.encode_request ~sid:5L ~rid:11L (Wire.Write { fd = 1; off = 0L; data })
    in
    List.fold_left
      (fun acc f ->
        match Wire.decode_header f with
        | Some h -> acc + String.length h.Wire.payload
        | None -> Alcotest.fail "frame failed parse/CRC")
      0 frames
  in
  let probe = String.make 100 'p' in
  let overhead = payload_len probe - 100 in
  let at_boundary = String.make (Wire.max_fragment - overhead) 'b' in
  let frames = roundtrip_write at_boundary in
  (* exactly filling one frame is still "not windowed": no trailer *)
  Alcotest.(check int) "exact fit: one full data frame" 1 (List.length frames);
  (match Wire.decode_header (List.hd frames) with
  | Some h ->
    Alcotest.(check int) "data frame filled to max_fragment" Wire.max_fragment
      (String.length h.Wire.payload)
  | None -> Alcotest.fail "boundary frame failed parse/CRC");
  let past_boundary = String.make (Wire.max_fragment - overhead + 1) 'c' in
  let frames = roundtrip_write past_boundary in
  Alcotest.(check int) "one byte over: two data frames + trailer" 3
    (List.length frames)

let test_wire_max_frame_roundtrip () =
  (* maximum-size message: every frame filled, CRC-checked, reassembled
     byte-for-byte; flipping any byte of a full frame must fail its CRC *)
  let data = String.init (3 * Wire.max_fragment) (fun i -> Char.chr (i land 0xff)) in
  let frames = roundtrip_write data in
  Alcotest.(check bool) "fragmented" true (List.length frames >= 4);
  let full = List.hd frames in
  Alcotest.(check int) "full frame is header + max_fragment"
    (Wire.header_bytes + Wire.max_fragment)
    (String.length full);
  let b = Bytes.of_string full in
  Bytes.set b (Wire.header_bytes + (Wire.max_fragment / 2))
    (Char.chr (Char.code (Bytes.get b (Wire.header_bytes + (Wire.max_fragment / 2))) lxor 1));
  Alcotest.(check bool) "corrupt max-size frame rejected" true
    (Wire.decode_header (Bytes.to_string b) = None)

let test_wire_duplicate_fragments () =
  (* a retry resending fragments that already arrived must not corrupt
     reassembly: duplicates are ignored, the payload completes once *)
  let data = String.init (2 * Wire.max_fragment) (fun i -> Char.chr ((i * 7) land 0xff)) in
  let frames =
    Wire.encode_request ~sid:5L ~rid:11L (Wire.Write { fd = 1; off = 0L; data })
  in
  let hdrs =
    List.map
      (fun f ->
        match Wire.decode_header f with
        | Some h -> h
        | None -> Alcotest.fail "frame failed parse/CRC")
      frames
  in
  let asm = Wire.Assembly.create () in
  let complete = ref None in
  let feed h =
    match Wire.Assembly.add asm h with
    | `Complete p -> complete := Some p
    | `Pending -> ()
  in
  (match hdrs with
  | h0 :: rest ->
    feed h0;
    feed h0 (* duplicate before the group completes *);
    List.iter feed rest
  | [] -> Alcotest.fail "no frames");
  match !complete with
  | None -> Alcotest.fail "duplicated fragments never completed"
  | Some p -> (
    match Wire.decode_request p with
    | Some (Wire.Write w) ->
      Alcotest.(check bool) "payload intact after duplicates" true (w.data = data)
    | _ -> Alcotest.fail "decoded to the wrong request")

(* ---- codec coverage: every constructor, and hostile carriers ---- *)

let sample_reqs =
  let path = "/a/b" and ts = Some 42L in
  [
    Wire.Hello; Wire.Bye; Wire.Ping; Wire.Begin; Wire.Commit; Wire.Abort;
    Wire.Creat { path; device = Some "disk0"; ftype = Some "text"; compressed = true };
    Wire.Open { path; mode = 1; timestamp = ts };
    Wire.Close { fd = 3 };
    Wire.Read { fd = 3; off = 7L; len = 512 };
    Wire.Write { fd = 3; off = 9L; data = "payload" };
    Wire.Ftruncate { fd = 3; size = 100L };
    Wire.Filesize { fd = 4 };
    Wire.Mkdir { path };
    Wire.Readdir { path; timestamp = ts };
    Wire.Unlink { path };
    Wire.Rmdir { path };
    Wire.Rename { src = path; dst = "/c" };
    Wire.Stat { path; timestamp = None };
    Wire.Exists { path; timestamp = ts };
    Wire.Query { text = "retrieve (filename)"; timestamp = ts };
    Wire.Set_owner { path; owner = "mao" };
    Wire.Set_type { path; ftype = "image" };
    Wire.Define_type { name = "image" };
    Wire.Crash_server;
    Wire.Heartbeat { shard = 2; epoch = 5 };
    Wire.Get_placement;
    Wire.Shard_read { oid = 11L; off = 0L; len = 64; epoch = 3 };
    Wire.Shard_write { oid = 11L; off = 8L; data = "chunk"; epoch = 3 };
    Wire.Shard_truncate { oid = 11L; size = 0L; epoch = 3 };
    Wire.Fetch_chunks { oid = 11L };
    Wire.Migrate_in { oid = 11L; epoch = 4; data = "copy" };
    Wire.Drop_bucket { bucket = 6; epoch = 4 };
    Wire.Snapshot;
    Wire.Clone { src = path; dst = "/clone" };
    Wire.Vacuum_step { pages = 8 };
    Wire.Read_file { path; timestamp = ts; off = 1L; len = 4096 };
    Wire.Carry
      { closes = [ 3; 5 ]; begin_txn = true; req = Wire.Write { fd = 6; off = 0L; data = "x" } };
    Wire.Carry { closes = []; begin_txn = true; req = Wire.Commit };
  ]

let sample_replies =
  let att =
    {
      Invfs.Fileatt.file = 12L;
      size = 4096L;
      owner = "mao";
      ftype = "text";
      device = "disk0";
      index_segid = -1;
      compressed = false;
      ctime = 1L;
      mtime = 2L;
      atime = 3L;
    }
  in
  List.map
    (fun result -> Wire.Ok_reply { txn_open = true; result })
    [
      Wire.R_unit; Wire.R_sid 9L; Wire.R_fd 3; Wire.R_int (-5L); Wire.R_bool true;
      Wire.R_data "bytes"; Wire.R_names [ "a"; "b" ]; Wire.R_rows [ [ "1"; "x" ]; [] ];
      Wire.R_att att;
      Wire.R_placement { Wire.p_epoch = 3; p_owner = [| 1; 2; 1 |]; p_handoff = [ 2 ] };
    ]
  @ [
      Wire.Err_reply { txn_open = false; code = E.EDEADLK; msg = "victim" };
      Wire.Io_fault_reply { txn_open = true };
      Wire.Unknown_session;
      Wire.Overloaded { retry_after_s = 0.25 };
      Wire.Unsupported { opcode = 99 };
      Wire.Wrong_shard { epoch = 7 };
    ]

let payload_of req =
  match Wire.decode_header (List.hd (Wire.encode_request ~sid:1L ~rid:1L req)) with
  | Some h -> h.Wire.payload
  | None -> Alcotest.fail "frame failed parse/CRC"

let tag_of req = Char.code (payload_of req).[0]

let test_codec_every_constructor () =
  List.iter
    (fun (tag, name) ->
      if not (List.exists (fun req -> tag_of req = tag) sample_reqs) then
        Alcotest.fail (Printf.sprintf "declared request %s (tag %d) has no sample" name tag))
    Wire.declared;
  List.iter
    (fun req ->
      match Wire.decode_request_any (assemble (Wire.encode_request ~sid:1L ~rid:2L req)) with
      | `Req back ->
        Alcotest.(check bool) ("request roundtrips: " ^ Wire.req_name req) true (back = req)
      | `Unknown _ | `Malformed -> Alcotest.fail ("request failed to decode: " ^ Wire.req_name req))
    sample_reqs;
  List.iteri
    (fun i reply ->
      match Wire.decode_reply (assemble (Wire.encode_reply ~sid:1L ~rid:2L reply)) with
      | Some back -> Alcotest.(check bool) (Printf.sprintf "reply %d roundtrips" i) true (back = reply)
      | None -> Alcotest.fail (Printf.sprintf "reply %d failed to decode" i))
    sample_replies

(* One request frame around an arbitrary payload, with a valid CRC:
   what a buggy or hostile peer can put on the wire. *)
let frame_with_payload ~sid ~rid payload =
  let template = List.hd (Wire.encode_request ~sid ~rid Wire.Ping) in
  let n = String.length payload in
  let b = Bytes.make (Wire.header_bytes + n) '\000' in
  Bytes.blit_string template 0 b 0 Wire.header_bytes;
  let set_u32 off v =
    for i = 0 to 3 do
      Bytes.set b (off + i) (Char.chr ((v lsr (8 * (3 - i))) land 0xff))
    done
  in
  set_u32 28 n;
  set_u32 32 0;
  Bytes.blit_string payload 0 b Wire.header_bytes n;
  set_u32 32 (Pagestore.Page.crc32 b ~off:0 ~len:(Bytes.length b));
  Bytes.to_string b

let test_codec_hostile_carriers () =
  let be32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff)) in
  let carrier_head ~count = "\038" ^ be32 count in
  let stat_req = Wire.Stat { path = "/f"; timestamp = None } in
  let stat = payload_of stat_req in
  let valid = payload_of (Wire.Carry { closes = [ 3 ]; begin_txn = false; req = stat_req }) in
  let hostile =
    [
      ("carrier in a carrier", carrier_head ~count:0 ^ "\000" ^ carrier_head ~count:0 ^ "\000" ^ stat);
      ( "a hundred thousand nested carriers",
        String.concat "" (List.init 100_000 (fun _ -> carrier_head ~count:0 ^ "\000")) ^ stat );
      ("negative close count", carrier_head ~count:(-1) ^ "\000" ^ stat);
      ( "oversized close count",
        carrier_head ~count:(Wire.max_carried_closes + 1)
        ^ String.concat "" (List.init (Wire.max_carried_closes + 1) (fun _ -> be32 3))
        ^ "\000" ^ stat );
      ("close count past the payload", carrier_head ~count:200 ^ be32 3);
      ("truncated inner request", String.sub valid 0 (String.length valid - 1));
      ("carrier with no inner request", carrier_head ~count:1 ^ be32 3 ^ "\000");
    ]
  in
  let _, _, server, net = mk () in
  let r = raw_connect server net in
  List.iter
    (fun (what, payload) ->
      (match Wire.decode_request_any payload with
      | `Malformed -> ()
      | `Req _ | `Unknown _ -> Alcotest.fail (what ^ ": should decode as `Malformed"));
      (* through the server: the frame passes its CRC, is dropped as
         damage, and the pump keeps serving *)
      r.r_rid <- Int64.add r.r_rid 1L;
      Link.send r.r_link Link.To_server (frame_with_payload ~sid:r.r_sid ~rid:r.r_rid payload);
      Server.pump server;
      Alcotest.(check int) (what ^ ": no reply") 0 (List.length (raw_replies r)))
    hostile;
  (match Wire.decode_request_any valid with
  | `Req (Wire.Carry { closes = [ 3 ]; begin_txn = false; req = Wire.Stat _ }) -> ()
  | _ -> Alcotest.fail "the untruncated carrier should decode");
  match raw_ok r server (Wire.Readdir { path = "/"; timestamp = None }) with
  | Wire.R_names [] -> ()
  | _ -> Alcotest.fail "the session should survive hostile carriers"

(* Values that do not fit a field's wire type: a signed i32 carries a
   negative value both ways, and a byte the field refuses is damage. *)
let test_codec_exact () =
  let back req =
    match Wire.decode_request_any (payload_of req) with
    | `Req r -> r
    | `Unknown _ | `Malformed -> Alcotest.fail ("did not decode: " ^ Wire.req_name req)
  in
  (match back (Wire.Read { fd = 3; off = 0L; len = -1 }) with
  | Wire.Read { len; _ } -> Alcotest.(check int) "negative i32 roundtrips" (-1) len
  | _ -> Alcotest.fail "read decoded to the wrong request");
  (match back (Wire.Heartbeat { shard = -0x8000_0000; epoch = 0x7fff_ffff }) with
  | Wire.Heartbeat { shard; epoch } ->
    Alcotest.(check int) "i32 minimum" (-0x8000_0000) shard;
    Alcotest.(check int) "i32 maximum" 0x7fff_ffff epoch
  | _ -> Alcotest.fail "heartbeat decoded to the wrong request");
  Alcotest.check_raises "an int past i32 is refused"
    (Invalid_argument "Wire: i32 field out of range") (fun () ->
      ignore (payload_of (Wire.Close { fd = 0x8000_0000 }) : string));
  let opn = payload_of (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  let mode_at = 1 + 4 + 2 in
  List.iter
    (fun mode ->
      let p = Bytes.of_string opn in
      Bytes.set_uint8 p mode_at mode;
      match Wire.decode_request_any (Bytes.to_string p) with
      | `Malformed -> ()
      | `Req _ | `Unknown _ -> Alcotest.fail (Printf.sprintf "open mode %d should be malformed" mode))
    [ 2; 0xff ]

(* The class queries, pinned for every request.  Each row: read_only,
   reissuable, mutating, relief, deadline_exempt. *)
let test_class_queries () =
  let row r = Wire.[ read_only r; reissuable r; mutating r; relief r; deadline_exempt r ] in
  let expect req =
    match Wire.carried req with
    | Wire.Open _ | Wire.Read_file _ | Wire.Readdir _ | Wire.Stat _ | Wire.Exists _
    | Wire.Query _ | Wire.Shard_read _ | Wire.Fetch_chunks _ | Wire.Get_placement ->
      [ true; true; false; false; false ]
    | Wire.Read _ | Wire.Filesize _ -> [ true; false; false; false; false ]
    | Wire.Begin | Wire.Ping -> [ false; true; false; false; false ]
    | Wire.Creat _ | Wire.Write _ | Wire.Ftruncate _ | Wire.Mkdir _ | Wire.Unlink _
    | Wire.Rmdir _ | Wire.Rename _ | Wire.Set_owner _ | Wire.Set_type _ | Wire.Define_type _
    | Wire.Shard_write _ | Wire.Shard_truncate _ | Wire.Migrate_in _ | Wire.Drop_bucket _
    | Wire.Clone _ ->
      [ false; false; true; false; false ]
    | Wire.Abort | Wire.Bye -> [ false; false; false; true; true ]
    | Wire.Crash_server -> [ false; false; false; false; true ]
    | Wire.Hello | Wire.Commit | Wire.Close _ | Wire.Heartbeat _ | Wire.Snapshot
    | Wire.Vacuum_step _ | Wire.Carry _ ->
      [ false; false; false; false; false ]
  in
  List.iter
    (fun req -> Alcotest.(check (list bool)) (Wire.req_name req) (expect req) (row req))
    sample_reqs

(* ---- golden corpus: the bytes every message had before the protocol
   became one declaration table ---- *)

let golden file =
  let ic = open_in_bin (Filename.concat "wire_golden" file) in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line when line = "" || line.[0] = '#' -> go acc
    | line ->
      let kind, hex =
        match String.split_on_char ' ' line with
        | [ kind; hex ] -> (kind, hex)
        | _ -> Alcotest.fail ("bad golden line in " ^ file)
      in
      go ((kind, String.init (String.length hex / 2) (fun i ->
          Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))) :: acc)
  in
  go []

let test_golden_samples () =
  let lines = golden "samples.txt" in
  let of_kind k = List.filter_map (fun (kind, p) -> if kind = k then Some p else None) lines in
  let reqs = of_kind "req" and reps = of_kind "rep" in
  Alcotest.(check int) "a payload per sample request" (List.length sample_reqs) (List.length reqs);
  Alcotest.(check int) "a payload per sample reply" (List.length sample_replies) (List.length reps);
  List.iter2
    (fun req p ->
      let name = Wire.req_name req in
      Alcotest.(check string) ("encodes as before: " ^ name) p (payload_of req);
      Alcotest.(check bool) ("decodes as before: " ^ name) true (Wire.decode_request p = Some req))
    sample_reqs reqs;
  List.iteri
    (fun i (reply, p) ->
      Alcotest.(check string) (Printf.sprintf "reply %d encodes as before" i) p
        (assemble (Wire.encode_reply ~sid:1L ~rid:2L reply));
      Alcotest.(check bool) (Printf.sprintf "reply %d decodes as before" i) true
        (Wire.decode_reply p = Some reply))
    (List.combine sample_replies reps)

let test_golden_net_corpus () =
  let lines = golden "net_quick.txt" in
  Alcotest.(check bool) "corpus is there" true (List.length lines > 1000);
  List.iteri
    (fun i (kind, p) ->
      let again =
        match kind with
        | "req" -> (
          match Wire.decode_request p with
          | Some req -> payload_of req
          | None -> Alcotest.fail (Printf.sprintf "request %d no longer decodes" i))
        | _ -> (
          match Wire.decode_reply p with
          | Some reply -> assemble (Wire.encode_reply ~sid:1L ~rid:2L reply)
          | None -> Alcotest.fail (Printf.sprintf "reply %d no longer decodes" i))
      in
      if again <> p then Alcotest.fail (Printf.sprintf "%s %d re-encodes to other bytes" kind i))
    lines

(* ---- hostile payloads, derived from the declarations ----

   For every field of every sample request, splice in values the field's
   type allows on the wire but a well-behaved peer never sends, put the
   payload in a frame with a valid CRC, and send it.  Each must decode as
   damage, as an unknown opcode, or to a request the server answers with
   a result or a typed errno; and a second session must still be served
   after each. *)
let test_codec_hostile_fields () =
  let _, _, server, net = mk () in
  let r = raw_connect server net in
  let other = raw_connect server net in
  ignore (raw_ok r server (Wire.Mkdir { path = "/a" }) : Wire.result);
  let fd = raw_fd r server (Wire.Creat { path = "/a/b"; device = None; ftype = None; compressed = false }) in
  ignore (raw_ok r server (Wire.Write { fd; off = 0L; data = "contents" }) : Wire.result);
  ignore (raw_ok r server (Wire.Close { fd }) : Wire.result);
  let be32 v = String.init 4 (fun i -> Char.chr ((v asr (8 * (3 - i))) land 0xff)) in
  let be64 v =
    String.init 8 (fun i -> Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff))
  in
  let splice p off len s = String.sub p 0 off ^ s ^ String.sub p (off + len) (String.length p - off - len) in
  let byte v = String.make 1 (Char.chr v) in
  let mutations p (field, off) =
    match field with
    | `I32 -> List.map (fun v -> splice p off 4 (be32 v)) [ -1; 0; Wire.max_read_len + 1; 0x7fff_ffff ]
    | `I64 ->
      List.map (fun v -> splice p off 8 (be64 v))
        [ -1L; 0L; Int64.of_int (Wire.max_read_len + 1); Int64.max_int ]
    | `Byte -> List.map (fun v -> splice p off 1 (byte v)) [ 0; 1; 2; 0xff ]
    | `Bool -> List.map (fun v -> splice p off 1 (byte v)) [ 2; 0xff ]
    | `Opt -> List.init 254 (fun i -> splice p off 1 (byte (i + 2)))
    | `Count -> List.map (fun v -> splice p off 4 (be32 v)) [ 0x8000_0000; -1; 0x7fff_ffff ]
    | `Str ->
      let n = Int32.to_int (String.get_int32_be p off) in
      let rest = String.length p - off - 4 in
      [ splice p off 4 (be32 (rest + 1)); splice p off 4 (be32 0x7fff_ffff) ]
      @ List.map (fun s -> splice p off (4 + n) (be32 (String.length s) ^ s)) [ ""; ".."; "a\000b"; "/a/../b" ]
  in
  let cases = ref 0 and seen = Hashtbl.create 64 in
  let served = Hashtbl.create 64 in
  let try_payload req payload =
    incr cases;
    Hashtbl.replace seen (tag_of req) ();
    r.r_rid <- Int64.add r.r_rid 1L;
    Link.send r.r_link Link.To_server (frame_with_payload ~sid:r.r_sid ~rid:r.r_rid payload);
    Server.pump server;
    let replies = raw_replies r in
    let what = Printf.sprintf "%s case %d" (Wire.req_name req) !cases in
    (match (Wire.decode_request_any payload, replies) with
    | `Malformed, [] -> ()
    | `Unknown op, [ (_, Wire.Unsupported { opcode }) ] -> Alcotest.(check int) what op opcode
    | `Req _, [ (_, (Wire.Ok_reply _ | Wire.Err_reply _)) ] ->
      Hashtbl.replace served (tag_of req) ()
    | _ -> Alcotest.fail (what ^ ": not dropped, refused or answered"));
    (* whatever it began ends here, and the other session is still served *)
    ignore (raw_send r Wire.Abort : int64);
    Server.pump server;
    ignore (raw_replies r : (int64 * Wire.reply) list);
    match raw_ok other server (Wire.Stat { path = "/a/b"; timestamp = None }) with
    | Wire.R_att _ -> ()
    | _ -> Alcotest.fail (what ^ ": the other session went unserved")
  in
  List.iter
    (fun req ->
      let p = payload_of req in
      try_payload req (p ^ "\000");
      List.iter (fun f -> List.iter (try_payload req) (mutations p f)) (Wire.fields req))
    sample_reqs;
  Printf.printf "hostile payloads: %d cases over %d requests, %d of them served mutated\n" !cases
    (Hashtbl.length seen) (Hashtbl.length served);
  List.iter
    (fun (tag, name) ->
      if not (Hashtbl.mem seen tag) then Alcotest.fail ("no hostile case for " ^ name))
    Wire.declared

(* ---- a faultless session ---- *)

let test_basic_session () =
  let _, _, server, net = mk () in
  let c = mk_client server net 1L in
  Client.c_mkdir c "/dir";
  let fd = Client.c_creat c "/dir/f" in
  let data = Bytes.of_string "hello, remote world" in
  ignore (Client.c_write c fd data (Bytes.length data) : int);
  Client.c_close c fd;
  let back = Client.read_whole_file c "/dir/f" in
  Alcotest.(check string) "contents" (Bytes.to_string data) (Bytes.to_string back);
  Alcotest.(check (list string)) "readdir" [ "f" ] (Client.c_readdir c "/dir");
  let att = Client.c_stat c "/dir/f" in
  Alcotest.(check int64) "size" (Int64.of_int (Bytes.length data)) att.Invfs.Fileatt.size;
  Alcotest.(check bool) "exists" true (Client.c_exists c "/dir/f");
  Alcotest.(check bool) "no ghost" false (Client.c_exists c "/dir/g");
  let rows = Client.c_query c "retrieve (filename) where size(file) > 0" in
  Alcotest.(check bool) "query saw the file" true
    (List.exists (List.exists (fun s -> s = "f" || s = "\"f\"")) rows);
  (* a query that does not parse or evaluate is the caller's error, not
     the server's *)
  List.iter
    (fun q -> ignore (expect_error E.EINVAL (fun () -> Client.c_query c q) : string))
    [ "retrieve ("; "retrieve (nosuchfn(file))"; "retrieve (size(file, file))" ];
  Alcotest.(check int) "no retries on a clean wire" 0 (Client.retries c)

(* ---- exactly-once: duplicated committed write ---- *)

let test_duplicate_write_applied_once () =
  let _, _, server, net = mk () in
  let c = mk_client server net 2L in
  let fd = Client.c_creat c "/f" in
  let first = Bytes.of_string "aaaa" in
  ignore (Client.c_write c fd first (Bytes.length first) : int);
  (* duplicate BOTH frames of the appending write below (its data frame
     and its end-of-stream trailer), so a complete second copy of the
     committed request reaches the server.  The copies are released from
     limbo behind later traffic, i.e. after the original has executed
     and committed. *)
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 F.Net_duplicate;
  F.schedule_net plan ~after:2 F.Net_duplicate;
  let tail = Bytes.of_string "bbbb" in
  ignore (Client.c_write c fd tail (Bytes.length tail) : int);
  Client.c_close c fd;
  let back = Client.read_whole_file c "/f" in
  Alcotest.(check string) "applied exactly once" "aaaabbbb" (Bytes.to_string back);
  Alcotest.(check bool) "server saw the duplicate" true (Server.replays server >= 1);
  Alcotest.(check int) "both frames duplicated" 2 (Link.duplicated (Client.link c));
  F.disarm plan

(* ---- exactly-once: lost commit reply ---- *)

let test_lost_commit_reply_retries_replay () =
  let _, _, server, net = mk () in
  let c = mk_client server net 3L in
  let fd = Client.c_creat c "/f" in
  ignore (Client.c_write c fd (Bytes.of_string "seed") 4 : int);
  Client.c_begin c;
  ignore (Client.c_write c fd (Bytes.of_string "tail") 4 : int);
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  (* message 1 = the commit request; message 2 = its reply: drop it *)
  F.schedule_net plan ~after:2 F.Net_drop;
  Client.c_commit c;
  Alcotest.(check bool) "client retried" true (Client.retries c >= 1);
  Alcotest.(check bool) "server replayed, not re-ran" true (Server.replays server >= 1);
  let back = Client.read_whole_file c "/f" in
  Alcotest.(check string) "committed exactly once" "seedtail" (Bytes.to_string back);
  F.disarm plan

(* ---- corrupt frames look like drops and retries recover ---- *)

let test_corrupt_frame_retried () =
  let _, _, server, net = mk () in
  let c = mk_client server net 4L in
  Client.c_mkdir c "/d";
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 F.Net_corrupt;
  Alcotest.(check bool) "exists despite corruption" true (Client.c_exists c "/d");
  Alcotest.(check bool) "a timeout was charged" true (Netsim.timeouts net >= 1);
  Alcotest.(check bool) "a retry went out" true (Netsim.retries net >= 1);
  Alcotest.(check int) "one corruption" 1 (Link.corrupted (Client.link c));
  F.disarm plan

(* ---- one-way partition heals and the call survives ---- *)

let test_partition_heals () =
  let _, _, server, net = mk () in
  let c = mk_client server net 5L in
  Client.c_mkdir c "/d";
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 (F.Net_partition 2);
  Alcotest.(check (list string)) "answer after healing" [ "d" ] (Client.c_readdir c "/");
  Alcotest.(check int) "two messages swallowed" 2 (Link.partitioned (Client.link c));
  F.disarm plan

(* ---- session death mid-transaction: clean abort, no partial writes ---- *)

let test_session_death_mid_txn_clean_abort () =
  let _, _, server, net = mk () in
  let c = mk_client server net 6L in
  Client.write_file c "/f" (Bytes.of_string "stable");
  Client.c_begin c;
  let fd = Client.c_open c "/f" Fs.Rdwr in
  ignore (Client.c_write c fd (Bytes.of_string "garbage") 7 : int);
  Server.crash_now server;
  let msg =
    expect_error E.ECONNRESET (fun () ->
        Client.c_write c fd (Bytes.of_string "more") 4)
  in
  Alcotest.(check bool) "told it was aborted" true
    (String.length msg > 0
    && String.sub msg (String.length msg - String.length "transaction aborted")
         (String.length "transaction aborted")
       = "transaction aborted");
  Alcotest.(check bool) "client left the transaction" false (Client.in_txn c);
  (* the client reconnected; the committed state never saw the partial txn *)
  let back = Client.read_whole_file c "/f" in
  Alcotest.(check string) "no partial progress" "stable" (Bytes.to_string back);
  Alcotest.(check int) "one session lost" 1 (Client.sessions_lost c);
  Alcotest.(check bool) "server recovered once" true (Server.crashes server = 1)

(* ---- a clone whose reply died with the session ----

   The clone executes and commits, its reply is dropped, and the retry
   reaches a server that crashed on receipt: the session is gone.  A
   clone creates a file, so the client must not report a plain loss. *)

let test_lost_clone_is_indeterminate () =
  let _, _, server, net = mk () in
  let c = mk_client server net 12L in
  Client.write_file c "/f" (Bytes.of_string "source");
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  (* message 1 = the clone; 2 = its reply: drop it; 3 = the retry: the
     server dies as it arrives *)
  F.schedule_net plan ~after:2 F.Net_drop;
  F.schedule_net plan ~after:3 F.Net_server_crash;
  let msg = expect_error E.ECONNRESET (fun () -> Client.c_clone c ~src:"/f" ~dst:"/f.clone") in
  F.disarm plan;
  Alcotest.(check string) "reported as indeterminate" "session lost; clone outcome indeterminate" msg;
  Alcotest.(check bool) "the predicate recognises it" true (Client.outcome_indeterminate msg);
  Alcotest.(check bool) "the server crashed once" true (Server.crashes server = 1);
  Alcotest.(check string) "the clone landed" "source"
    (Bytes.to_string (Client.read_whole_file c "/f.clone"))

(* ---- a length the buffer cannot hold fails before anything is sent ---- *)

let test_bad_length_sends_nothing () =
  let _, _, server, net = mk () in
  let c = mk_client server net 13L in
  let fd = Client.c_creat c "/f" in
  let buf = Bytes.create 8 in
  let sent = Netsim.messages net in
  List.iter
    (fun (what, call) ->
      ignore (expect_error E.EINVAL (fun () -> call ()) : string);
      Alcotest.(check int) (what ^ ": nothing sent") sent (Netsim.messages net))
    [
      ("read, negative", fun () -> Client.c_read c fd buf (-1));
      ("read, past the buffer", fun () -> Client.c_read c fd buf 9);
      ("write, negative", fun () -> Client.c_write c fd buf (-1));
      ("write, past the buffer", fun () -> Client.c_write c fd buf 9);
    ];
  Alcotest.(check int) "a good length still works" 8 (Client.c_write c fd buf 8)

(* ---- poisoned frame: server crashes mid-request ---- *)

let test_server_crash_mid_request () =
  let _, _, server, net = mk () in
  let c = mk_client server net 7L in
  Client.write_file c "/f" (Bytes.of_string "stable");
  let fd = Client.c_open c "/f" Fs.Rdwr in
  (* poison the auto-commit write itself: the server machine dies at the
     moment the request arrives, before anything executes *)
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 F.Net_server_crash;
  let msg =
    expect_error E.ECONNRESET (fun () ->
        ignore (Client.c_write c fd (Bytes.of_string "junk") 4 : int))
  in
  ignore msg;
  Alcotest.(check bool) "server crashed and recovered" true (Server.crashes server = 1);
  let back = Client.read_whole_file c "/f" in
  Alcotest.(check string) "mid-request crash left no trace" "stable" (Bytes.to_string back);
  F.disarm plan

(* ---- leases: a dead client's locks do not outlive it ---- *)

let test_lease_expiry_frees_locks () =
  let clock, _, server, net = mk ~lease_s:30. () in
  let a = mk_client server net 8L in
  let b = mk_client server net 9L in
  Client.write_file a "/f" (Bytes.of_string "v1");
  (* A takes the write lock inside a transaction, then goes silent.
     (Truncation locks immediately; a small p_write alone would only
     coalesce into the session's pending buffer.) *)
  Client.c_begin a;
  let fd = Client.c_open a "/f" Fs.Rdwr in
  Client.c_ftruncate a fd 0L;
  ignore (Client.c_write a fd (Bytes.of_string "v2") 2 : int);
  (* B cannot write while A holds the lock *)
  ignore
    (expect_error E.EAGAIN (fun () -> Client.write_file b "/f" (Bytes.of_string "v3"))
      : string);
  (if Client.in_txn b then Client.c_abort b);
  (* A's lease runs out; the server reaps the session and aborts its txn *)
  Simclock.Clock.advance clock 31.;
  Client.write_file b "/f" (Bytes.of_string "v3");
  Alcotest.(check string) "B's write landed" "v3"
    (Bytes.to_string (Client.read_whole_file b "/f"));
  Alcotest.(check bool) "a lease expired" true (Server.leases_expired server >= 1);
  (* A's next use of the dead session is a clean abort *)
  ignore
    (expect_error E.ECONNRESET (fun () ->
         Client.c_write a fd (Bytes.of_string "zz") 2)
      : string);
  Alcotest.(check bool) "A out of txn" false (Client.in_txn a)

(* ---- reissuable reads survive a session reset transparently ---- *)

let test_transparent_reissue_after_crash () =
  let _, _, server, net = mk () in
  let c = mk_client server net 10L in
  Client.c_mkdir c "/d";
  Server.crash_now server;
  (* no transaction, read-only: the client reconnects and re-issues *)
  Alcotest.(check (list string)) "readdir after silent reconnect" [ "d" ]
    (Client.c_readdir c "/");
  Alcotest.(check int) "session was replaced" 1 (Client.sessions_lost c);
  Alcotest.(check bool) "reconnected" true (Client.reconnects c >= 1);
  (* a whole-file read holds no fd, so it is re-issued the same way *)
  Client.write_file c "/d/f" (Bytes.of_string "kept");
  Server.crash_now server;
  Alcotest.(check string) "read_whole_file after silent reconnect" "kept"
    (Bytes.to_string (Client.read_whole_file c "/d/f"));
  Alcotest.(check int) "second session replaced" 2 (Client.sessions_lost c)

(* ---- a remote whole-file read is one request and one snapshot ----

   A server-side writer commits new, longer contents the moment the
   read's second request goes out.  A read composed of several requests
   (stat for the size, then open/read/close) returns the new bytes cut
   to the old size; a single [Read_file] never sends a second request
   and returns one version whole. *)

let test_read_whole_file_one_snapshot () =
  let _, fs, server, net = mk () in
  let c = mk_client server net 12L in
  Client.write_file c "/f" (Bytes.of_string "aaaa");
  let sent = ref 0 in
  Link.set_fault_hook (Client.link c)
    (Some
       (fun dir ~bytes:_ ->
         if dir = Link.To_server then begin
           incr sent;
           if !sent = 2 then Fs.write_file (Fs.new_session fs) "/f" (Bytes.of_string "bbbbbbbb")
         end;
         None));
  let got = Bytes.to_string (Client.read_whole_file c "/f") in
  Link.set_fault_hook (Client.link c) None;
  Alcotest.(check bool) ("one version, not torn: " ^ got) true (got = "aaaa" || got = "bbbbbbbb");
  let m0 = Netsim.messages net in
  ignore (Client.read_whole_file c "/f" : bytes);
  Alcotest.(check int) "small file: one request, one reply" 2 (Netsim.messages net - m0);
  (* past the per-request clamp the read goes in slices until a short
     reply; an exact multiple needs one more request to see the end *)
  let requests_for size =
    Fs.write_file (Fs.new_session fs) "/big" (Bytes.make size 'z');
    let r0 = Server.requests server in
    let back = Client.read_whole_file c "/big" in
    Alcotest.(check int) "whole file back" size (Bytes.length back);
    Server.requests server - r0
  in
  Alcotest.(check int) "just over the clamp: two slices" 2
    (requests_for (Wire.max_read_len + 1));
  Alcotest.(check int) "exactly the clamp: one slice plus the empty one" 2
    (requests_for Wire.max_read_len)

(* ---- admin crash op: crash, recover, answer ---- *)

let test_crash_server_op () =
  let _, _, server, net = mk () in
  let c = mk_client server net 11L in
  Client.write_file c "/f" (Bytes.of_string "durable");
  Client.c_crash_server c;
  Alcotest.(check int) "crashed once" 1 (Server.crashes server);
  Alcotest.(check string) "durable data survived" "durable"
    (Bytes.to_string (Client.read_whole_file c "/f"))

(* ---- admission control: a full run queue sheds, shed work never ran ---- *)

let test_overload_shed_and_reoffer () =
  let _, _, server, net = mk ~run_cap:1 () in
  let r = raw_connect server net in
  let rid_a = raw_send r (Wire.Mkdir { path = "/a" }) in
  let rid_b = raw_send r (Wire.Mkdir { path = "/b" }) in
  Server.pump server;
  let reps = raw_replies r in
  (match List.assoc_opt rid_a reps with
  | Some (Wire.Ok_reply _) -> ()
  | _ -> Alcotest.fail "first mkdir should be admitted and executed");
  (match List.assoc_opt rid_b reps with
  | Some (Wire.Overloaded { retry_after_s }) ->
    Alcotest.(check bool) "retry-after hint is positive" true (retry_after_s > 0.)
  | _ -> Alcotest.fail "second mkdir should shed at the queue bound");
  Alcotest.(check int) "one shed" 1 (Server.sheds server);
  (* Overloaded is definitively-not-executed and unrecorded: re-offering
     the very same request id is admitted and executes.  (If the shed had
     secretly executed, this mkdir would answer EEXIST.) *)
  ignore (raw_send ~rid:rid_b r (Wire.Mkdir { path = "/b" }) : int64);
  Server.pump server;
  (match raw_reply r rid_b with
  | Wire.Ok_reply _ -> ()
  | Wire.Err_reply { msg; _ } -> Alcotest.fail ("re-offer should be admitted: " ^ msg)
  | _ -> Alcotest.fail "re-offer should be admitted");
  Alcotest.(check int) "re-offer executed rather than replayed" 0 (Server.replays server);
  match raw_ok r server (Wire.Readdir { path = "/"; timestamp = None }) with
  | Wire.R_names names ->
    Alcotest.(check (list string)) "exactly the admitted work landed" [ "a"; "b" ]
      (List.sort compare names)
  | _ -> Alcotest.fail "readdir failed"

(* ---- the watermark sheds retransmissions while first attempts land ---- *)

let test_watermark_sheds_retries_first () =
  let _, _, server, net = mk ~run_cap:4 ~shed_watermark:0.25 () in
  let r = raw_connect server net in
  let rid_a = raw_send r (Wire.Mkdir { path = "/a" }) in
  let rid_b = raw_send ~retry:true r (Wire.Mkdir { path = "/b" }) in
  let rid_c = raw_send r (Wire.Mkdir { path = "/c" }) in
  Server.pump server;
  let reps = raw_replies r in
  (match List.assoc_opt rid_a reps with
  | Some (Wire.Ok_reply _) -> ()
  | _ -> Alcotest.fail "first attempt below the watermark should be admitted");
  (match List.assoc_opt rid_b reps with
  | Some (Wire.Overloaded _) -> ()
  | _ -> Alcotest.fail "a retransmission past the watermark should shed");
  (match List.assoc_opt rid_c reps with
  | Some (Wire.Ok_reply _) -> ()
  | _ -> Alcotest.fail "a first attempt past the watermark should still be admitted");
  Alcotest.(check int) "the shed was counted as a retry shed" 1 (Server.retry_sheds server);
  Alcotest.(check int) "one shed total" 1 (Server.sheds server)

(* ---- expired deadlines are refused, recorded, and deduplicated ---- *)

let test_deadline_reject_recorded () =
  let clock, _, server, net = mk () in
  Simclock.Clock.advance clock 1.;
  let r = raw_connect server net in
  let rid = raw_send ~deadline_us:1L r (Wire.Mkdir { path = "/late" }) in
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Err_reply { code; msg; _ } ->
    Alcotest.(check string) "code" "ETIMEDOUT" (E.code_to_string code);
    Alcotest.(check bool) "names the expired deadline" true
      (starts_with ~prefix:"deadline expired" msg)
  | _ -> Alcotest.fail "expired work should be refused at admission");
  Alcotest.(check int) "rejection counted" 1 (Server.deadline_rejects server);
  (* the rejection is definitive: a retransmission replays the verdict
     instead of judging (or executing) the request again *)
  ignore (raw_send ~rid ~retry:true ~deadline_us:1L r (Wire.Mkdir { path = "/late" }) : int64);
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Err_reply { code; _ } ->
    Alcotest.(check string) "replayed code" "ETIMEDOUT" (E.code_to_string code)
  | _ -> Alcotest.fail "retransmission should replay the recorded rejection");
  Alcotest.(check bool) "served from the dedup window" true (Server.replays server >= 1);
  Alcotest.(check int) "not re-judged" 1 (Server.deadline_rejects server);
  match raw_ok r server (Wire.Readdir { path = "/"; timestamp = None }) with
  | Wire.R_names names -> Alcotest.(check (list string)) "nothing executed" [] names
  | _ -> Alcotest.fail "readdir failed"

(* ---- a deadline that expires in the queue is caught before execution ---- *)

let test_deadline_expires_in_queue () =
  let clock, _, server, net = mk () in
  let setup = mk_client server net 40L in
  Client.write_file setup "/big" (Bytes.make 4096 'z');
  let a = raw_connect server net in
  let b = raw_connect server net in
  ignore (raw_ok b server Wire.Begin : Wire.result);
  let fd = raw_fd b server (Wire.Open { path = "/big"; mode = 1; timestamp = None }) in
  ignore
    (raw_ok b server (Wire.Write { fd; off = 0L; data = String.make 4096 'w' })
      : Wire.result);
  (* One pump, two admissions.  Links drain newest-attached first, so
     B's commit enters the run queue ahead of A's mkdir; the commit
     forces pages to the magnetic disk (several milliseconds of
     simulated time), and the mkdir's deadline — alive at admission —
     has passed by the time the queue reaches it.  The frames go out
     uncharged so the deadline races only the commit's disk time, not
     the wire. *)
  let deadline_us = Int64.of_float ((Simclock.Clock.now clock +. 0.002) *. 1e6) in
  ignore (raw_send ~charge:false b Wire.Commit : int64);
  let rid_a = raw_send ~charge:false ~deadline_us a (Wire.Mkdir { path = "/d" }) in
  Server.pump server;
  (match raw_reply a rid_a with
  | Wire.Err_reply { code; msg; _ } ->
    Alcotest.(check string) "code" "ETIMEDOUT" (E.code_to_string code);
    Alcotest.(check bool) "caught at the pre-execution check" true
      (starts_with ~prefix:"deadline expired" msg
      && String.sub msg (String.length msg - String.length "execution")
           (String.length "execution")
         = "execution")
  | _ -> Alcotest.fail "queued work whose deadline passed should be refused");
  Alcotest.(check int) "rejection counted" 1 (Server.deadline_rejects server);
  match raw_ok a server (Wire.Readdir { path = "/"; timestamp = None }) with
  | Wire.R_names names ->
    Alcotest.(check (list string)) "the mkdir never ran" [ "big" ]
      (List.sort compare names)
  | _ -> Alcotest.fail "readdir failed"

(* ---- version skew: unknown opcodes answer Unsupported, recorded ---- *)

let test_unknown_opcode_unsupported () =
  let _, _, server, net = mk () in
  let r = raw_connect server net in
  (* a frame from a future protocol revision: take a valid single-frame
     request, rewrite its opcode byte to 99, recompute the CRC *)
  r.r_rid <- Int64.add r.r_rid 1L;
  let rid = r.r_rid in
  let frame = Bytes.of_string (List.hd (Wire.encode_request ~sid:r.r_sid ~rid Wire.Ping)) in
  Bytes.set frame Wire.header_bytes (Char.chr 99);
  for i = 32 to 35 do
    Bytes.set frame i '\000'
  done;
  let crc = Pagestore.Page.crc32 frame ~off:0 ~len:(Bytes.length frame) in
  Bytes.set_int32_be frame 32 (Int32.of_int crc);
  let frame = Bytes.to_string frame in
  (* the patched frame passes the CRC and is cleanly framed — distinguishable
     from wire damage — but carries an opcode this server does not have *)
  (match Wire.decode_header frame with
  | None -> Alcotest.fail "patched frame should pass the CRC"
  | Some h -> (
    match Wire.decode_request_any h.Wire.payload with
    | `Unknown 99 -> ()
    | `Req _ -> Alcotest.fail "opcode 99 should not decode as a known request"
    | _ -> Alcotest.fail "opcode 99 should decode as `Unknown, not `Malformed"));
  Link.send r.r_link Link.To_server frame;
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Unsupported { opcode } -> Alcotest.(check int) "opcode echoed" 99 opcode
  | _ -> Alcotest.fail "expected a structured Unsupported answer");
  Alcotest.(check int) "counted once" 1 (Server.unsupported server);
  (* the verdict is definitive and recorded: a retransmission replays it *)
  Link.send r.r_link Link.To_server frame;
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Unsupported { opcode = 99 } -> ()
  | _ -> Alcotest.fail "retransmission should replay Unsupported");
  Alcotest.(check bool) "served from the dedup window" true (Server.replays server >= 1);
  Alcotest.(check int) "not double-counted" 1 (Server.unsupported server);
  (* version skew is per-request, not fatal: the session still works *)
  match raw_ok r server (Wire.Readdir { path = "/"; timestamp = None }) with
  | Wire.R_names [] -> ()
  | _ -> Alcotest.fail "session should survive an unsupported opcode"

(* ---- parking: a lock-wait that never resolves times out, recorded ---- *)

let test_park_timeout_expires () =
  let clock, _, server, net = mk ~lock_wait_s:2. () in
  let setup = mk_client server net 20L in
  Client.write_file setup "/f" (Bytes.of_string "data");
  let a = raw_connect server net in
  ignore (raw_ok a server Wire.Begin : Wire.result);
  let fd_a = raw_fd a server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok a server (Wire.Ftruncate { fd = fd_a; size = 0L }) : Wire.result);
  (* B's auto-commit truncate hits A's exclusive lock and parks *)
  let b = raw_connect server net in
  let fd_b = raw_fd b server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  let rid_b = raw_send b (Wire.Ftruncate { fd = fd_b; size = 1L }) in
  Server.pump server;
  Alcotest.(check int) "parked on the held lock" 1 (Server.parked_now server);
  Alcotest.(check int) "no reply while parked" 0 (List.length (raw_replies b));
  (* nobody releases the lock; the lock-wait timer expires the request *)
  Simclock.Clock.advance clock 3.;
  Server.pump server;
  (match raw_reply b rid_b with
  | Wire.Err_reply { code; msg; _ } ->
    Alcotest.(check string) "code" "ETIMEDOUT" (E.code_to_string code);
    Alcotest.(check bool) "names the lock wait" true
      (starts_with ~prefix:"lock wait timed out" msg)
  | _ -> Alcotest.fail "the parked request should expire");
  Alcotest.(check int) "timeout counted" 1 (Server.park_timeouts server);
  Alcotest.(check int) "nothing left parked" 0 (Server.parked_now server);
  (* recorded: a retransmission replays the timeout verdict *)
  ignore (raw_send ~rid:rid_b ~retry:true b (Wire.Ftruncate { fd = fd_b; size = 1L }) : int64);
  Server.pump server;
  (match raw_reply b rid_b with
  | Wire.Err_reply { code; _ } ->
    Alcotest.(check string) "replayed code" "ETIMEDOUT" (E.code_to_string code)
  | _ -> Alcotest.fail "retransmission should replay the timeout");
  Alcotest.(check bool) "served from the dedup window" true (Server.replays server >= 1)

(* ---- the client's retry budget stops it hammering a saturated server ---- *)

let test_retry_budget_exhaustion () =
  let _, _, server, net = mk ~run_cap:1 ~lock_wait_s:1000. () in
  let setup = mk_client server net 21L in
  Client.write_file setup "/f" (Bytes.of_string "data");
  (* pin the backlog: A holds the lock in a transaction it never ends,
     B's truncate parks behind it, so queue depth sits at run_cap *)
  let a = raw_connect server net in
  ignore (raw_ok a server Wire.Begin : Wire.result);
  let fd_a = raw_fd a server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok a server (Wire.Ftruncate { fd = fd_a; size = 0L }) : Wire.result);
  let b = raw_connect server net in
  let fd_b = raw_fd b server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  let rid_b = raw_send b (Wire.Ftruncate { fd = fd_b; size = 1L }) in
  Server.pump server;
  Alcotest.(check int) "backlog pinned at one parked request" 1 (Server.parked_now server);
  (* a fresh client with a one-token budget: the first Overloaded answer
     spends the token on a re-offer, the second finds the bucket dry *)
  let config =
    { Client.default_config with Client.retry_budget = 1; retry_refill_per_s = 0. }
  in
  let c = mk_client ~config server net 22L in
  let msg = expect_error E.EBUSY (fun () -> Client.c_mkdir c "/x") in
  Alcotest.(check string) "names the dry budget"
    "server overloaded and retry budget exhausted" msg;
  Alcotest.(check int) "two overload answers" 2 (Client.overloaded c);
  Alcotest.(check int) "one budget denial" 1 (Client.budget_denials c);
  (* relief traffic is exempt from admission control: A's abort lands
     through the full queue, releases the lock, and the parked request
     resumes in the same pump *)
  ignore (raw_ok a server Wire.Abort : Wire.result);
  (match raw_reply b rid_b with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "the parked truncate should resume after the release");
  Alcotest.(check bool) "resume counted" true (Server.park_resumes server >= 1);
  Alcotest.(check int) "backlog drained" 0 (Server.parked_now server);
  (* with the backlog gone the same client is admitted, dry budget and all *)
  Client.c_mkdir c "/x";
  Alcotest.(check bool) "the shed mkdir finally landed" true (Client.c_exists c "/x")

(* ---- an expired client deadline fails fast, off the wire ---- *)

let test_client_deadline_failfast () =
  let clock, _, server, net = mk () in
  let c = mk_client server net 23L in
  Client.c_mkdir c "/d";
  let wire_requests = Server.requests server in
  Client.set_deadline c (Some (Simclock.Clock.now clock -. 0.1));
  let msg = expect_error E.ETIMEDOUT (fun () -> Client.c_mkdir c "/e") in
  Alcotest.(check bool) "refused before sending" true
    (starts_with ~prefix:"deadline expired before sending" msg);
  Alcotest.(check int) "fail-fast counted" 1 (Client.deadline_failfasts c);
  Alcotest.(check int) "nothing reached the wire" wire_requests (Server.requests server);
  (* clearing the deadline restores plain behaviour *)
  Client.set_deadline c None;
  Client.c_mkdir c "/e";
  Alcotest.(check (list string)) "only the admitted mkdirs exist" [ "d"; "e" ]
    (List.sort compare (Client.c_readdir c "/"))

(* ---- a parked deadlock victim is aborted cleanly across three parties ---- *)

let test_parked_deadlock_victim () =
  let _, _, server, net = mk ~lock_wait_s:1000. () in
  let setup = mk_client server net 30L in
  Client.write_file setup "/fx" (Bytes.of_string "xx");
  Client.write_file setup "/fa" (Bytes.of_string "aa");
  Client.write_file setup "/f2" (Bytes.of_string "22");
  (* connect order fixes pump drain order (newest-attached first): the
     final pump must admit D's commit before E's truncate *)
  let x = raw_connect server net in
  let a = raw_connect server net in
  let e = raw_connect server net in
  let d = raw_connect server net in
  (* X holds /fx exclusively; A holds /fa *)
  ignore (raw_ok x server Wire.Begin : Wire.result);
  let xfx = raw_fd x server (Wire.Open { path = "/fx"; mode = 1; timestamp = None }) in
  ignore (raw_ok x server (Wire.Ftruncate { fd = xfx; size = 0L }) : Wire.result);
  ignore (raw_ok a server Wire.Begin : Wire.result);
  let afa = raw_fd a server (Wire.Open { path = "/fa"; mode = 1; timestamp = None }) in
  ignore (raw_ok a server (Wire.Ftruncate { fd = afa; size = 0L }) : Wire.result);
  (* X → A: X's in-transaction read of /fa parks behind A's lock *)
  let xfa = raw_fd x server (Wire.Open { path = "/fa"; mode = 0; timestamp = None }) in
  let rid_x = raw_send x (Wire.Read { fd = xfa; off = 0L; len = 4 }) in
  Server.pump server;
  Alcotest.(check int) "X parked" 1 (Server.parked_now server);
  (* E → X: E's read of /fx parks behind X *)
  ignore (raw_ok e server Wire.Begin : Wire.result);
  let efx = raw_fd e server (Wire.Open { path = "/fx"; mode = 0; timestamp = None }) in
  let ef2 = raw_fd e server (Wire.Open { path = "/f2"; mode = 1; timestamp = None }) in
  let rid_e = raw_send e (Wire.Read { fd = efx; off = 0L; len = 4 }) in
  Server.pump server;
  Alcotest.(check int) "X and E parked" 2 (Server.parked_now server);
  (* D holds /f2 *)
  ignore (raw_ok d server Wire.Begin : Wire.result);
  let df2 = raw_fd d server (Wire.Open { path = "/f2"; mode = 1; timestamp = None }) in
  ignore (raw_ok d server (Wire.Ftruncate { fd = df2; size = 0L }) : Wire.result);
  (* A → D: A's read of /f2 parks behind D *)
  let af2 = raw_fd a server (Wire.Open { path = "/f2"; mode = 0; timestamp = None }) in
  let rid_a = raw_send a (Wire.Read { fd = af2; off = 0L; len = 4 }) in
  Server.pump server;
  Alcotest.(check int) "X, E and A parked" 3 (Server.parked_now server);
  (* One pump: D commits (releasing /f2, waking the parked requests) and
     E's in-transaction truncate takes the lock D dropped.  A's parked
     read then re-acquires into the cycle A→E→X→A and is the victim:
     its transaction is aborted server-side, the others survive — and
     A's released lock lets X's parked read complete in the same pump. *)
  ignore (raw_send d Wire.Commit : int64);
  ignore (raw_send e (Wire.Ftruncate { fd = ef2; size = 1L }) : int64);
  Server.pump server;
  (match raw_reply a rid_a with
  | Wire.Err_reply { code; txn_open; _ } ->
    Alcotest.(check string) "victim code" "EDEADLK" (E.code_to_string code);
    Alcotest.(check bool) "victim transaction aborted server-side" false txn_open
  | _ -> Alcotest.fail "A should be the deadlock victim");
  (match raw_reply x rid_x with
  | Wire.Ok_reply { result = Wire.R_data _; txn_open } ->
    Alcotest.(check bool) "X's transaction survives" true txn_open
  | _ -> Alcotest.fail "X's parked read should resume once the victim aborts");
  Alcotest.(check int) "one deadlock abort" 1 (Server.deadlock_aborts server);
  Alcotest.(check int) "each of X, E, A parked once" 3 (Server.parks server);
  Alcotest.(check int) "no park timeouts" 0 (Server.park_timeouts server);
  Alcotest.(check int) "E still parked behind X" 1 (Server.parked_now server);
  (* X commits, releasing /fx: E's read completes and the system drains *)
  ignore (raw_ok x server Wire.Commit : Wire.result);
  (match raw_reply e rid_e with
  | Wire.Ok_reply { result = Wire.R_data _; _ } -> ()
  | _ -> Alcotest.fail "E's parked read should resume after X commits");
  Alcotest.(check int) "nothing left parked" 0 (Server.parked_now server);
  Alcotest.(check bool) "resumes counted" true (Server.park_resumes server >= 3)

(* ---- group commit: the server's age bound, and commit acknowledgement ---- *)

let group_flushes () = Obs.Metrics.hist_count (Obs.Metrics.histogram "txn.commit.group_size")

let test_group_commit_age_force () =
  let clock, fs, server, net = mk () in
  let log = Relstore.Db.status_log (Fs.db fs) in
  let r = raw_connect server net in
  Relstore.Db.force_group (Fs.db fs);
  ignore (raw_ok r server (Wire.Mkdir { path = "/lone" }) : Wire.result);
  Alcotest.(check int) "the auto-commit joined the batch" 1
    (Relstore.Status_log.pending_force log);
  let f0 = group_flushes () in
  Simclock.Clock.advance clock (Relstore.Status_log.max_age_s /. 2.);
  Server.pump server;
  Alcotest.(check int) "younger than the age bound: still pending" 1
    (Relstore.Status_log.pending_force log);
  Simclock.Clock.advance clock Relstore.Status_log.max_age_s;
  Server.pump server;
  Alcotest.(check int) "the pump forced it" 0 (Relstore.Status_log.pending_force log);
  Alcotest.(check int) "one force for the lone commit" (f0 + 1) (group_flushes ())

let test_commit_acked_before_force () =
  let _, fs, server, net = mk () in
  let log = Relstore.Db.status_log (Fs.db fs) in
  Relstore.Db.force_group (Fs.db fs);
  let a = raw_connect server net in
  ignore (raw_ok a server Wire.Begin : Wire.result);
  let fd =
    raw_fd a server
      (Wire.Creat { path = "/acked"; device = None; ftype = None; compressed = false })
  in
  ignore (raw_ok a server (Wire.Write { fd; off = 0L; data = "logged" }) : Wire.result);
  ignore (raw_ok a server (Wire.Close { fd }) : Wire.result);
  let f0 = group_flushes () in
  (* the acknowledgement goes out as soon as the status entry is logged:
     the batch it joined has not forced *)
  ignore (raw_ok a server Wire.Commit : Wire.result);
  Alcotest.(check int) "commit pending in the batch" 1
    (Relstore.Status_log.pending_force log);
  Alcotest.(check int) "no force before the reply" f0 (group_flushes ());
  Server.crash_now server;
  let b = raw_connect server net in
  let fd = raw_fd b server (Wire.Open { path = "/acked"; mode = 0; timestamp = None }) in
  (match raw_ok b server (Wire.Read { fd; off = 0L; len = 64 }) with
  | Wire.R_data d -> Alcotest.(check string) "visible over the wire" "logged" d
  | _ -> Alcotest.fail "read should return data");
  Alcotest.(check string) "visible through the library" "logged"
    (Bytes.to_string (Fs.read_whole_file (Fs.new_session fs) "/acked"))

(* ---- same inputs, same answers: the overload machinery is deterministic ---- *)

let overload_scenario () =
  (* the retry-after hint reads the process-wide service-time histogram;
     start each run from an empty one so earlier tests (and the first
     run) cannot shift it *)
  Obs.Metrics.hist_reset (Obs.Metrics.histogram "net.server.service_us");
  let clock, _, server, net = mk ~run_cap:1 () in
  Simclock.Clock.advance clock 1.;
  let r = raw_connect server net in
  let buf = Buffer.create 256 in
  let note reps =
    List.iter
      (fun (rid, rep) ->
        Buffer.add_string buf
          (Printf.sprintf "%Ld=%s;" rid
             (Digest.to_hex
                (Digest.string (String.concat "" (Wire.encode_reply ~sid:9L ~rid rep))))))
      reps
  in
  let rid_a = raw_send r (Wire.Mkdir { path = "/a" }) in
  ignore (raw_send ~retry:true r (Wire.Mkdir { path = "/b" }) : int64);
  ignore (raw_send ~deadline_us:1L r (Wire.Mkdir { path = "/c" }) : int64);
  Server.pump server;
  note (raw_replies r);
  ignore rid_a;
  ignore (raw_send r (Wire.Readdir { path = "/"; timestamp = None }) : int64);
  Server.pump server;
  note (raw_replies r);
  Buffer.add_string buf
    (Printf.sprintf "sheds=%d retry=%d dead=%d replays=%d reqs=%d" (Server.sheds server)
       (Server.retry_sheds server) (Server.deadline_rejects server)
       (Server.replays server) (Server.requests server));
  Buffer.contents buf

let test_overload_determinism () =
  Alcotest.(check string) "identical replies and counters" (overload_scenario ())
    (overload_scenario ())

(* ---- shed clients desynchronize: jittered retry-after ----

   The server hands every shed client the same retry-after hint; if they
   all slept exactly that long they would re-arrive as the same
   thundering herd.  The client jitters the hint within +/-25%, so two
   clients with different rng streams sleep different amounts — and the
   jitter never leaves the band, so backoff stays within the server's
   intent. *)

let test_retry_after_jitter_desyncs () =
  let a = Simclock.Rng.create 1L and b = Simclock.Rng.create 2L in
  let hint = 0.04 in
  let distinct = ref false in
  for _ = 1 to 64 do
    let ja = Client.jitter_retry_after a hint in
    let jb = Client.jitter_retry_after b hint in
    Alcotest.(check bool) "within [0.75x, 1.25x)" true
      (ja >= 0.75 *. hint && ja < 1.25 *. hint && jb >= 0.75 *. hint
     && jb < 1.25 *. hint);
    if ja <> jb then distinct := true
  done;
  Alcotest.(check bool) "two clients desynchronize" true !distinct


(* ---- piggybacking: closes and begins ride the next request ---- *)

let ends_with ~suffix s =
  let n = String.length suffix and l = String.length s in
  l >= n && String.sub s (l - n) n = suffix

let requests_during server f =
  let r0 = Server.requests server in
  f ();
  Server.requests server - r0

let test_piggyback_round_trips () =
  let _, _, server, net = mk () in
  let c = mk_client server net 70L in
  Client.write_file c "/f" (Bytes.of_string "0123456789");
  let write_op () =
    let fd = Client.c_open c "/f" Fs.Rdwr in
    ignore (Client.c_lseek c fd 4L Fs.Seek_set : int64);
    ignore (Client.c_write c fd (Bytes.of_string "ab") 2 : int);
    Client.c_close c fd
  in
  Alcotest.(check int) "write op: open and write" 2 (requests_during server write_op);
  Alcotest.(check int) "again, carrying the last close" 2 (requests_during server write_op);
  Alcotest.(check int) "creat + close" 1
    (requests_during server (fun () -> Client.c_close c (Client.c_creat c "/g")));
  Alcotest.(check int) "begin + commit alone" 0
    (requests_during server (fun () ->
         Client.c_begin c;
         Client.c_commit c));
  Alcotest.(check int) "begin + abort alone" 0
    (requests_during server (fun () ->
         Client.c_begin c;
         Client.c_abort c));
  Alcotest.(check int) "begin rides the transaction's first request" 2
    (requests_during server (fun () ->
         Client.c_begin c;
         ignore (Client.c_stat c "/f" : Invfs.Fileatt.att);
         Client.c_commit c));
  let p0 = Client.piggybacked c in
  Alcotest.(check string) "writes landed" "0123ab6789"
    (Bytes.to_string (Client.read_whole_file c "/f"));
  Alcotest.(check int) "the read carried nothing" p0 (Client.piggybacked c);
  Client.c_close c (Client.c_creat c "/h");
  ignore (Client.c_exists c "/h" : bool);
  Alcotest.(check int) "the exists carried the close" (p0 + 1) (Client.piggybacked c);
  Alcotest.(check (option int)) "counter in the registry" (Some (Client.piggybacked c))
    (Obs.Metrics.read "net.client.piggybacked")

let test_deferred_close_runs_first () =
  let _, _, server, net = mk () in
  let c = mk_client server net 71L in
  let fd = Client.c_creat c "/a" in
  Client.c_close c fd;
  Alcotest.(check bool) "close deferred: still open on the server" true
    (Server.fd_open server (Client.sid c) fd);
  ignore (expect_error E.EBADF (fun () -> Client.c_tell c fd) : string);
  Alcotest.(check bool) "next request" true (Client.c_exists c "/a");
  Alcotest.(check bool) "closed by the next request" false
    (Server.fd_open server (Client.sid c) fd);
  (* within one dispatch the carried closes run before the request *)
  let r = raw_connect server net in
  let fd = raw_fd r server (Wire.Open { path = "/a"; mode = 0; timestamp = None }) in
  let rid =
    raw_send r
      (Wire.Carry { closes = [ fd ]; begin_txn = false; req = Wire.Read { fd; off = 0L; len = 1 } })
  in
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Err_reply { code = E.EBADF; _ } -> ()
  | _ -> Alcotest.fail "the carried close should run before the read");
  (* closing it again is a no-op: fds are never reused in a session *)
  match
    raw_ok r server
      (Wire.Carry
         { closes = [ fd ]; begin_txn = false; req = Wire.Readdir { path = "/"; timestamp = None } })
  with
  | Wire.R_names [ "a" ] -> ()
  | _ -> Alcotest.fail "a re-carried close should be ignored"

let test_dirty_close_stays_synchronous () =
  let _, _, server, net = mk () in
  let c = mk_client server net 72L in
  Client.write_file c "/f" (Bytes.of_string "data");
  Client.write_file c "/g" (Bytes.of_string "gggg");
  Client.c_begin c;
  let clean = Client.c_open c "/g" Fs.Rdonly in
  Alcotest.(check int) "a clean fd's close is deferred in a transaction" 0
    (requests_during server (fun () -> Client.c_close c clean));
  let fd = Client.c_open c "/f" Fs.Rdwr in
  (* a small write inside a transaction only fills the server's buffer *)
  ignore (Client.c_write c fd (Bytes.of_string "more") 4 : int);
  let x = raw_connect server net in
  ignore (raw_ok x server Wire.Begin : Wire.result);
  let xfd = raw_fd x server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok x server (Wire.Ftruncate { fd = xfd; size = 0L }) : Wire.result);
  (* the dirty close flushes under X's lock: its own request, its EAGAIN *)
  let n =
    requests_during server (fun () ->
        ignore (expect_error E.EAGAIN (fun () -> Client.c_close c fd) : string))
  in
  Alcotest.(check int) "the dirty close is its own request" 1 n;
  Alcotest.(check bool) "still in the transaction" true
    (Client.in_txn c && Server.txn_open server (Client.sid c));
  ignore (raw_ok x server Wire.Abort : Wire.result);
  Client.c_close c fd;
  Client.c_commit c;
  Alcotest.(check string) "the flushed write committed" "more"
    (Bytes.to_string (Client.read_whole_file c "/f"))

let check_txn what server c ~client ~server_txn =
  Alcotest.(check bool) (what ^ ": client in_txn") client (Client.in_txn c);
  Alcotest.(check bool) (what ^ ": server txn_open") server_txn
    (Server.txn_open server (Client.sid c))

let test_pending_begin_tracks_server () =
  let clock, _, server, net = mk () in
  let c = mk_client server net 73L in
  Client.write_file c "/f" (Bytes.of_string "data");
  (* Ok *)
  Client.c_begin c;
  check_txn "pending" server c ~client:true ~server_txn:false;
  ignore (Client.c_stat c "/f" : Invfs.Fileatt.att);
  check_txn "after Ok" server c ~client:true ~server_txn:true;
  Client.c_abort c;
  check_txn "after abort" server c ~client:false ~server_txn:false;
  (* Err: the carrier ran, the transaction stays open *)
  Client.c_begin c;
  ignore (expect_error E.ENOENT (fun () -> Client.c_stat c "/missing") : string);
  check_txn "after Err" server c ~client:true ~server_txn:true;
  Client.c_abort c;
  (* deadline-rejected: nothing ran, the begin stays pending *)
  Client.c_begin c;
  Client.set_deadline c (Some (Simclock.Clock.now clock +. 0.001));
  let msg = expect_error E.ETIMEDOUT (fun () -> Client.c_mkdir c "/late") in
  Alcotest.(check bool) "refused by the server" true
    (starts_with ~prefix:"deadline expired" msg
    && not (starts_with ~prefix:"deadline expired before sending" msg));
  check_txn "after deadline refusal" server c ~client:true ~server_txn:false;
  Client.set_deadline c None;
  ignore (Client.c_exists c "/f" : bool);
  check_txn "the next request began it" server c ~client:true ~server_txn:true;
  Client.c_abort c;
  Alcotest.(check bool) "the refused mkdir never ran" false (Client.c_exists c "/late")

let test_pending_begin_overloaded () =
  let _, _, server, net = mk ~run_cap:1 ~lock_wait_s:1000. () in
  let setup = mk_client server net 74L in
  Client.write_file setup "/f" (Bytes.of_string "data");
  let a = raw_connect server net in
  ignore (raw_ok a server Wire.Begin : Wire.result);
  let fd_a = raw_fd a server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok a server (Wire.Ftruncate { fd = fd_a; size = 0L }) : Wire.result);
  let b = raw_connect server net in
  let fd_b = raw_fd b server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_send b (Wire.Ftruncate { fd = fd_b; size = 1L }) : int64);
  Server.pump server;
  let config = { Client.default_config with Client.retry_budget = 0; retry_refill_per_s = 0. } in
  let c = mk_client ~config server net 75L in
  Client.c_begin c;
  ignore (expect_error E.EBUSY (fun () -> Client.c_mkdir c "/x") : string);
  check_txn "after Overloaded" server c ~client:true ~server_txn:false;
  ignore (raw_ok a server Wire.Abort : Wire.result);
  Client.c_mkdir c "/x";
  check_txn "the re-offer began it" server c ~client:true ~server_txn:true;
  Client.c_abort c;
  Alcotest.(check bool) "aborted with the transaction" false (Client.c_exists c "/x")

(* A carrier whose begin ran but whose request was then shed (no park
   slot left) must not leave the transaction open on the server. *)
let test_shed_carrier_unbegins () =
  let _, _, server, net = mk ~park_cap:1 ~lock_wait_s:1000. () in
  let setup = mk_client server net 80L in
  Client.write_file setup "/f" (Bytes.of_string "data");
  let x = raw_connect server net in
  ignore (raw_ok x server Wire.Begin : Wire.result);
  let xfd = raw_fd x server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok x server (Wire.Ftruncate { fd = xfd; size = 0L }) : Wire.result);
  let y = raw_connect server net in
  let yfd = raw_fd y server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_send y (Wire.Ftruncate { fd = yfd; size = 1L }) : int64);
  Server.pump server;
  Alcotest.(check int) "the only park slot is taken" 1 (Server.parked_now server);
  let config = { Client.default_config with Client.retry_budget = 0; retry_refill_per_s = 0. } in
  let c = mk_client ~config server net 81L in
  Client.c_begin c;
  ignore (expect_error E.EBUSY (fun () -> Client.read_whole_file c "/f") : string);
  check_txn "after the shed" server c ~client:true ~server_txn:false;
  ignore (raw_ok x server Wire.Abort : Wire.result);
  ignore (Client.c_exists c "/f" : bool);
  check_txn "the next request began it" server c ~client:true ~server_txn:true;
  Client.c_abort c

let test_pending_begin_park_timeout () =
  let _, _, server, net = mk ~lock_wait_s:2. () in
  let c = mk_client server net 76L in
  Client.write_file c "/f" (Bytes.of_string "data");
  let x = raw_connect server net in
  ignore (raw_ok x server Wire.Begin : Wire.result);
  let xfd = raw_fd x server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok x server (Wire.Ftruncate { fd = xfd; size = 0L }) : Wire.result);
  Client.c_begin c;
  let msg = expect_error E.ETIMEDOUT (fun () -> Client.read_whole_file c "/f") in
  Alcotest.(check bool) "the carrier parked and expired" true
    (starts_with ~prefix:"lock wait timed out" msg);
  check_txn "after park timeout" server c ~client:true ~server_txn:true;
  Client.c_abort c;
  check_txn "after abort" server c ~client:false ~server_txn:false

let test_carrier_deadlock_victim () =
  let _, _, server, net = mk ~lock_wait_s:1000. () in
  let c = mk_client server net 77L in
  List.iter
    (fun p -> Client.write_file c p (Bytes.of_string "xx"))
    [ "/fa"; "/fx"; "/fy" ];
  (* C holds /fa; X holds /fx and parks reading /fa *)
  Client.c_begin c;
  let fa = Client.c_open c "/fa" Fs.Rdwr in
  Client.c_ftruncate c fa 0L;
  let x = raw_connect server net in
  ignore (raw_ok x server Wire.Begin : Wire.result);
  let xfx = raw_fd x server (Wire.Open { path = "/fx"; mode = 1; timestamp = None }) in
  ignore (raw_ok x server (Wire.Ftruncate { fd = xfx; size = 0L }) : Wire.result);
  let xfa = raw_fd x server (Wire.Open { path = "/fa"; mode = 0; timestamp = None }) in
  let rid_x = raw_send x (Wire.Read { fd = xfa; off = 0L; len = 2 }) in
  Server.pump server;
  Alcotest.(check int) "X parked behind C" 1 (Server.parked_now server);
  (* C's read of /fx, carrying a close, closes the cycle: C is the victim *)
  let fx = Client.c_open c "/fx" Fs.Rdonly in
  Client.c_close c (Client.c_open c "/fy" Fs.Rdonly);
  let p0 = Client.piggybacked c in
  ignore (expect_error E.EDEADLK (fun () -> Client.c_read c fx (Bytes.create 2) 2) : string);
  Alcotest.(check int) "the deadlocked carrier's close is re-carried" p0 (Client.piggybacked c);
  check_txn "after EDEADLK" server c ~client:false ~server_txn:false;
  (match raw_reply x rid_x with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "X's parked read should resume once the victim aborts");
  ignore (raw_ok x server Wire.Commit : Wire.result)

(* Trap: a session lost while a begin is pending never lets the carried
   request run outside the transaction.  When the server answers that it
   no longer knows the session, the transaction was only the begin, so
   the client begins again on the fresh session with the request inside
   it.  When the reply is lost instead, the client cannot know what ran
   and reports the transaction aborted. *)
let test_pending_begin_session_loss () =
  let _, _, server, net = mk () in
  let c = mk_client server net 78L in
  Client.write_file c "/f" (Bytes.of_string "stable");
  (* the server crashed while idle: Unknown_session, begin again *)
  Client.c_begin c;
  Server.crash_now server;
  Client.c_mkdir c "/m";
  check_txn "re-begun after a crash" server c ~client:true ~server_txn:true;
  ignore (Client.c_stat c "/f" : Invfs.Fileatt.att);
  Client.c_abort c;
  Alcotest.(check bool) "the mkdir ran inside the transaction" false (Client.c_exists c "/m");
  (* the server died as the carrier arrived, answered after retries *)
  Client.c_begin c;
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 F.Net_server_crash;
  Client.c_mkdir c "/m";
  F.disarm plan;
  check_txn "re-begun after a crash mid-request" server c ~client:true ~server_txn:true;
  Client.c_abort c;
  Alcotest.(check bool) "still only inside the transaction" false (Client.c_exists c "/m");
  (* every attempt lost: nothing is known to have run *)
  Client.c_begin c;
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 (F.Net_partition 1000);
  let msg = expect_error E.ECONNRESET (fun () -> Client.c_mkdir c "/m") in
  F.disarm plan;
  Alcotest.(check bool) "lost replies: told the transaction aborted" true
    (ends_with ~suffix:"transaction aborted" msg);
  Alcotest.(check bool) "lost replies: out of the transaction" false (Client.in_txn c);
  (* a transaction that already ran work on the server is not replayed *)
  Client.c_begin c;
  ignore (Client.c_stat c "/f" : Invfs.Fileatt.att);
  Server.crash_now server;
  let msg = expect_error E.ECONNRESET (fun () -> Client.c_mkdir c "/m") in
  Alcotest.(check bool) "open transaction: told it aborted" true
    (ends_with ~suffix:"transaction aborted" msg);
  check_txn "open transaction" server c ~client:false ~server_txn:false;
  Alcotest.(check bool) "the mkdir never ran outside a transaction" false
    (Client.c_exists c "/m")

(* Trap: fd numbers restart at 3 in every session, so a close deferred
   on a lost session must never ride a request on the next one. *)
let test_reissue_drops_old_closes () =
  let _, _, server, net = mk () in
  let c = mk_client server net 79L in
  let fd = Client.c_creat c "/a" in
  ignore (Client.c_write c fd (Bytes.of_string "kept") 4 : int);
  Client.c_close c fd;
  let p0 = Client.piggybacked c in
  Server.crash_now server;
  let fd' = Client.c_open c "/a" Fs.Rdonly in
  Alcotest.(check int) "the fresh session reuses the number" fd fd';
  Alcotest.(check int) "the re-issued open carried nothing" p0 (Client.piggybacked c);
  ignore (Client.c_stat c "/a" : Invfs.Fileatt.att);
  Alcotest.(check bool) "the new fd is still open" true (Server.fd_open server (Client.sid c) fd');
  let buf = Bytes.create 4 in
  Alcotest.(check int) "and readable" 4 (Client.c_read c fd' buf 4);
  Alcotest.(check string) "contents" "kept" (Bytes.to_string buf)

(* ---- snapshots, clones and multi-file transactions over the wire ---- *)

let test_remote_snapshot_and_clone () =
  let _, _, server, net = mk () in
  let c = mk_client server net 61L in
  Client.write_file c "/f" (Bytes.of_string "epoch one");
  let h = Client.c_snapshot c in
  Client.c_clone c ~src:"/f" ~dst:"/f.clone";
  Client.write_file c "/f" (Bytes.of_string "epoch two");
  Alcotest.(check string) "clone froze the source's committed state" "epoch one"
    (Bytes.to_string (Client.read_whole_file c "/f.clone"));
  Alcotest.(check string) "snapshot horizon reads the old bytes" "epoch one"
    (Bytes.to_string (Client.read_whole_file c ~timestamp:h "/f"));
  Alcotest.(check string) "the present moved on" "epoch two"
    (Bytes.to_string (Client.read_whole_file c "/f"))

let test_write_many_atomic () =
  let _, _, server, net = mk () in
  let c = mk_client server net 62L in
  Client.write_many c
    [ ("/a", Bytes.of_string "one"); ("/b", Bytes.of_string "two") ];
  Alcotest.(check bool) "not left in a transaction" false (Client.in_txn c);
  Alcotest.(check string) "first landed" "one"
    (Bytes.to_string (Client.read_whole_file c "/a"));
  Alcotest.(check string) "second landed" "two"
    (Bytes.to_string (Client.read_whole_file c "/b"));
  (* an exception mid-group aborts the whole transaction: no partial state *)
  (match
     Client.with_txn c (fun c ->
         Client.write_file c "/c" (Bytes.of_string "doomed");
         failwith "boom")
   with
  | () -> Alcotest.fail "expected the injected failure"
  | exception Failure _ -> ());
  Alcotest.(check bool) "transaction closed after the failure" false (Client.in_txn c);
  Alcotest.(check bool) "nothing from the aborted group" false (Client.c_exists c "/c")

let test_remote_vacuum_step_rpc () =
  let clock, fs, server, net = mk () in
  let c = mk_client server net 63L in
  Client.write_file c "/f" (Bytes.of_string "v1");
  Client.write_file c "/f" (Bytes.of_string "v2");
  Simclock.Clock.advance clock 1.;
  (* explicit increments over the wire eventually wrap the heaps *)
  let scanned = ref 0 in
  for _ = 1 to 16 do
    scanned := !scanned + Client.c_vacuum_step c ()
  done;
  Alcotest.(check bool) "the RPC increments scanned versions" true (!scanned > 0);
  Alcotest.(check string) "current contents untouched" "v2"
    (Bytes.to_string (Client.read_whole_file c "/f"));
  let r = Invfs.Fsck.audit fs in
  Alcotest.(check bool) "audit clean after wire-driven vacuum" true (Invfs.Fsck.is_clean r)

let test_background_vacuum_timer () =
  let clock, _, server, net = mk ~vacuum_every_s:5. () in
  let c = mk_client server net 64L in
  Client.write_file c "/f" (Bytes.of_string "v1");
  Client.write_file c "/f" (Bytes.of_string "v2");
  Alcotest.(check int) "timer has not fired yet" 0 (Server.vacuum_steps server);
  (* idle pumps across the timer period run budgeted increments without
     any client asking for them *)
  for _ = 1 to 8 do
    Simclock.Clock.advance clock 6.;
    Server.pump server
  done;
  Alcotest.(check bool) "background increments ran" true (Server.vacuum_steps server > 0);
  Alcotest.(check string) "foreground state untouched" "v2"
    (Bytes.to_string (Client.read_whole_file c "/f"))

let () =
  Alcotest.run "remote"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip + fragmentation" `Quick test_wire_roundtrip;
          Alcotest.test_case "crc rejects corruption" `Quick test_wire_crc_rejects_corruption;
          Alcotest.test_case "empty payload" `Quick test_wire_empty_payload;
          Alcotest.test_case "payload at fragment boundary" `Quick
            test_wire_boundary_payload;
          Alcotest.test_case "maximum-size frame roundtrip" `Quick
            test_wire_max_frame_roundtrip;
          Alcotest.test_case "duplicate fragments ignored" `Quick
            test_wire_duplicate_fragments;
          Alcotest.test_case "unknown opcode answers Unsupported" `Quick
            test_unknown_opcode_unsupported;
          Alcotest.test_case "every constructor roundtrips" `Quick test_codec_every_constructor;
          Alcotest.test_case "hostile carriers are malformed" `Quick test_codec_hostile_carriers;
          Alcotest.test_case "values that do not fit" `Quick test_codec_exact;
          Alcotest.test_case "class queries" `Quick test_class_queries;
          Alcotest.test_case "golden sample payloads" `Quick test_golden_samples;
          Alcotest.test_case "golden net payloads" `Quick test_golden_net_corpus;
          Alcotest.test_case "hostile payloads from the declarations" `Quick
            test_codec_hostile_fields;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "basic session" `Quick test_basic_session;
          Alcotest.test_case "duplicate write applied once" `Quick
            test_duplicate_write_applied_once;
          Alcotest.test_case "lost commit reply replayed" `Quick
            test_lost_commit_reply_retries_replay;
          Alcotest.test_case "corrupt frame retried" `Quick test_corrupt_frame_retried;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "mid-txn death is a clean abort" `Quick
            test_session_death_mid_txn_clean_abort;
          Alcotest.test_case "lost clone reply is indeterminate" `Quick
            test_lost_clone_is_indeterminate;
          Alcotest.test_case "bad read/write length sends nothing" `Quick
            test_bad_length_sends_nothing;
          Alcotest.test_case "server crash mid-request" `Quick
            test_server_crash_mid_request;
          Alcotest.test_case "lease expiry frees locks" `Quick
            test_lease_expiry_frees_locks;
          Alcotest.test_case "transparent reissue of reads" `Quick
            test_transparent_reissue_after_crash;
          Alcotest.test_case "whole-file read is one request, one snapshot" `Quick
            test_read_whole_file_one_snapshot;
          Alcotest.test_case "crash_server admin op" `Quick test_crash_server_op;
        ] );
      ( "overload",
        [
          Alcotest.test_case "queue bound sheds, re-offer admitted" `Quick
            test_overload_shed_and_reoffer;
          Alcotest.test_case "watermark sheds retransmissions first" `Quick
            test_watermark_sheds_retries_first;
          Alcotest.test_case "expired deadline refused and recorded" `Quick
            test_deadline_reject_recorded;
          Alcotest.test_case "deadline expiring in the queue" `Quick
            test_deadline_expires_in_queue;
          Alcotest.test_case "client retry budget exhausts to EBUSY" `Quick
            test_retry_budget_exhaustion;
          Alcotest.test_case "client deadline fails fast off the wire" `Quick
            test_client_deadline_failfast;
          Alcotest.test_case "overload machinery is deterministic" `Quick
            test_overload_determinism;
          Alcotest.test_case "jittered retry-after desynchronizes" `Quick
            test_retry_after_jitter_desyncs;
        ] );
      ( "parking",
        [
          Alcotest.test_case "lock-wait timeout expires a parked request" `Quick
            test_park_timeout_expires;
          Alcotest.test_case "parked deadlock victim aborts cleanly" `Quick
            test_parked_deadlock_victim;
        ] );
      ( "snapshots and clones",
        [
          Alcotest.test_case "snapshot + clone over the wire" `Quick
            test_remote_snapshot_and_clone;
          Alcotest.test_case "write_many is atomic" `Quick test_write_many_atomic;
          Alcotest.test_case "vacuum step RPC" `Quick test_remote_vacuum_step_rpc;
          Alcotest.test_case "background vacuum timer" `Quick
            test_background_vacuum_timer;
        ] );
      ( "piggyback",
        [
          Alcotest.test_case "closes and begins ride the next request" `Quick
            test_piggyback_round_trips;
          Alcotest.test_case "deferred close runs before the next request" `Quick
            test_deferred_close_runs_first;
          Alcotest.test_case "dirty close in a transaction stays synchronous" `Quick
            test_dirty_close_stays_synchronous;
          Alcotest.test_case "pending begin tracks the server" `Quick
            test_pending_begin_tracks_server;
          Alcotest.test_case "pending begin survives Overloaded" `Quick
            test_pending_begin_overloaded;
          Alcotest.test_case "shed carrier leaves no transaction" `Quick
            test_shed_carrier_unbegins;
          Alcotest.test_case "carrier park timeout keeps the transaction" `Quick
            test_pending_begin_park_timeout;
          Alcotest.test_case "carrier deadlock victim leaves the transaction" `Quick
            test_carrier_deadlock_victim;
          Alcotest.test_case "session lost with a begin pending" `Quick
            test_pending_begin_session_loss;
          Alcotest.test_case "re-issue never carries old closes" `Quick
            test_reissue_drops_old_closes;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "age bound forces a lone commit" `Quick
            test_group_commit_age_force;
          Alcotest.test_case "commit acked before its force survives a crash" `Quick
            test_commit_acked_before_force;
        ] );
    ]
