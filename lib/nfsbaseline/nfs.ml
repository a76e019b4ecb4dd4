type server = { ffs : Ffs.t; presto : Presto.t option }
type t = { server : server; net : Netsim.t; mutable rpcs : int }
type fh = int

let max_transfer = 8192
let rpc_header = 120 (* RPC + NFS argument overhead per message *)

let make_server ~ffs ?presto () = { ffs; presto }
let connect ~server ~net = { server; net; rpcs = 0 }
let rpc_count t = t.rpcs

let rpc t ~request ~reply =
  Netsim.call t.net ~request ~reply;
  t.rpcs <- t.rpcs + 1

let write_mode server =
  match server.presto with Some p -> Ffs.Absorbed p | None -> Ffs.Sync

let create t name =
  rpc t ~request:(rpc_header + String.length name) ~reply:rpc_header;
  Ffs.create_file t.server.ffs name ~mode:(write_mode t.server)

let lookup t name =
  rpc t ~request:(rpc_header + String.length name) ~reply:rpc_header;
  Ffs.lookup t.server.ffs name

let getattr t fh =
  rpc t ~request:rpc_header ~reply:(rpc_header + 68);
  Ffs.size t.server.ffs fh

let read t fh ~off ~buf ~len =
  let total = ref 0 in
  let continue = ref true in
  while !continue && !total < len do
    let want = min max_transfer (len - !total) in
    let here = Int64.add off (Int64.of_int !total) in
    let tmp = Bytes.create want in
    let got = Ffs.read t.server.ffs ~ino:fh ~off:here ~buf:tmp ~len:want in
    rpc t ~request:rpc_header ~reply:(rpc_header + got);
    Bytes.blit tmp 0 buf !total got;
    total := !total + got;
    if got < want then continue := false
  done;
  !total

let write t fh ~off ~data =
  let len = Bytes.length data in
  let sent = ref 0 in
  while !sent < len do
    let now = min max_transfer (len - !sent) in
    let here = Int64.add off (Int64.of_int !sent) in
    rpc t ~request:(rpc_header + now) ~reply:rpc_header;
    Ffs.write t.server.ffs ~ino:fh ~off:here
      ~data:(Bytes.sub data !sent now)
      ~mode:(write_mode t.server);
    sent := !sent + now
  done

let drop_caches server =
  Ffs.drop_caches server.ffs;
  match server.presto with Some p -> Presto.drain_all p | None -> ()
