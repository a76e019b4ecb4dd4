module H = Relstore.Heap

type index = { name : string; tree : Btree.t; key_of : H.record -> string }

type verdict = { pages : (unit, string) result; indexes : (unit, string) result }

exception Problem of string

let problem fmt = Printf.ksprintf (fun s -> raise (Problem s)) fmt

(* One tree read: its entries in key order, and the first thing that
   stopped the walk.  The entries are only iterated once the structure
   checks out (a cyclic leaf chain would never end). *)
type walk = { entries : (string * int64) list; stopped : string option }

let walk ix =
  let entries = ref [] in
  let failed e = Some (Printf.sprintf "%s: walk failed: %s" ix.name (Printexc.to_string e)) in
  let stopped =
    match Btree.check_invariants ix.tree with
    | Error msg -> Some (Printf.sprintf "%s: %s" ix.name msg)
    | exception e -> failed e
    | Ok () -> (
      match Btree.iter ix.tree (fun key v -> entries := (key, v) :: !entries) with
      | () -> None
      | exception e -> failed e)
  in
  { entries = List.rev !entries; stopped }

let run heap indexes =
  let log = H.status_log heap in
  (* Trees first.  A relation's trees are created with it, before its
     first heap block, so in this order the audit reads each relation's
     blocks as the allocator laid them down.  A heap with no blocks holds
     no version, so its trees are moot and stay unread. *)
  let walks = if H.nblocks heap = 0 then [] else List.map (fun ix -> (ix, walk ix)) indexes in
  (* Per version: its key under each index ([None] if the payload does
     not decode), by encoded TID; committed TIDs in heap order. *)
  let keys : (int64, string option array) Hashtbl.t = Hashtbl.create 256 in
  let committed = ref [] in
  let pages =
    H.verify heap ~on_record:(fun r ->
        let v = Relstore.Tid.encode r.tid in
        Hashtbl.replace keys v
          (Array.of_list
             (List.map (fun ix -> try Some (ix.key_of r) with _ -> None) indexes));
        if Relstore.Status_log.is_committed log r.xmin then committed := v :: !committed)
  in
  let committed = List.rev !committed in
  let audit i (ix, w) =
    let indexed = Hashtbl.create (Hashtbl.length keys) in
    List.iter
      (fun (key, v) ->
        match Hashtbl.find_opt keys v with
        | None -> problem "%s: dangling index entry %s" ix.name
                    (Relstore.Tid.to_string (Relstore.Tid.decode v))
        | Some k when k.(i) = Some key -> Hashtbl.replace indexed v ()
        | Some _ ->
          problem "%s: index entry aliases the version at %s" ix.name
            (Relstore.Tid.to_string (Relstore.Tid.decode v)))
      w.entries;
    Option.iter (fun msg -> raise (Problem msg)) w.stopped;
    List.iter
      (fun v ->
        if not (Hashtbl.mem indexed v) then
          problem "%s: committed version at %s not indexed" ix.name
            (Relstore.Tid.to_string (Relstore.Tid.decode v)))
      committed
  in
  (* With no committed version nothing is reachable through the
     indexes, so their state is moot: whatever the walks found, the
     verdict is clean. *)
  let indexes =
    if committed = [] then Ok ()
    else
      match List.iteri audit walks with
      | () -> Ok ()
      | exception Problem msg -> Error msg
  in
  { pages; indexes }
