module H = Relstore.Heap

type index = { name : string; tree : Btree.t; key_of : H.record -> string }

type verdict = { pages : (unit, string) result; indexes : (unit, string) result }

exception Problem of string

let problem fmt = Printf.ksprintf (fun s -> raise (Problem s)) fmt

let run heap indexes =
  let log = H.status_log heap in
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
  let audit i ix =
    (match Btree.check_invariants ix.tree with
    | Ok () -> ()
    | Error msg -> problem "%s: %s" ix.name msg
    | exception e -> problem "%s: walk failed: %s" ix.name (Printexc.to_string e));
    let indexed = Hashtbl.create (Hashtbl.length keys) in
    (match
       Btree.iter ix.tree (fun key v ->
           match Hashtbl.find_opt keys v with
           | None -> problem "%s: dangling index entry %s" ix.name
                       (Relstore.Tid.to_string (Relstore.Tid.decode v))
           | Some k when k.(i) = Some key -> Hashtbl.replace indexed v ()
           | Some _ ->
             problem "%s: index entry aliases the version at %s" ix.name
               (Relstore.Tid.to_string (Relstore.Tid.decode v)))
     with
    | () -> ()
    | exception (Problem _ as p) -> raise p
    | exception e -> problem "%s: walk failed: %s" ix.name (Printexc.to_string e));
    List.iter
      (fun v ->
        if not (Hashtbl.mem indexed v) then
          problem "%s: committed version at %s not indexed" ix.name
            (Relstore.Tid.to_string (Relstore.Tid.decode v)))
      committed
  in
  (* With no committed version nothing is reachable through the
     indexes, so their state is moot and they are not read. *)
  let indexes =
    if committed = [] then Ok ()
    else
      match List.iteri audit indexes with
      | () -> Ok ()
      | exception Problem msg -> Error msg
  in
  { pages; indexes }
