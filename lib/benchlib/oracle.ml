(* The differential oracle: a pure in-memory model of the state the file
   system under test must equal.

   Modelled commit semantics (mirrors fs.ml):
   - outside an explicit transaction every mutating call is its own
     transaction, so an op either lands fully or not at all;
   - inside a transaction all of a session's mutations are buffered in a
     per-session overlay and merged into the committed state only when
     the commit returns normally;
   - a crash, I/O error, lock conflict or commit-time Not_found aborts
     the transaction: the overlay is dropped;
   - cross-session reads see latest-committed (Snapshot.Current), which
     is exactly the committed map.

   The state is oid-keyed: [names] binds paths to file identities and
   [files] holds content per identity.  The split matters even without
   hard links — a transaction that renames a file holds only directory
   locks, so another session can keep addressing the same file through
   its committed name and commit writes to it; a path-keyed oracle would
   freeze the renamed file's content at rename time and diverge. *)

module SM = Map.Make (String)
module OM = Map.Make (Int64)
module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors

type t = {
  trace : bool;
  depth : int;
  mutable files : bytes OM.t; (* oid -> committed contents *)
  mutable names : int64 SM.t; (* path -> oid *)
  mutable dirs : unit SM.t; (* directory paths, including "/" *)
  mutable history : (int64 * bytes SM.t * string list) list; (* newest first *)
  mutable next_name : int;
  mutable next_oid : int64;
  mutable verifies : int;
  mutable mismatches : string list; (* newest first *)
}

let create ~trace ~depth =
  {
    trace;
    depth;
    files = OM.empty;
    names = SM.empty;
    dirs = SM.singleton "/" ();
    history = [];
    next_name = 0;
    next_oid = 1L;
    verifies = 0;
    mismatches = [];
  }

(* ---------- log ---------- *)

let max_mismatches = 50

let trace t fmt =
  Printf.ksprintf (fun msg -> if t.trace then Printf.eprintf "%s\n%!" msg) fmt

let mismatch t fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length t.mismatches < max_mismatches then
        t.mismatches <- msg :: t.mismatches)
    fmt

let mismatches t = List.rev t.mismatches

let bytes_diff a b =
  if Bytes.equal a b then None
  else begin
    let la = Bytes.length a and lb = Bytes.length b in
    let n = min la lb in
    let i = ref 0 in
    while !i < n && Bytes.get a !i = Bytes.get b !i do
      incr i
    done;
    Some (Printf.sprintf "lengths %d vs %d, first difference at byte %d" la lb !i)
  end

let splice cur ~off data =
  let len = Bytes.length cur and dlen = Bytes.length data in
  let out = Bytes.make (max len (off + dlen)) '\000' in
  Bytes.blit cur 0 out 0 len;
  Bytes.blit data 0 out off dlen;
  out

let resize cur len =
  let out = Bytes.make len '\000' in
  Bytes.blit cur 0 out 0 (min len (Bytes.length cur));
  out

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

let fresh_name t prefix =
  let n = t.next_name in
  t.next_name <- n + 1;
  Printf.sprintf "%s%d" prefix n

let fresh_oid t =
  let oid = t.next_oid in
  t.next_oid <- Int64.add oid 1L;
  oid

let pick rng = function
  | [] -> invalid_arg "Oracle.pick: empty"
  | l -> List.nth l (Rng.int rng (List.length l))

(* ---------- committed state ---------- *)

type updates = {
  u_names : (string * int64 option) list;
  u_files : (int64 * bytes) list;
  u_dirs : string list;
}

let no_updates = { u_names = []; u_files = []; u_dirs = [] }

(* [u_names] apply in order; content updates apply to oids that remain
   named afterwards; unnamed oids are dropped (their data is only
   reachable by time travel, which the history covers). *)
let commit t u =
  List.iter
    (fun (path, v) ->
      match v with
      | Some oid -> t.names <- SM.add path oid t.names
      | None -> t.names <- SM.remove path t.names)
    u.u_names;
  let named = SM.fold (fun _ oid acc -> OM.add oid () acc) t.names OM.empty in
  List.iter
    (fun (oid, data) -> if OM.mem oid named then t.files <- OM.add oid data t.files)
    u.u_files;
  t.files <- OM.filter (fun oid _ -> OM.mem oid named) t.files;
  List.iter (fun d -> t.dirs <- SM.add d () t.dirs) u.u_dirs

let names t = t.names
let files t = t.files
let content t oid = Option.value ~default:Bytes.empty (OM.find_opt oid t.files)
let dirs t = List.map fst (SM.bindings t.dirs)

(* ---------- per-session overlay ---------- *)

type overlay = {
  mutable in_txn : bool;
  mutable ov_names : int64 option SM.t; (* None = unlinked in this txn *)
  mutable ov_files : bytes OM.t;
  mutable ov_dirs : string list;
}

let overlay () =
  { in_txn = false; ov_names = SM.empty; ov_files = OM.empty; ov_dirs = [] }
let in_txn ov = ov.in_txn
let begin_txn ov = ov.in_txn <- true

let clear ov =
  ov.in_txn <- false;
  ov.ov_names <- SM.empty;
  ov.ov_files <- OM.empty;
  ov.ov_dirs <- []

let overlay_updates ov =
  {
    u_names = SM.bindings ov.ov_names;
    u_files = OM.bindings ov.ov_files;
    u_dirs = List.rev ov.ov_dirs;
  }

let record t ov u =
  if ov.in_txn then begin
    List.iter (fun (p, v) -> ov.ov_names <- SM.add p v ov.ov_names) u.u_names;
    List.iter (fun (oid, b) -> ov.ov_files <- OM.add oid b ov.ov_files) u.u_files;
    List.iter (fun d -> ov.ov_dirs <- d :: ov.ov_dirs) u.u_dirs
  end
  else commit t u

(* What a session currently sees: committed state overlaid with its own
   uncommitted transaction.  Content falls through to the committed cell
   when the transaction has not written the oid itself — a rename picks
   up concurrent committed writes to the file it moved. *)
let view_names t ov =
  SM.fold
    (fun path v acc ->
      match v with Some oid -> SM.add path oid acc | None -> SM.remove path acc)
    ov.ov_names t.names

let view_content t ov oid =
  match OM.find_opt oid ov.ov_files with
  | Some b -> b
  | None -> content t oid

let view_dirs t ov =
  List.rev_append ov.ov_dirs (dirs t) |> List.sort_uniq String.compare

let pick_dir t ov rng = pick rng (view_dirs t ov)

let fresh_path t ov rng prefix =
  let name = fresh_name t prefix in
  join (pick_dir t ov rng) name

let pick_file t ov rng =
  match SM.bindings (view_names t ov) with [] -> None | files -> Some (pick rng files)

(* ---------- history ---------- *)

let remember t ts =
  let materialized = SM.map (fun oid -> Bytes.copy (content t oid)) t.names in
  t.history <-
    List.filteri (fun i _ -> i < t.depth) ((ts, materialized, dirs t) :: t.history)

let remember_now t db =
  remember t (Relstore.Db.now db);
  (* Move time past the remembered instant so no later commit can share
     its timestamp (As_of visibility uses <=). *)
  Simclock.Clock.advance (Relstore.Db.clock db) ~account:"oracle.mark" 1e-6

let history t = t.history

(* ---------- checks against the real tree ---------- *)

(* Every file under "/" with its contents, read in readdir order, and
   every directory. *)
let walk s =
  let files = ref SM.empty and dirs = ref [] in
  let rec go dir =
    dirs := dir :: !dirs;
    List.iter
      (fun name ->
        let path = join dir name in
        let att = Fs.stat s path in
        if att.Invfs.Fileatt.ftype = "directory" then go path
        else files := SM.add path (Lazy.from_val (Fs.read_whole_file s path)) !files)
      (Fs.readdir s dir)
  in
  go "/";
  (List.sort String.compare !dirs, !files)

let compare_tree t ~phase ~dirs:dirs_real real_files =
  t.verifies <- t.verifies + 1;
  let dirs_expect = dirs t in
  if dirs_expect <> dirs_real then
    mismatch t "%s: directories differ: oracle [%s] real [%s]" phase
      (String.concat "," dirs_expect) (String.concat "," dirs_real);
  SM.iter
    (fun path oid ->
      match SM.find_opt path real_files with
      | None -> mismatch t "%s: %s missing from real fs" phase path
      | Some (lazy real) -> (
        match bytes_diff (content t oid) real with
        | None -> ()
        | Some d -> mismatch t "%s: %s content differs: %s" phase path d))
    t.names;
  SM.iter
    (fun path _ ->
      if not (SM.mem path t.names) then
        mismatch t "%s: real fs has unexpected file %s" phase path)
    real_files

let verify t s ~phase =
  let dirs, files = walk s in
  compare_tree t ~phase ~dirs files

let verifies t = t.verifies

let check_time_travel t s =
  let checks = ref 0 in
  List.iter
    (fun (ts, materialized, dirs) ->
      SM.iter
        (fun path expect ->
          incr checks;
          match Fs.read_whole_file s ~timestamp:ts path with
          | real -> (
            match bytes_diff expect real with
            | None -> ()
            | Some d -> mismatch t "time travel @%Ld: %s differs: %s" ts path d)
          | exception Errors.Fs_error (code, _) ->
            mismatch t "time travel @%Ld: %s unreadable (%s)" ts path
              (Errors.code_to_string code))
        materialized;
      List.iter
        (fun dir ->
          incr checks;
          if not (Fs.exists s ~timestamp:ts dir) then
            mismatch t "time travel @%Ld: directory %s missing" ts dir)
        dirs)
    t.history;
  !checks
