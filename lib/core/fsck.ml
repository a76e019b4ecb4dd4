type problem = { relation : string; detail : string }

type report = {
  relations_checked : int;
  files_checked : int;
  archived_checked : int;
  problems : problem list;
  degraded : string list;
  cache : Pagestore.Bufcache.stats;
}

let is_clean r = r.problems = []

let report_to_string r =
  let degraded_suffix =
    match r.degraded with
    | [] -> ""
    | l -> Printf.sprintf "; degraded (dead device, no mirror): %s" (String.concat "," l)
  in
  let archive_suffix =
    if r.archived_checked > 0 then
      Printf.sprintf ", %d archived versions" r.archived_checked
    else ""
  in
  if is_clean r then
    Printf.sprintf "clean: %d relations, %d files%s%s" r.relations_checked r.files_checked
      archive_suffix degraded_suffix
  else
    String.concat "\n"
      (List.map (fun p -> Printf.sprintf "%s: %s" p.relation p.detail) r.problems)
    ^ degraded_suffix

let audit fs =
  let db = Fs.db fs in
  let snap = Relstore.Snapshot.As_of (Relstore.Db.now db) in
  let problems = ref [] in
  let push relation detail = problems := { relation; detail } :: !problems in
  (* 0. media-level availability: relations whose every copy is gone are
     reported as degraded, not audited — the consistency verdict below
     covers what is still answering. *)
  let degraded = Relstore.Db.degraded_relations db in
  let is_degraded name = List.mem name degraded in
  (* 1. media-level: every page self-identifies.  The same page pass
     audits the B-tree indexes over each heap; their verdicts are
     reported under 3. *)
  let rels = Relstore.Db.relations db in
  let page_problems, index_verdict, _ = Fs.audit_relations fs in
  List.iter (fun (name, msg) -> push name msg) page_problems;
  (* 2. namespace structure *)
  let files_checked = ref 0 in
  Fs.iter_files fs snap (fun entry att ->
      incr files_checked;
      let oid = entry.Naming.file in
      if not (Int64.equal att.Fileatt.file oid) then
        push "fileatt" (Printf.sprintf "oid %Ld attribute record names %Ld" oid att.Fileatt.file);
      (* parent must exist and be a directory *)
      if not (Int64.equal oid (Fs.root_oid fs)) then begin
        let parent = entry.Naming.parentid in
        if Int64.equal parent Naming.root_parent && not (String.equal entry.Naming.name "/")
        then push "naming" (Printf.sprintf "%s claims the root pseudo-parent" entry.Naming.name)
      end;
      (* data relation exists and sizes are consistent *)
      if att.Fileatt.index_segid >= 0 then begin
        let relname = Inv_file.relname oid in
        if is_degraded relname then () (* unreachable data, reported as degraded *)
        else if not (Relstore.Db.relation_exists db relname) then
          push relname "data relation missing"
        else
          try
            match Fs.file_handle fs ~oid with
            | None -> push relname "no storage handle"
            | Some inv ->
              let max_seen = ref (-1L) and total = ref 0L in
              Inv_file.iter_chunks inv snap (fun chunkno data ->
                  if Int64.compare chunkno !max_seen > 0 then max_seen := chunkno;
                  total := Int64.add !total (Int64.of_int (Bytes.length data)));
              (* Files can be sparse (ftruncate growth stores no chunks), so
                 there is no ceiling on size vs stored chunks; but no stored
                 chunk may start at or beyond the file size. *)
              let cap = Int64.of_int Chunk.capacity in
              let min_size =
                if Int64.compare !max_seen 0L < 0 then 0L
                else Int64.add (Int64.mul !max_seen cap) 1L
              in
              if Int64.compare att.Fileatt.size min_size < 0 then
                push relname
                  (Printf.sprintf "size %Ld below chunk floor %Ld" att.Fileatt.size min_size)
          with Pagestore.Device.Media_failure m ->
            push relname
              (Printf.sprintf "media failure: %s (%s/%d/%d)" m.reason m.device m.segid m.blkno)
      end);
  (* 3. index consistency: the B-trees are update-in-place, the one layer
     a crash can actually damage, so audit structure and completeness
     against the (self-identifying, no-overwrite) heaps *)
  let index_problem name =
    match index_verdict name with
    | Some (Error msg) -> push name ("index: " ^ msg)
    | Some (Ok ()) | None -> ()
  in
  index_problem (Relstore.Heap.name (Naming.heap (Fs.naming_catalog fs)));
  index_problem (Relstore.Heap.name (Fileatt.heap (Fs.fileatt_catalog fs)));
  Fs.iter_file_handles fs (fun oid _ -> index_problem (Inv_file.relname oid));
  (* 4. ownership and the archive tier.  Every relation is one the file
     system made or the archive of exactly one of those: an archive no
     relation owns holds history no [As_of] read can reach.  WORM heaps
     may hold only dead history: every archived version must carry a
     committed inserter AND a committed deleter — the vacuum judges on
     exactly that, so a live or undecided version on the jukebox means a
     record readers may still need through a [Current] snapshot left the
     main heap. *)
  let made = Hashtbl.create 64 and owners = Hashtbl.create 16 in
  List.iter
    (fun rel ->
      Hashtbl.replace made (Relstore.Heap.name (Index.Indexed.heap rel)) ();
      let arch = Index.Indexed.archive rel in
      if Lazy.is_val arch then begin
        let name = Relstore.Heap.name (Lazy.force arch) in
        let n = Option.value ~default:0 (Hashtbl.find_opt owners name) in
        Hashtbl.replace owners name (n + 1)
      end)
    (Fs.relations fs);
  let archived_checked = ref 0 in
  let log = Relstore.Db.status_log db in
  let walk_archive name =
    match
      Relstore.Heap.scan_raw (Relstore.Db.find_relation db name)
        (fun (r : Relstore.Heap.record) ->
          incr archived_checked;
          (match Relstore.Status_log.state log r.xmin with
          | Relstore.Status_log.Committed _ -> ()
          | Relstore.Status_log.In_progress | Relstore.Status_log.Aborted ->
            push name
              (Printf.sprintf "archived version of oid %Ld has uncommitted inserter xid %s"
                 r.oid (Relstore.Xid.to_string r.xmin))
          | exception Not_found ->
            push name
              (Printf.sprintf "archived version of oid %Ld has unknown inserter xid %s"
                 r.oid (Relstore.Xid.to_string r.xmin)));
          if not (Relstore.Xid.is_valid r.xmax) then
            push name
              (Printf.sprintf "live version of oid %Ld on the WORM tier (no deleter)" r.oid)
          else if not (Relstore.Status_log.is_committed log r.xmax) then
            push name
              (Printf.sprintf
                 "version of oid %Ld on the WORM tier whose deleter xid %s never committed"
                 r.oid (Relstore.Xid.to_string r.xmax)))
    with
    | () -> ()
    | exception Pagestore.Device.Media_failure m ->
      push name
        (Printf.sprintf "media failure: %s (%s/%d/%d)" m.reason m.device m.segid m.blkno)
  in
  List.iter
    (fun name ->
      if not (Hashtbl.mem made name) then
        match Hashtbl.find_opt owners name with
        | Some 1 -> if not (is_degraded name) then walk_archive name
        | Some n -> push name (Printf.sprintf "archive of %d relations" n)
        | None ->
          push name "no relation owns it: not made by the file system, nor an archive of one")
    rels;
  {
    relations_checked = List.length rels;
    files_checked = !files_checked;
    archived_checked = !archived_checked;
    problems = List.rev !problems;
    degraded;
    cache = Pagestore.Bufcache.stats (Relstore.Db.cache db);
  }

(* {2 Cross-shard audit}

   Pure over plain data: the cluster layer gathers the placement map,
   the coordinator's named oids and each shard's resident oids, and this
   walk decides whether every chunk copy is where the map says it should
   be.  Unreachable shards mirror [degraded] above — skipped, reported,
   not unclean. *)

type shard_report = {
  sh_shards_checked : int;
  sh_files_checked : int;
  sh_copies_checked : int;
  sh_unreferenced : int;
  sh_problems : problem list;
  sh_unreachable : string list;
}

let is_shard_clean r = r.sh_problems = []

let shard_report_to_string r =
  let verdict = if is_shard_clean r then "clean" else "UNCLEAN" in
  let base =
    Printf.sprintf "cross-shard audit: %s (%d shards, %d files, %d copies%s)" verdict
      r.sh_shards_checked r.sh_files_checked r.sh_copies_checked
      (if r.sh_unreferenced > 0 then Printf.sprintf ", %d unreferenced" r.sh_unreferenced
       else "")
  in
  let unreachable =
    match r.sh_unreachable with
    | [] -> []
    | l -> [ "  unreachable: " ^ String.concat ", " l ]
  in
  let problems =
    List.map (fun p -> Printf.sprintf "  %s: %s" p.relation p.detail) r.sh_problems
  in
  String.concat "\n" ((base :: unreachable) @ problems)

let cross_shard_audit ~nshards ~owner ~handoff ~drops ~bucket_of ~named ~resident =
  let problems = ref [] in
  let push relation detail = problems := { relation; detail } :: !problems in
  let shard_name k = Printf.sprintf "shard%d" k in
  let valid_shard s = s >= 1 && s <= nshards in
  let nbuckets = Array.length owner in
  let valid_bucket b = b >= 0 && b < nbuckets in
  (* 1. the map itself *)
  Array.iteri
    (fun b s ->
      if not (valid_shard s) then
        push "placement" (Printf.sprintf "bucket %d owned by invalid shard %d" b s))
    owner;
  List.iter
    (fun (b, src, dst) ->
      if not (valid_bucket b) then
        push "placement" (Printf.sprintf "handoff of invalid bucket %d" b)
      else begin
        if not (valid_shard src && valid_shard dst) then
          push "placement"
            (Printf.sprintf "handoff of bucket %d between invalid shards %d -> %d" b
               src dst);
        if src = dst then
          push "placement" (Printf.sprintf "bucket %d handed off to itself" b);
        if valid_shard dst && owner.(b) <> dst then
          push "placement"
            (Printf.sprintf
               "handoff of bucket %d targets shard %d but the map assigns shard %d" b
               dst owner.(b))
      end)
    handoff;
  List.iter
    (fun (b, s) ->
      if not (valid_bucket b && valid_shard s) then
        push "placement" (Printf.sprintf "drop of bucket %d on invalid shard %d" b s)
      else if owner.(b) = s && not (List.exists (fun (b', _, _) -> b' = b) handoff)
      then
        push "placement"
          (Printf.sprintf "drop of bucket %d would discard the owning copy on shard %d"
             b s))
    drops;
  (* 2. residency: who actually holds each oid *)
  let unreachable = ref [] in
  let holders : (int64, int list) Hashtbl.t = Hashtbl.create 64 in
  let copies = ref 0 in
  let reachable = Hashtbl.create 8 in
  List.iter
    (fun (k, r) ->
      if not (valid_shard k) then
        push "placement" (Printf.sprintf "residency listing for invalid shard %d" k)
      else
        match r with
        | None -> unreachable := shard_name k :: !unreachable
        | Some oids ->
          Hashtbl.replace reachable k ();
          List.iter
            (fun oid ->
              incr copies;
              Hashtbl.replace holders oid
                (k :: Option.value ~default:[] (Hashtbl.find_opt holders oid)))
            oids)
    resident;
  let authority b =
    match List.find_opt (fun (b', _, _) -> b' = b) handoff with
    | Some (_, src, _) -> src
    | None -> owner.(b)
  in
  (* 3. every named oid resident anywhere must sit on its authority *)
  let files = ref 0 in
  let named_tbl = Hashtbl.create 64 in
  List.iter
    (fun oid ->
      Hashtbl.replace named_tbl oid ();
      incr files;
      let b = bucket_of oid in
      if not (valid_bucket b) then
        push "placement" (Printf.sprintf "oid %Ld hashes to invalid bucket %d" oid b)
      else begin
        let auth = authority b in
        let hs = Option.value ~default:[] (Hashtbl.find_opt holders oid) in
        if
          hs <> [] && valid_shard auth
          && Hashtbl.mem reachable auth
          && not (List.mem auth hs)
        then
          push (shard_name auth)
            (Printf.sprintf
               "oid %Ld (bucket %d) missing from its authority, resident on %s" oid b
               (String.concat "," (List.map string_of_int hs)))
      end)
    named;
  (* 4. every resident copy must be accounted for.  A copy of an oid the
     namespace does not name is counted, not judged: nothing collects
     the shard copies of an unlinked file (the coordinator's unlink
     touches only its namespace), so they stay until a handoff moves
     their bucket and the drop that follows removes them. *)
  let unreferenced = ref 0 in
  Hashtbl.iter
    (fun oid hs ->
      let b = bucket_of oid in
      if not (Hashtbl.mem named_tbl oid) then
        unreferenced := !unreferenced + List.length hs
      else if valid_bucket b then begin
        let auth = authority b in
        let dst_of_handoff =
          match List.find_opt (fun (b', _, _) -> b' = b) handoff with
          | Some (_, _, dst) -> Some dst
          | None -> None
        in
        List.iter
          (fun k ->
            let excused = k = auth || dst_of_handoff = Some k || List.mem (b, k) drops in
            if not excused then
              push (shard_name k)
                (Printf.sprintf
                   "stray copy of oid %Ld (bucket %d): authority is %s, no handoff \
                    or drop explains it"
                   oid b (shard_name auth)))
          hs
      end)
    holders;
  {
    sh_shards_checked = List.length resident;
    sh_files_checked = !files;
    sh_copies_checked = !copies;
    sh_unreferenced = !unreferenced;
    sh_problems = List.rev !problems;
    sh_unreachable = List.rev !unreachable;
  }
