type report = {
  rolled_back : Relstore.Xid.t list;
  page_problems : (string * string) list;
  catalogs_rebuilt : string list;
  file_indexes_rebuilt : int64 list;
  degraded : string list;
  intents_replayed : int;
  relations_audited : string list;
  audit : Fsck.report;
}

let m_recoveries = Obs.Metrics.counter "recovery.runs"

let crash_and_recover fs =
  Obs.Metrics.incr m_recoveries;
  Obs.span Obs.Recovery "recovery" @@ fun () ->
  let r = Fs.crash_and_recover fs in
  let audit = Fsck.audit fs in
  if Obs.on Obs.Recovery then
    Obs.event Obs.Recovery "recovery.report"
      ~args:
        [ ("rolled_back", Obs.I (List.length r.Fs.rolled_back));
          ("page_problems", Obs.I (List.length r.Fs.page_problems));
          ("catalogs_rebuilt", Obs.I (List.length r.Fs.catalogs_rebuilt));
          ("file_indexes_rebuilt", Obs.I (List.length r.Fs.file_indexes_rebuilt));
          ("degraded", Obs.I (List.length r.Fs.degraded));
          ("intents_replayed", Obs.I r.Fs.intents_replayed);
          ("relations_audited", Obs.I (List.length r.Fs.relations_audited));
        ]
      ();
  {
    rolled_back = r.Fs.rolled_back;
    page_problems = r.Fs.page_problems;
    catalogs_rebuilt = r.Fs.catalogs_rebuilt;
    file_indexes_rebuilt = r.Fs.file_indexes_rebuilt;
    degraded = r.Fs.degraded;
    intents_replayed = r.Fs.intents_replayed;
    relations_audited = r.Fs.relations_audited;
    audit;
  }

let is_clean r = r.page_problems = [] && Fsck.is_clean r.audit

let indexes_rebuilt r =
  List.length r.catalogs_rebuilt + List.length r.file_indexes_rebuilt

let report_to_string r =
  Printf.sprintf
    "rolled back %d txn(s) [%s]; audited %d relation(s); %d page problem(s)%s; rebuilt indexes: %s; replayed %d intent(s); degraded: %s; audit: %s"
    (List.length r.rolled_back)
    (String.concat "," (List.map string_of_int r.rolled_back))
    (List.length r.relations_audited)
    (List.length r.page_problems)
    (match r.page_problems with
    | [] -> ""
    | l -> " (" ^ String.concat "; " (List.map (fun (rel, m) -> rel ^ ": " ^ m) l) ^ ")")
    (match
       r.catalogs_rebuilt @ List.map (fun oid -> Printf.sprintf "inv%Ld" oid) r.file_indexes_rebuilt
     with
    | [] -> "none"
    | l -> String.concat "," l)
    r.intents_replayed
    (match r.degraded with [] -> "none" | l -> String.concat "," l)
    (Fsck.report_to_string r.audit)
