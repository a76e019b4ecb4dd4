type report = { restart : Fs.recovery; audit : Fsck.report }

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
          ("relations_audited", Obs.I (List.length r.Fs.relations_audited));
        ]
      ();
  { restart = r; audit }

let is_clean r = r.restart.Fs.page_problems = [] && Fsck.is_clean r.audit

let indexes_rebuilt r =
  List.length r.restart.Fs.catalogs_rebuilt + List.length r.restart.Fs.file_indexes_rebuilt

let report_to_string { restart = r; audit } =
  Printf.sprintf
    "rolled back %d txn(s) [%s]; audited %d relation(s); %d page problem(s)%s; rebuilt indexes: %s; degraded: %s; audit: %s"
    (List.length r.Fs.rolled_back)
    (String.concat "," (List.map string_of_int r.Fs.rolled_back))
    (List.length r.Fs.relations_audited)
    (List.length r.Fs.page_problems)
    (match r.Fs.page_problems with
    | [] -> ""
    | l -> " (" ^ String.concat "; " (List.map (fun (rel, m) -> rel ^ ": " ^ m) l) ^ ")")
    (match
       r.Fs.catalogs_rebuilt
       @ List.map (fun oid -> Printf.sprintf "inv%Ld" oid) r.Fs.file_indexes_rebuilt
     with
    | [] -> "none"
    | l -> String.concat "," l)
    (match r.Fs.degraded with [] -> "none" | l -> String.concat "," l)
    (Fsck.report_to_string audit)
