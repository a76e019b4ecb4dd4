(* Shared runner for the differential sweeps (test/*_sweep.ml).

   A sweep runs its harness once per seed and prints each outcome line
   followed by the line's mismatches; any mismatch or failed check makes
   the exit status non-zero.  Unless a --trace run replays a single seed,
   the first seed then runs again and must reproduce its outcome lines
   byte for byte: the whole run is a function of the seed.  With --quick
   the sweep says so on stdout; the full runs keep printing outcome lines
   only, so two trees' full outputs diff cleanly. *)

let quick = Array.mem "--quick" Sys.argv

(* --trace SEED: replay that seed alone with the per-op log on stderr,
   in the sweeps that take it. *)
let trace_seed =
  let rec find = function
    | "--trace" :: s :: _ -> Int64.of_string_opt s
    | _ :: tl -> find tl
    | [] -> None
  in
  find (List.tl (Array.to_list Sys.argv))

let env_int var default =
  match Sys.getenv_opt var with None | Some "" -> default | Some s -> int_of_string s

(* NAME_SEEDS=5,6,7 appends extra seeds. *)
let env_seeds name =
  match Sys.getenv_opt (String.uppercase_ascii name ^ "_SEEDS") with
  | None | Some "" -> []
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun tok ->
           match Int64.of_string_opt (String.trim tok) with
           | Some n -> Some n
           | None ->
             Printf.eprintf "%s_sweep: ignoring bad seed %S\n" name tok;
             None)

(* The seed set for this mode, plus NAME_SEEDS. *)
let seeds ~name ~full ~quick:q = (if quick then q else full) @ env_seeds name

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "  FAIL: %s\n%!" msg)
    fmt

(* [run ~name seeds outcome]: [outcome seed] runs every scenario of one
   seed and returns, per scenario, its outcome line and its mismatches.
   [finally] adds whole-sweep checks before the exit status is decided. *)
let run ~name ?(traceable = false) ?(finally = ignore) seeds outcome =
  let seeds =
    match trace_seed with Some s when traceable -> [ s ] | _ -> seeds
  in
  let first = ref [] in
  List.iteri
    (fun i seed ->
      let report = outcome seed in
      if i = 0 then first := List.map fst report;
      List.iter
        (fun (line, mismatches) ->
          Printf.printf "%s\n%!" line;
          List.iter
            (fun m ->
              incr failures;
              Printf.printf "  MISMATCH: %s\n%!" m)
            mismatches)
        report)
    seeds;
  (match seeds with
  | seed :: _ when not (traceable && trace_seed <> None) ->
    let again = List.map fst (outcome seed) in
    if again <> !first then
      fail "seed %Ld is not deterministic:\n    %s\n    %s" seed
        (String.concat "\n    " !first) (String.concat "\n    " again)
    else if quick then
      Printf.printf "determinism: seed %Ld reproduces byte-identically\n%!" seed
  | _ -> ());
  finally ();
  if !failures > 0 then begin
    Printf.eprintf "%s_sweep: %d failures%s\n" name !failures
      (if traceable then Printf.sprintf " (repro: %s_sweep.exe --trace SEED)" name
       else "");
    exit 1
  end
