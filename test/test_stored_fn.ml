(* Functions written in POSTQUEL and stored as Inversion files — with the
   paper's headline property: time travel runs OLD versions of functions. *)

module Fs = Invfs.Fs
module Sf = Invfs.Stored_fn
module V = Postquel.Value
module E = Invfs.Errors

let fresh () =
  let clock = Simclock.Clock.create () in
  let db = Relstore.Db.create ~clock () in
  let fs = Fs.make db () in
  (clock, fs, Fs.new_session fs)

let bytes_of = Bytes.of_string

let test_define_and_call () =
  let _, fs, s = fresh () in
  Sf.define fs s ~name:"double" ~arity:1 ~body:"arg1 * 2" ();
  Fs.write_file s "/f" (bytes_of "xxxx");
  let rows = Fs.query s {|retrieve (filename, double(size(file)))|} in
  match rows with
  | [ [ V.Str "f"; V.Int 8L ] ] -> ()
  | _ -> Alcotest.failf "unexpected rows (%d)" (List.length rows)

let test_body_is_a_file () =
  let _, fs, s = fresh () in
  Sf.define fs s ~name:"big" ~arity:1 ~body:"size(arg1) > 100" ();
  (* visible in the namespace like any file *)
  Alcotest.(check (list string)) "listed" [ "big" ] (Fs.readdir s Sf.functions_dir);
  Alcotest.(check string) "source readable" "size(arg1) > 100" (Sf.source s "big")

let test_functions_compose () =
  let _, fs, s = fresh () in
  Sf.define fs s ~name:"kb" ~arity:1 ~body:"size(arg1) / 1024.0" ();
  Sf.define fs s ~name:"big" ~arity:1 ~body:"kb(arg1) > 1.0" ();
  Fs.write_file s "/small" (bytes_of "tiny");
  Fs.write_file s "/large" (Bytes.make 4096 'x');
  let rows = Fs.query s {|retrieve (filename) where big(file)|} in
  match rows with
  | [ [ V.Str "large" ] ] -> ()
  | _ -> Alcotest.fail "composition failed"

let test_time_travel_runs_old_function () =
  (* "users can even run old versions of these functions" *)
  let clock, fs, s = fresh () in
  Fs.write_file s "/data" (Bytes.make 500 'x');
  Sf.define fs s ~name:"grade" ~arity:1
    ~body:{|size(arg1) > 100|} ();
  Simclock.Clock.advance clock 10.;
  let t_old = Relstore.Db.now (Fs.db fs) in
  Simclock.Clock.advance clock 10.;
  (* redefine: the threshold changes *)
  Sf.define fs s ~name:"grade" ~arity:1 ~body:{|size(arg1) > 1000|} ();
  (* today's function says no; the old function said yes *)
  Alcotest.(check int) "new function: no match" 0
    (List.length (Fs.query s {|retrieve (filename) where grade(file)|}));
  let rows_then = Fs.query s ~timestamp:t_old {|retrieve (filename) where grade(file)|} in
  Alcotest.(check int) "old function matched" 1 (List.length rows_then);
  (* and the old source is readable, like any old file *)
  Alcotest.(check string) "old source" "size(arg1) > 100"
    (Sf.source s ~timestamp:t_old "grade");
  Alcotest.(check string) "new source" "size(arg1) > 1000" (Sf.source s "grade")

let test_function_did_not_exist_yet () =
  let clock, fs, s = fresh () in
  Fs.write_file s "/f" (bytes_of "x");
  Simclock.Clock.advance clock 5.;
  let t_before = Relstore.Db.now (Fs.db fs) in
  Simclock.Clock.advance clock 5.;
  Sf.define fs s ~name:"yes" ~arity:1 ~body:"1 = 1" ();
  Alcotest.(check int) "works now" 1
    (List.length (Fs.query s {|retrieve (filename) where yes(file)|}));
  (* before its definition the function evaluates to Null: no rows, no
     error *)
  Alcotest.(check int) "null before it existed" 0
    (List.length (Fs.query s ~timestamp:t_before {|retrieve (filename) where yes(file)|}))

let test_transactional_redefinition () =
  let _, fs, s = fresh () in
  Fs.write_file s "/f" (Bytes.make 500 'x');
  Sf.define fs s ~name:"grade" ~arity:1 ~body:"size(arg1) > 100" ();
  Fs.p_begin s;
  Sf.define fs s ~name:"grade" ~arity:1 ~body:"size(arg1) > 9999" ();
  Fs.p_abort s;
  (* the redefinition rolled back with everything else *)
  Alcotest.(check string) "old body back" "size(arg1) > 100" (Sf.source s "grade");
  Alcotest.(check int) "old behavior back" 1
    (List.length (Fs.query s {|retrieve (filename) where grade(file)|}))

let test_bad_body_rejected () =
  let _, fs, s = fresh () in
  Alcotest.(check bool) "parse error at definition" true
    (try
       Sf.define fs s ~name:"broken" ~body:"size(arg1" ();
       false
     with Postquel.Parser.Parse_error _ -> true);
  Alcotest.(check bool) "bad name rejected" true
    (try
       Sf.define fs s ~name:"a/b" ~body:"1" ();
       false
     with E.Fs_error (E.EINVAL, _) -> true)

let test_recursion_bounded () =
  let _, fs, s = fresh () in
  Sf.define fs s ~name:"loop" ~arity:1 ~body:"loop(arg1)" ();
  Fs.write_file s "/f" (bytes_of "x");
  Alcotest.(check bool) "recursion cut off" true
    (try
       ignore (Fs.query s {|retrieve (filename) where loop(file)|});
       false
     with E.Fs_error (E.EINVAL, _) -> true)

let test_attach_after_crash () =
  let _, fs, s = fresh () in
  Sf.define fs s ~name:"yes" ~arity:1 ~body:"1 = 1" ();
  Fs.write_file s "/f" (bytes_of "x");
  Fs.crash fs;
  (* the crash keeps the registry entry, which reads the body from
     /.functions when called *)
  let s2 = Fs.new_session fs in
  Alcotest.(check int) "function survives crash" 1
    (List.length (Fs.query s2 {|retrieve (filename) where yes(file)|}))

let test_typed_stored_function () =
  let _, fs, s = fresh () in
  Fs.define_type fs "tm";
  Sf.define fs s ~name:"is_image" ~file_type:"tm" ~arity:1 ~body:"1 = 1" ();
  Fs.write_file s "/plain" (bytes_of "x");
  Fs.write_file s "/img" (bytes_of "y");
  Fs.set_type s "/img" "tm";
  let rows = Fs.query s {|retrieve (filename) where is_image(file)|} in
  match rows with
  | [ [ V.Str "img" ] ] -> ()
  | _ -> Alcotest.failf "typed dispatch on stored fn (%d rows)" (List.length rows)

let () =
  Alcotest.run "stored_fn"
    [
      ( "postquel functions",
        [
          Alcotest.test_case "define and call" `Quick test_define_and_call;
          Alcotest.test_case "body is a file" `Quick test_body_is_a_file;
          Alcotest.test_case "functions compose" `Quick test_functions_compose;
          Alcotest.test_case "time travel runs old versions" `Quick
            test_time_travel_runs_old_function;
          Alcotest.test_case "before definition: null" `Quick test_function_did_not_exist_yet;
          Alcotest.test_case "transactional redefinition" `Quick
            test_transactional_redefinition;
          Alcotest.test_case "bad bodies rejected" `Quick test_bad_body_rejected;
          Alcotest.test_case "recursion bounded" `Quick test_recursion_bounded;
          Alcotest.test_case "attach after crash" `Quick test_attach_after_crash;
          Alcotest.test_case "typed stored functions" `Quick test_typed_stored_function;
        ] );
    ]
