(* The lock manager, tested directly: multi-party deadlock cycles,
   Shared -> Exclusive upgrade contention, release_all clearing wait-for
   edges, and the bounded retry-with-backoff helper. *)

module L = Relstore.Lock_mgr

let xid = Alcotest.int

let test_three_party_deadlock_cycle () =
  let lm = L.create () in
  (* 1 -> a, 2 -> b, 3 -> c, then close the cycle 1->b->... *)
  L.acquire lm 1 ~resource:"a" L.Exclusive;
  L.acquire lm 2 ~resource:"b" L.Exclusive;
  L.acquire lm 3 ~resource:"c" L.Exclusive;
  (* 1 waits for b (held by 2), 2 waits for c (held by 3): edges only *)
  (match L.acquire lm 1 ~resource:"b" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "1 blocked on 2" [ 2 ] holders);
  (match L.acquire lm 2 ~resource:"c" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "2 blocked on 3" [ 3 ] holders);
  Alcotest.(check (list xid)) "wait-for edge 1->2" [ 2 ] (L.waiting lm 1);
  Alcotest.(check (list xid)) "wait-for edge 2->3" [ 3 ] (L.waiting lm 2);
  (* 3 -> a closes the 3-cycle 1->2->3->1: deadlock, victim is 3 *)
  (match L.acquire lm 3 ~resource:"a" L.Exclusive with
  | () -> Alcotest.fail "expected Deadlock"
  | exception L.Deadlock victim -> Alcotest.(check xid) "victim" 3 victim);
  (* the victim aborts; the cycle is broken and 3's resource frees up *)
  L.release_all lm 3;
  L.acquire lm 2 ~resource:"c" L.Exclusive;
  L.release_all lm 2;
  L.acquire lm 1 ~resource:"b" L.Exclusive

let test_four_party_deadlock_cycle () =
  let lm = L.create () in
  List.iter
    (fun (x, r) -> L.acquire lm x ~resource:r L.Exclusive)
    [ (1, "a"); (2, "b"); (3, "c"); (4, "d") ];
  let block x r =
    match L.acquire lm x ~resource:r L.Exclusive with
    | () -> Alcotest.fail "expected Would_block"
    | exception L.Would_block _ -> ()
  in
  block 1 "b";
  block 2 "c";
  block 3 "d";
  (match L.acquire lm 4 ~resource:"a" L.Exclusive with
  | () -> Alcotest.fail "expected Deadlock"
  | exception L.Deadlock victim -> Alcotest.(check xid) "victim" 4 victim)

let test_shared_to_exclusive_upgrade () =
  let lm = L.create () in
  (* sole shared holder upgrades in place *)
  L.acquire lm 1 ~resource:"r" L.Shared;
  L.acquire lm 1 ~resource:"r" L.Exclusive;
  Alcotest.(check (list (pair xid (of_pp (fun fmt m -> Format.pp_print_string fmt (L.mode_to_string m))))))
    "upgraded" [ (1, L.Exclusive) ]
    (L.holders lm ~resource:"r");
  L.release_all lm 1;
  (* contended upgrade blocks on the other shared holder *)
  L.acquire lm 1 ~resource:"r" L.Shared;
  L.acquire lm 2 ~resource:"r" L.Shared;
  (match L.acquire lm 1 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "blocked on the other reader" [ 2 ] holders);
  (* symmetric upgrade attempt from 2 closes a 2-cycle: upgrade deadlock *)
  (match L.acquire lm 2 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Deadlock"
  | exception L.Deadlock victim -> Alcotest.(check xid) "victim" 2 victim);
  L.release_all lm 2;
  (* with 2 gone, 1 is sole holder again and the upgrade goes through *)
  L.acquire lm 1 ~resource:"r" L.Exclusive

let test_release_all_clears_wait_edges () =
  let lm = L.create () in
  L.acquire lm 1 ~resource:"r" L.Exclusive;
  (match L.acquire lm 2 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block _ -> ());
  Alcotest.(check (list xid)) "edge recorded" [ 1 ] (L.waiting lm 2);
  (* 2 gives up: its wait-for edges must go with its (empty) lock set,
     otherwise a stale edge would fabricate deadlocks later *)
  L.release_all lm 2;
  Alcotest.(check (list xid)) "edge cleared" [] (L.waiting lm 2);
  (* 2's cleared edge must not poison later detection: build a real
     2-cycle with a fresh xid and check it is still caught, and that
     releasing the partner dissolves it *)
  L.acquire lm 3 ~resource:"s" L.Exclusive;
  (match L.acquire lm 1 ~resource:"s" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block _ -> ());
  (* 1 waits for 3; 3 -> r (held by 1) closes the 2-cycle *)
  (match L.acquire lm 3 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Deadlock"
  | exception L.Deadlock victim -> Alcotest.(check xid) "victim" 3 victim);
  (* releasing 1 clears both its lock on r and the 1->3 edge *)
  L.release_all lm 1;
  Alcotest.(check (list xid)) "1's edge gone" [] (L.waiting lm 1);
  L.acquire lm 3 ~resource:"r" L.Exclusive

let test_writer_not_starved_by_readers () =
  let lm = L.create () in
  (* reader 1 holds Shared; a writer requests Exclusive and blocks *)
  L.acquire lm 1 ~resource:"r" L.Shared;
  (match L.acquire lm 100 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "writer blocked on the reader" [ 1 ] holders);
  (* a stream of fresh readers is mode-compatible with the Shared holder,
     but every one must queue behind the pending writer — this is the
     no-barging rule that keeps the writer from starving *)
  for r = 2 to 9 do
    match L.acquire lm r ~resource:"r" L.Shared with
    | () -> Alcotest.fail "reader barged past a pending writer"
    | exception L.Would_block { holders; _ } ->
      Alcotest.(check (list xid)) "reader queued behind the writer" [ 100 ]
        holders
  done;
  (* the existing holder is exempt: re-acquiring its own lock is a no-op *)
  L.acquire lm 1 ~resource:"r" L.Shared;
  (* the reader commits; the writer's retry now wins *)
  L.release_all lm 1;
  L.acquire lm 100 ~resource:"r" L.Exclusive;
  Alcotest.(check (list xid)) "writer holds exclusively" [ 100 ]
    (List.map fst (L.holders lm ~resource:"r"));
  (* the writer commits; the queued readers all proceed *)
  L.release_all lm 100;
  for r = 2 to 9 do
    L.acquire lm r ~resource:"r" L.Shared
  done;
  Alcotest.(check int) "all readers hold" 8
    (List.length (L.holders lm ~resource:"r"))

let test_dead_writer_cannot_bar_readers () =
  let lm = L.create () in
  L.acquire lm 1 ~resource:"r" L.Shared;
  (match L.acquire lm 100 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block _ -> ());
  (* the blocked writer aborts: its pending wait must die with it, or
     readers would be barred by a ghost forever *)
  L.release_all lm 100;
  L.acquire lm 2 ~resource:"r" L.Shared

let test_wait_queue_probe () =
  let lm = L.create () in
  let read_probe () =
    match Obs.Metrics.read "lock.wait_queue" with
    | Some v -> v
    | None -> Alcotest.fail "lock.wait_queue probe not registered"
  in
  Alcotest.(check int) "empty manager" 0 (L.wait_queue_length lm);
  Alcotest.(check int) "probe empty" 0 (read_probe ());
  L.acquire lm 1 ~resource:"a" L.Exclusive;
  L.acquire lm 2 ~resource:"b" L.Exclusive;
  let block x r =
    match L.acquire lm x ~resource:r L.Exclusive with
    | () -> Alcotest.fail "expected Would_block"
    | exception L.Would_block _ -> ()
  in
  block 3 "a";
  block 4 "b";
  Alcotest.(check int) "two blocked" 2 (L.wait_queue_length lm);
  Alcotest.(check int) "probe reads through" 2 (read_probe ());
  L.release_all lm 3;
  Alcotest.(check int) "aborted waiter leaves the queue" 1 (read_probe ());
  L.reset lm;
  Alcotest.(check int) "reset clears the queue" 0 (read_probe ())

(* A resource's entry goes with its last holder: a commit walks the locks
   held, not every resource ever locked. *)
let test_release_drops_unheld_resources () =
  let lm = L.create () in
  for x = 1 to 100 do
    L.acquire lm x ~resource:(Printf.sprintf "rel:inv%d" x) L.Exclusive;
    L.acquire lm x ~resource:"shared" L.Shared;
    Alcotest.(check int) "held while open" 2 (L.locked_resources lm);
    L.release_all lm x
  done;
  Alcotest.(check int) "nothing held" 0 (L.locked_resources lm);
  L.acquire lm 1 ~resource:"a" L.Shared;
  L.acquire lm 2 ~resource:"a" L.Shared;
  L.release_all lm 1;
  Alcotest.(check int) "another holder keeps it" 1 (L.locked_resources lm);
  Alcotest.(check (list xid)) "holder survives" [ 2 ] (List.map fst (L.holders lm ~resource:"a"));
  L.release_all lm 2;
  Alcotest.(check int) "last holder drops it" 0 (L.locked_resources lm)

let () =
  Alcotest.run "lock_mgr"
    [
      ( "deadlock",
        [
          Alcotest.test_case "three-party cycle" `Quick test_three_party_deadlock_cycle;
          Alcotest.test_case "four-party cycle" `Quick test_four_party_deadlock_cycle;
        ] );
      ( "upgrade",
        [ Alcotest.test_case "shared->exclusive" `Quick test_shared_to_exclusive_upgrade ] );
      ( "release",
        [
          Alcotest.test_case "release_all clears wait edges" `Quick
            test_release_all_clears_wait_edges;
          Alcotest.test_case "release drops unheld resources" `Quick
            test_release_drops_unheld_resources;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "writer not starved by readers" `Quick
            test_writer_not_starved_by_readers;
          Alcotest.test_case "dead writer cannot bar readers" `Quick
            test_dead_writer_cannot_bar_readers;
          Alcotest.test_case "wait-queue probe" `Quick test_wait_queue_probe;
        ] );
    ]
